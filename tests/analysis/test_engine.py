"""Engine behavior: fingerprints, occurrence numbering, determinism."""

import textwrap

from repro.analysis import analyze_paths, analyze_source

_VIOLATION = textwrap.dedent('''
    import time


    def stamp():
        return time.time()
''')


def test_fingerprint_is_line_number_independent(tmp_path):
    """Shifting a finding down the file must not change its
    fingerprint, or baselines would churn on every edit."""
    first = tmp_path / "mod.py"
    first.write_text(_VIOLATION)
    shifted = tmp_path / "mod.py"
    before = analyze_paths([first]).findings
    shifted.write_text("# a new leading comment\n\n" + _VIOLATION)
    after = analyze_paths([shifted]).findings
    assert len(before) == len(after) == 1
    assert before[0].line != after[0].line
    assert before[0].fingerprint == after[0].fingerprint


def test_identical_findings_get_distinct_occurrences():
    findings = analyze_source(textwrap.dedent('''
        import time


        def first():
            return time.time()


        def second():
            return time.time()
    '''))
    assert len(findings) == 2
    assert findings[0].snippet == findings[1].snippet
    assert findings[0].fingerprint != findings[1].fingerprint
    assert {finding.occurrence for finding in findings} == {0, 1}


def test_syntax_error_is_sim003():
    findings = analyze_source("def broken(:\n    pass\n")
    assert [finding.code for finding in findings] == ["SIM003"]


def test_findings_are_sorted_and_stable(tmp_path):
    """Two runs over the same tree produce identical reports."""
    for name in ("b_mod.py", "a_mod.py"):
        (tmp_path / name).write_text(_VIOLATION)
    one = analyze_paths([tmp_path])
    two = analyze_paths([tmp_path])
    assert [f.describe() for f in one.findings] == [
        f.describe() for f in two.findings
    ]
    paths = [f.path for f in one.findings]
    assert paths == sorted(paths)


def test_directory_walk_skips_pycache(tmp_path):
    cache = tmp_path / "__pycache__"
    cache.mkdir()
    (cache / "stale.py").write_text(_VIOLATION)
    (tmp_path / "real.py").write_text("X = 1\n")
    result = analyze_paths([tmp_path])
    assert result.files_scanned == 1
    assert result.findings == []


def test_function_local_import_alias_resolves():
    """An alias imported inside a function canonicalizes like a
    module-level one, so a workload that imports numpy only where it
    draws still has its RNG construction checked (SIM102)."""
    findings = analyze_source(textwrap.dedent('''
        def unseeded():
            import numpy as np

            return np.random.RandomState().permutation(8)


        def seeded(seed):
            import numpy as np

            return np.random.RandomState(seed).permutation(8)
    '''))
    assert [(finding.code, finding.line) for finding in findings] == [("SIM102", 5)]
