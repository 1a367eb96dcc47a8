"""The simlint engine: file walking, parsing, checker orchestration.

The engine owns everything that is not contract knowledge: discovering
files, parsing them once, annotating the AST with parent links, running
every registered checker, applying pragmas, folding in the baseline,
and keeping the whole pipeline deterministic (files and findings are
always processed and reported in sorted order).
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.analysis.codes import CODES
from repro.analysis.pragmas import PragmaSet, parse_pragmas

__all__ = [
    "Finding",
    "ModuleInfo",
    "AnalysisResult",
    "analyze_paths",
    "analyze_source",
]


@dataclass(frozen=True)
class Finding:
    """One diagnostic, pinned to a source location."""

    code: str
    message: str
    path: str  # as reported (cwd-relative when possible)
    line: int
    col: int
    snippet: str  # the stripped source line
    #: Machine-stable path used for fingerprints (starts at the package
    #: root when the file is inside a ``repro`` package).
    fingerprint_path: str
    #: Disambiguates identical (code, path, snippet) findings.
    occurrence: int = 0

    @property
    def fingerprint(self) -> str:
        """Line-number-independent identity for baselines: a finding
        keeps its fingerprint when unrelated lines shift."""
        payload = (
            f"{self.code}|{self.fingerprint_path}|{self.snippet}"
            f"|{self.occurrence}"
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @property
    def sort_key(self):
        return (self.path, self.line, self.col, self.code)

    def describe(self) -> str:
        title = CODES[self.code].title if self.code in CODES else ""
        return (
            f"{self.path}:{self.line}:{self.col}: {self.code} "
            f"[{title}] {self.message}"
        )


@dataclass
class ModuleInfo:
    """One parsed source file, as handed to every checker."""

    path: Path
    report_path: str
    fingerprint_path: str
    module: str  # dotted module name, e.g. "repro.cpu.lfb"
    source: str
    lines: List[str]
    tree: ast.Module
    pragmas: PragmaSet

    def finding(
        self, code: str, node_or_line, message: str, col: Optional[int] = None
    ) -> Finding:
        """Build a finding at an AST node (or a bare line number)."""
        if isinstance(node_or_line, int):
            line, column = node_or_line, 0
        else:
            line = getattr(node_or_line, "lineno", 1)
            column = getattr(node_or_line, "col_offset", 0)
        if col is not None:
            column = col
        snippet = ""
        if 1 <= line <= len(self.lines):
            snippet = self.lines[line - 1].strip()
        return Finding(
            code=code,
            message=message,
            path=self.report_path,
            line=line,
            col=column,
            snippet=snippet,
            fingerprint_path=self.fingerprint_path,
        )


@dataclass
class AnalysisResult:
    """Everything one lint run produced."""

    findings: List[Finding]  # new (non-baselined, non-suppressed)
    baselined: List[Finding]
    stale_baseline: List[str]  # fingerprints no longer present
    files_scanned: int
    #: Every raw finding before suppression/baseline (for --update-baseline).
    all_findings: List[Finding] = field(default_factory=list)

    @property
    def counts_by_code(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.code] = counts.get(finding.code, 0) + 1
        return dict(sorted(counts.items()))


def _link_parents(tree: ast.Module) -> None:
    """Annotate every node with ``_simlint_parent`` (checkers climb
    these for guard/scope analysis)."""
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            child._simlint_parent = node  # type: ignore[attr-defined]


def _module_name(path: Path) -> str:
    """Dotted module name; files outside a ``repro`` package fall back
    to their stem (fixtures, ad-hoc scripts)."""
    parts = list(path.parts)
    if path.suffix == ".py":
        parts[-1] = path.stem
    if "repro" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("repro"):]
        if parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)
    return path.stem


def _fingerprint_path(path: Path) -> str:
    parts = list(path.parts)
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[index:])
    return path.name


def _report_path(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return str(path)


def _collect_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                candidate
                for candidate in path.rglob("*.py")
                if "__pycache__" not in candidate.parts
            )
        else:
            files.append(path)
    unique = {file.resolve().as_posix(): file for file in files}
    return [unique[key] for key in sorted(unique)]


def _load_module(path: Path) -> Union[ModuleInfo, Finding]:
    report_path = _report_path(path)
    fingerprint_path = _fingerprint_path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        return Finding(
            code="SIM003",
            message=f"cannot read: {error}",
            path=report_path, line=1, col=0, snippet="",
            fingerprint_path=fingerprint_path,
        )
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        line = error.lineno or 1
        snippet = lines[line - 1].strip() if 0 < line <= len(lines) else ""
        return Finding(
            code="SIM003",
            message=f"syntax error: {error.msg}",
            path=report_path, line=line, col=error.offset or 0,
            snippet=snippet, fingerprint_path=fingerprint_path,
        )
    _link_parents(tree)
    return ModuleInfo(
        path=path,
        report_path=report_path,
        fingerprint_path=fingerprint_path,
        module=_module_name(path),
        source=source,
        lines=lines,
        tree=tree,
        pragmas=parse_pragmas(source),
    )


def _check_module(module: ModuleInfo, checkers) -> List[Finding]:
    """Raw checker + pragma-hygiene findings for one module, with
    pragma suppression applied (suppression marks pragmas used, so it
    must run before the unused-pragma pass)."""
    raw: List[Finding] = []
    for checker in checkers:
        raw.extend(checker.check(module))
    kept = [
        finding for finding in raw
        if not module.pragmas.suppress(finding.code, finding.line)
    ]
    for pragma in module.pragmas.pragmas:
        if pragma.problem:
            kept.append(
                module.finding(
                    "SIM001", pragma.line, f"pragma {pragma.problem}"
                )
            )
        elif pragma.unused:
            kept.append(
                module.finding(
                    "SIM002",
                    pragma.line,
                    "pragma suppresses nothing (codes "
                    f"{', '.join(pragma.codes)}); remove it",
                )
            )
    return kept


def _number_occurrences(findings: List[Finding]) -> List[Finding]:
    """Assign occurrence indices so identical (code, path, snippet)
    findings get distinct, order-stable fingerprints."""
    findings = sorted(findings, key=lambda finding: finding.sort_key)
    seen: Dict[tuple, int] = {}
    numbered: List[Finding] = []
    for finding in findings:
        key = (finding.code, finding.fingerprint_path, finding.snippet)
        occurrence = seen.get(key, 0)
        seen[key] = occurrence + 1
        numbered.append(
            finding if occurrence == finding.occurrence else Finding(
                code=finding.code, message=finding.message,
                path=finding.path, line=finding.line, col=finding.col,
                snippet=finding.snippet,
                fingerprint_path=finding.fingerprint_path,
                occurrence=occurrence,
            )
        )
    return numbered


def analyze_paths(
    paths: Sequence[Union[str, Path]],
    *,
    checkers=None,
    baseline: Optional[Dict[str, dict]] = None,
) -> AnalysisResult:
    """Lint every ``.py`` file under ``paths`` (files or directories).

    ``baseline`` maps fingerprints to metadata (see
    :mod:`repro.analysis.baseline`); matching findings are reported
    separately and do not count as new.
    """
    if checkers is None:
        from repro.analysis.checkers import default_checkers

        checkers = default_checkers()
    baseline = baseline or {}
    collected: List[Finding] = []
    files = _collect_files(paths)
    for path in files:
        loaded = _load_module(path)
        if isinstance(loaded, Finding):
            collected.append(loaded)
            continue
        collected.extend(_check_module(loaded, checkers))
    numbered = _number_occurrences(collected)
    fresh = [f for f in numbered if f.fingerprint not in baseline]
    old = [f for f in numbered if f.fingerprint in baseline]
    present = {finding.fingerprint for finding in numbered}
    stale = sorted(fp for fp in baseline if fp not in present)
    return AnalysisResult(
        findings=fresh,
        baselined=old,
        stale_baseline=stale,
        files_scanned=len(files),
        all_findings=numbered,
    )


def analyze_source(
    source: str, *, module: str = "snippet", checkers=None
) -> List[Finding]:
    """Lint a source string (the unit-test entry point)."""
    if checkers is None:
        from repro.analysis.checkers import default_checkers

        checkers = default_checkers()
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=f"{module}.py")
    except SyntaxError as error:
        line = error.lineno or 1
        snippet = lines[line - 1].strip() if 0 < line <= len(lines) else ""
        return [
            Finding(
                code="SIM003", message=f"syntax error: {error.msg}",
                path=f"{module}.py", line=line, col=error.offset or 0,
                snippet=snippet, fingerprint_path=f"{module}.py",
            )
        ]
    _link_parents(tree)
    info = ModuleInfo(
        path=Path(f"{module}.py"),
        report_path=f"{module}.py",
        fingerprint_path=f"{module}.py",
        module=module,
        source=source,
        lines=lines,
        tree=tree,
        pragmas=parse_pragmas(source),
    )
    return _number_occurrences(_check_module(info, checkers))
