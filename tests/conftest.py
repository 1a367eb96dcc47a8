"""Suite-wide fixtures.

Every test gets a throwaway run-ledger directory and result-cache
directory: CLI tests call ``repro.cli.main`` directly, and without this
redirect they would append provenance records to the developer's real
``.repro_runs/`` and read and write the checkout's ``.repro_cache/``
(where an entry left by an earlier model would be served to the test
instead of a simulation).
"""

import pytest


@pytest.fixture(autouse=True)
def _isolated_ledger_and_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "repro_runs"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro_cache"))
