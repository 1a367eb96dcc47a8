"""Run-ledger unit tests: append, read back, resolve, robustness."""

import json

import pytest

from repro.errors import ConfigError
from repro.obs.runlog import LEDGER_FORMAT, RunLedger, digest_of, git_sha


def _ledger(tmp_path) -> RunLedger:
    return RunLedger(tmp_path / "runs")


def test_record_stamps_format_run_id_and_timestamp(tmp_path):
    ledger = _ledger(tmp_path)
    entry = ledger.record({"command": "run", "status": 0})
    assert entry["format"] == LEDGER_FORMAT
    assert entry["timestamp"] > 0
    assert len(entry["run_id"]) == 12
    # The original dict is not mutated.
    assert ledger.path.exists()


def test_entries_round_trip_oldest_first(tmp_path):
    ledger = _ledger(tmp_path)
    for index in range(3):
        ledger.record({"command": "run", "index": index})
    entries = ledger.entries()
    assert [entry["index"] for entry in entries] == [0, 1, 2]


def test_entries_skip_corrupt_and_foreign_lines(tmp_path):
    ledger = _ledger(tmp_path)
    ledger.record({"command": "run", "index": 0})
    with open(ledger.path, "a") as handle:
        handle.write("this is not json\n")
        handle.write(json.dumps({"format": "some-other-tool-v9"}) + "\n")
        handle.write("\n")
    ledger.record({"command": "run", "index": 1})
    assert [entry["index"] for entry in ledger.entries()] == [0, 1]


def test_resolve_by_index_and_prefix(tmp_path):
    ledger = _ledger(tmp_path)
    first = ledger.record({"command": "run", "index": 0})
    second = ledger.record({"command": "figure", "index": 1})
    assert ledger.resolve("0")["index"] == 0
    assert ledger.resolve("-1")["index"] == 1
    assert ledger.resolve(first["run_id"])["index"] == 0
    assert ledger.resolve(second["run_id"][:8])["index"] == 1


def test_resolve_errors(tmp_path):
    ledger = _ledger(tmp_path)
    with pytest.raises(ConfigError, match="empty"):
        ledger.resolve("0")
    ledger.record({"command": "run"})
    with pytest.raises(ConfigError, match="out of range"):
        ledger.resolve("5")
    with pytest.raises(ConfigError, match="no ledger entry"):
        ledger.resolve("zzzzzz")


def test_record_survives_unwritable_root(tmp_path):
    target = tmp_path / "blocked"
    target.write_text("a file where the directory should go")
    ledger = RunLedger(target / "runs")
    assert ledger.record({"command": "run"}) is None  # no raise


def test_enabled_honors_no_ledger_env():
    assert RunLedger.enabled({}) is True
    assert RunLedger.enabled({"REPRO_NO_LEDGER": "1"}) is False


def test_env_var_relocates_default_root(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "elsewhere"))
    assert RunLedger().root == tmp_path / "elsewhere"


def test_digest_of_is_order_insensitive():
    assert digest_of({"a": 1, "b": 2}) == digest_of({"b": 2, "a": 1})
    assert digest_of({"a": 1}) != digest_of({"a": 2})


def test_git_sha_in_this_checkout_is_hex_or_none():
    sha = git_sha()
    assert sha is None or (len(sha) == 40 and int(sha, 16) >= 0)


def test_all_digit_run_id_prefix_is_not_an_index(tmp_path, monkeypatch):
    # A hex run id whose first 8 characters are digits is a prefix, not
    # an out-of-range index; short integer refs stay indices.
    from repro.obs import runlog

    ledger = _ledger(tmp_path)
    ledger.record({"command": "run", "index": 0})
    monkeypatch.setattr(runlog, "digest_of", lambda payload: "1234567890ab" + "0" * 52)
    ledger.record({"command": "figure", "index": 1})
    assert ledger.resolve("12345678")["index"] == 1
    assert ledger.resolve("1234567890ab")["index"] == 1
    assert ledger.resolve("0")["index"] == 0
    assert ledger.resolve("-1")["index"] == 1
