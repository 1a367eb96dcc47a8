"""Experiment provenance ledger: every CLI run leaves a record.

Reproducing a paper is an exercise in not fooling yourself, and the
first tool for that is a memory: which commit, which model version,
which config produced the numbers you are looking at?  Every
``repro run/app/serve/explain/trace/profile/figure/sweep-worker``
invocation appends one JSON line to ``.repro_runs/ledger.jsonl`` with:

* provenance -- ledger format version, git SHA, sweep
  :data:`~repro.harness.sweep.MODEL_VERSION`, CLI argv, timestamp;
* identity -- a ``run_id`` content digest and a ``config_digest`` (a
  job command's :func:`~repro.harness.sweep.job_digest`, a figure's
  name and scale), so "the same experiment" is a machine-checkable
  notion;
* results -- wall time, kernel counters, the job's payload numbers,
  figure series (as :func:`~repro.harness.regression.figure_to_dict`
  renders them), metrics, exemplars and trace digests, sweep/cache
  statistics.

``repro runs list/show/diff`` read the ledger back; ``runs diff``
reuses the :mod:`repro.harness.regression` tolerance machinery to
compare two entries' figure series, kernel counters, result numbers
and digests.  The ledger is best-effort: a read-only filesystem or a
corrupt line degrades to "not recorded", never to a failed run.
Set ``REPRO_RUNS_DIR`` to relocate it or ``REPRO_NO_LEDGER`` (any
non-empty value) to disable recording.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from pathlib import Path
from typing import Optional, Union

from repro.errors import ConfigError

__all__ = [
    "LEDGER_FORMAT",
    "RunLedger",
    "git_sha",
    "digest_of",
    "link_manifests",
]

#: Bump when the per-entry schema changes incompatibly; readers skip
#: entries whose format tag they do not recognize.
LEDGER_FORMAT = "repro-runlog-v1"

#: Default ledger directory (relative to the working directory, like
#: ``.repro_cache``); override with ``REPRO_RUNS_DIR``.
DEFAULT_RUNS_DIR = ".repro_runs"

#: Shortest ref that :meth:`RunLedger.resolve` reads as a run-id prefix
#: even when it is all digits, as a hex id's first characters can be:
#: no ledger holds 10**7 entries, so such a ref is never an index.
_MIN_ID_PREFIX = 8


def git_sha() -> Optional[str]:
    """The working tree's commit SHA, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    sha = proc.stdout.strip()
    return sha or None


def digest_of(payload) -> str:
    """SHA-256 of the canonical JSON rendering of ``payload``."""
    canonical = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def link_manifests(entry: Optional[dict]) -> None:
    """Record ``entry``'s run id in the sweep-queue manifest it used.

    A recorded sweep that ran against a persistent queue notes the
    queue directory in ``entry["sweep"]["queue"]["dir"]``; writing the
    ledger ``run_id`` back into that queue's experiment manifest links
    the versioned experiment record to its provenance trail.  Like the
    ledger itself this is best-effort: a missing or foreign manifest
    never fails the run.
    """
    if not entry:
        return
    run_id = entry.get("run_id")
    root = ((entry.get("sweep") or {}).get("queue") or {}).get("dir")
    if not run_id or not root:
        return
    from repro.harness.coordinator import WorkQueue

    try:
        WorkQueue.attach(root).note_run(str(run_id))
    except (ConfigError, OSError):
        pass


class RunLedger:
    """Append-only JSONL ledger of experiment runs."""

    def __init__(self, root: Union[str, os.PathLike, None] = None) -> None:
        if root is None:
            root = os.environ.get("REPRO_RUNS_DIR") or DEFAULT_RUNS_DIR
        self.root = Path(root)

    @classmethod
    def enabled(cls, environ: Optional[dict] = None) -> bool:
        env = os.environ if environ is None else environ
        return not env.get("REPRO_NO_LEDGER")

    @property
    def path(self) -> Path:
        return self.root / "ledger.jsonl"

    # -- writing -----------------------------------------------------------

    def record(self, entry: dict) -> Optional[dict]:
        """Stamp ``entry`` with the format tag and a run id, append it.

        Returns the completed entry, or None when the append failed
        (the ledger never makes a run fail).
        """
        entry = dict(entry)
        entry["format"] = LEDGER_FORMAT
        # simlint: disable-next-line=SIM101 -- provenance timestamp of the
        # host run; deliberately wall-clock, never fed back into the model
        entry.setdefault("timestamp", time.time())
        entry["run_id"] = digest_of(entry)[:12]
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a") as handle:
                handle.write(
                    json.dumps(entry, sort_keys=True, default=str) + "\n"
                )
        except OSError:
            return None
        return entry

    # -- reading -----------------------------------------------------------

    def entries(self) -> list[dict]:
        """Every well-formed entry, oldest first (corrupt lines and
        unknown formats are skipped, not fatal)."""
        try:
            with open(self.path) as handle:
                lines = handle.readlines()
        except OSError:
            return []
        out: list[dict] = []
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if (
                isinstance(entry, dict)
                and entry.get("format") == LEDGER_FORMAT
            ):
                out.append(entry)
        return out

    def resolve(self, ref: str) -> dict:
        """An entry by integer index (``0`` oldest, ``-1`` newest) or by
        ``run_id`` prefix.  A ref of at least :data:`_MIN_ID_PREFIX`
        characters is a prefix even when it is all digits."""
        entries = self.entries()
        if not entries:
            raise ConfigError(f"run ledger {self.path} is empty")
        try:
            index = int(ref) if len(ref) < _MIN_ID_PREFIX else None
        except ValueError:
            index = None
        if index is None:
            matches = [
                entry
                for entry in entries
                if str(entry.get("run_id", "")).startswith(ref)
            ]
            if not matches:
                raise ConfigError(f"no ledger entry with run id {ref!r}")
            if len(matches) > 1:
                ids = ", ".join(str(m["run_id"]) for m in matches[:5])
                raise ConfigError(
                    f"run id prefix {ref!r} is ambiguous ({ids})"
                )
            return matches[0]
        try:
            return entries[index]
        except IndexError:
            raise ConfigError(
                f"ledger index {index} out of range "
                f"({len(entries)} entries)"
            )
