"""Golden digests of the queue mechanisms' access paths.

The perf benchmark's workloads run software-queue (SWQ) reads only.
This pins the rest of the queue protocol -- kernel-queue reads, posted
writes through the rings and the doorbell-flag ablation -- on a grid
that crosses SWQ and kernel queue, 1 and 4 reads per batch, with and
without one posted write per iteration, and the doorbell flag on and
off.  Every job runs 2 cores x 6 threads on 8-entry rings (so the
ring-space and completion-credit waits bind) over a 10 + 30 us window.

Each entry holds ``digest_of`` over the job's payload without
``kernel_stats`` (the simulator's own event counts, which a kernel
optimisation may change while every simulated result holds) and over
its report.

Regenerate (only when a simulated result is meant to change) with::

    PYTHONPATH=src python tests/integration/test_golden_queue_paths.py
"""

import itertools
import json
import pathlib

import pytest

from repro.config import AccessMechanism, SwqConfig, SystemConfig
from repro.harness.experiment import MeasureWindow
from repro.harness.sweep import SweepJob, run_job
from repro.obs.runlog import digest_of
from repro.workloads.microbench import MicrobenchSpec

GOLDEN = pathlib.Path(__file__).parent.parent / "golden" / "queue_paths.json"

_WINDOW = MeasureWindow(warmup_us=10.0, measure_us=30.0)


def _jobs() -> dict[str, SweepJob]:
    jobs = {}
    for mechanism, reads, writes, flag in itertools.product(
        (AccessMechanism.SOFTWARE_QUEUE, AccessMechanism.KERNEL_QUEUE),
        (1, 4),
        (0, 1),
        (True, False),
    ):
        label = "/".join((
            mechanism.value,
            f"{reads}-read",
            "writes" if writes else "no-writes",
            "flag" if flag else "no-flag",
        ))
        jobs[label] = SweepJob(
            config=SystemConfig(
                mechanism=mechanism,
                cores=2,
                threads_per_core=6,
                swq=SwqConfig(ring_entries=8, doorbell_flag=flag),
            ),
            spec=MicrobenchSpec(reads_per_batch=reads, writes_per_batch=writes),
            window=_WINDOW,
        )
    return jobs


JOBS = _jobs()


def _digests(job: SweepJob) -> dict:
    run = run_job(job)
    payload = {k: v for k, v in run.payload.items() if k != "kernel_stats"}
    return {"payload": digest_of(payload), "report": digest_of(run.report)}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("label", sorted(JOBS))
def test_queue_path_is_unchanged(label):
    assert _digests(JOBS[label]) == _golden()[label]


def test_golden_file_covers_every_queue_path():
    assert sorted(_golden()) == sorted(JOBS)
    assert len(JOBS) == 16


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {label: _digests(job) for label, job in sorted(JOBS.items())},
        indent=2, sort_keys=True,
    ) + "\n")
    print(f"wrote {GOLDEN}")
