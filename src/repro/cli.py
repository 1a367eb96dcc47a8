"""Command-line interface: run experiments without writing code.

::

    python -m repro run --mechanism prefetch --threads 10 --latency-us 1
    python -m repro run --mechanism software-queue --threads 24 --cores 4
    python -m repro figure fig3 --scale quick --jobs 4 --check-invariants
    python -m repro figure fig3 --scale full --jobs 8 --progress --stats
    python -m repro figure fig3 --queue .repro_queue --jobs 4   # durable
    python -m repro figure fig3 --resume                        # after ^C
    python -m repro sweep-worker --queue .repro_queue --watch   # extra host
    python -m repro trace --figure fig7 --out trace.json --tracks swq,pcie
    python -m repro app memcached --mechanism prefetch --threads 8
    python -m repro runs list
    python -m repro runs diff -2 -1
    python -m repro list

There are two kinds of command.  A *job command* (``run``, ``app``,
``serve``, ``explain``, ``trace``, ``profile microbench``) builds one
:class:`~repro.harness.sweep.SweepJob` from its flags (:func:`_job`)
and runs it.  A *grid command* (``figure``, ``profile FIG``) runs one
figure's grid through the sweep engine; ``figure --stats`` also
reports the engine's execution and cache statistics.

Every job command, ``figure``, ``profile`` and ``sweep-worker``
invocation appends a provenance record to ``.repro_runs/ledger.jsonl``
(disable with ``REPRO_NO_LEDGER=1``, relocate with ``REPRO_RUNS_DIR``).
A job command's ``config_digest`` is the
:func:`~repro.harness.sweep.job_digest` of its job, the key the result
cache and the work queue use too.  ``repro runs list/show/diff``
inspects the ledger.
"""

from __future__ import annotations

import argparse
import shlex
import sys
import time
from dataclasses import replace
from typing import Optional, Sequence

from repro.config import (
    AccessMechanism,
    CpuConfig,
    DeviceAttachment,
    DeviceConfig,
    SwqConfig,
    SystemConfig,
    UncoreConfig,
)
from repro.errors import SimulationError
from repro.harness.applications import APPLICATIONS, default_params
from repro.harness.experiment import MeasureWindow
from repro.harness.figures import ALL_FIGURES
from repro.harness.report import render_chart, render_table, to_csv
from repro.harness.sweep import (
    MODEL_VERSION, SweepEngine, SweepJob, job_digest, normalized, run_job,
)
from repro import units
from repro.obs import runlog
from repro.obs.scenarios import TRACE_SCENARIOS
from repro.workloads.microbench import MicrobenchSpec

__all__ = ["main", "build_parser"]

_MECHANISMS = {mechanism.value: mechanism for mechanism in AccessMechanism}
_ATTACHMENTS = {attachment.value: attachment for attachment in DeviceAttachment}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Taming the Killer Microsecond' (MICRO 2018)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help: str, recorded: bool = True):
        """A subcommand whose ``handler`` runs it; a ``recorded`` one
        appends a run-ledger entry."""
        sub = commands.add_parser(name, help=help)
        sub.set_defaults(handler=handler, recorded=recorded)
        return sub

    run = command("run", _command_job, "run one microbenchmark configuration")
    _add_microbench_flags(run)
    run.add_argument(
        "--metrics", metavar="PATH", default=None,
        help="also write the full metrics-registry snapshot as JSON",
    )

    trace = command(
        "trace", _command_trace,
        "record a tick-accurate Chrome-trace timeline (Perfetto-"
        "loadable) of one figure's characteristic run",
    )
    trace.add_argument("--figure", choices=sorted(TRACE_SCENARIOS),
                       default="fig3",
                       help="which figure's scenario to trace (default fig3)")
    trace.add_argument("--out", metavar="PATH", default="trace.json",
                       help="output trace file (default trace.json)")
    trace.add_argument("--tracks", metavar="LIST", default=None,
                       help="comma-separated track subset "
                            "(rob,lfb,queues,pcie,device,swq,sched; "
                            "default all)")
    trace.add_argument("--sample", type=int, default=1, metavar="N",
                       help="keep 1 in N duration events per event name "
                            "(counters are never sampled)")
    trace.add_argument("--max-events", type=int, default=2_000_000,
                       metavar="N", help="hard cap on recorded events")
    trace.add_argument("--quick", action="store_true",
                       help="short 5+20 us window (CI smoke runs)")
    _add_check_invariants(trace)

    figure = command("figure", _command_figure, "regenerate one paper figure")
    figure.add_argument("name", choices=sorted(ALL_FIGURES))
    figure.add_argument("--scale", choices=("quick", "full"), default="quick")
    _add_engine_flags(figure)
    figure.add_argument("--csv", metavar="PATH", default=None,
                        help="also write the series as CSV")
    figure.add_argument("--chart", action="store_true",
                        help="render an ASCII chart as well as the table")
    figure.add_argument(
        "--stats", action="store_true",
        help="also report the sweep engine's statistics: workers, jobs, "
             "cache hits and misses, simulated jobs, queue and wall time",
    )

    worker = command(
        "sweep-worker", _command_sweep_worker,
        "drain sweep work queues as a standalone worker: point any "
        "number of these (on any host sharing the filesystem) at "
        "the --queue directory of an interrupted or running sweep",
    )
    worker.add_argument(
        "--queue", metavar="DIR", required=True,
        help="work-queue root to drain (a sweep's --queue directory)",
    )
    worker.add_argument(
        "--worker", metavar="NAME", default=None,
        help="worker id stamped into leases and result records "
             "(default: hostname-pid)",
    )
    worker.add_argument(
        "--watch", action="store_true",
        help="keep polling for new queues and jobs until interrupted "
             "(default: exit once every discovered queue is resolved)",
    )
    worker.add_argument(
        "--poll-s", type=float, default=0.5, metavar="S",
        help="idle polling interval in seconds (default 0.5)",
    )
    worker.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="stop after claiming N jobs (default: unlimited)",
    )
    worker.add_argument(
        "--lease-s", type=float, default=900.0, metavar="S",
        help="job lease duration; a crashed worker's claims expire "
             "after this long (default 900)",
    )
    worker.add_argument(
        "--no-cache", action="store_true", default=None,
        help="disable the shared on-disk result cache "
             "(as $REPRO_NO_CACHE does)",
    )
    worker.add_argument(
        "--cache-dir", metavar="DIR",
        help="result-cache directory shared with the sweep "
             "(default: $REPRO_CACHE_DIR or .repro_cache)",
    )

    serve = command(
        "serve", _command_job,
        "run the memcached workload as an open-loop service and "
        "report tail-latency SLO metrics (p50/p99/p999, jitter)",
    )
    _add_service_flags(serve)

    explain = command(
        "explain", _command_job,
        "run the open-loop service with request-scoped spans and "
        "attribute tail latency to layers (queue / sq / device / "
        "cq / work), with exemplar span trees for the slowest requests",
    )
    _add_service_flags(explain)
    explain.add_argument(
        "--top", type=int, default=8, metavar="K",
        help="retain complete span trees for the K slowest requests "
             "(default 8)",
    )
    explain.add_argument(
        "--exemplars-out", metavar="FILE", default=None,
        help="dump the exemplar span trees (K slowest + stratified "
             "p50/p90/p99) as JSON",
    )
    explain.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="record a Chrome trace of the run with the exemplar span "
             "trees overlaid as async spans (open at "
             "https://ui.perfetto.dev)",
    )

    app = command("app", _command_job, "run one application study")
    app.add_argument("name", choices=sorted(APPLICATIONS))
    _add_job_flags(app, "prefetch", threads=8)

    runs = command(
        "runs", _command_runs,
        "inspect the provenance ledger (.repro_runs/ledger.jsonl)",
        recorded=False,
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_list = runs_sub.add_parser("list", help="list recorded runs")
    runs_list.add_argument("--limit", type=int, default=20, metavar="N",
                           help="show the most recent N runs (default 20)")
    runs_show = runs_sub.add_parser(
        "show", help="print one ledger entry as JSON"
    )
    prefix_help = "run-id prefix, at least 8 characters if all digits"
    runs_show.add_argument("ref", help=f"run index (0 oldest, -1 newest) or {prefix_help}")
    runs_diff = runs_sub.add_parser(
        "diff",
        help="diff two recorded runs (figure series, kernel stats, "
             "results, digests); exits 1 on any deviation",
    )
    runs_diff.add_argument("a", help=f"baseline run (index or {prefix_help})")
    runs_diff.add_argument("b", help=f"current run (index or {prefix_help})")
    runs_diff.add_argument("--rtol", type=float, default=0.0,
                           help="relative tolerance (default 0: exact)")
    runs_diff.add_argument("--atol", type=float, default=0.0,
                           help="absolute tolerance (default 0: exact)")

    profile = command(
        "profile", _command_profile,
        "run a figure or microbench under cProfile and report "
        "kernel counters (events fired, bypass ratio, events/sec)",
    )
    profile.add_argument(
        "target", choices=sorted(ALL_FIGURES) + ["microbench"],
        help="a figure name, or 'microbench' for one configuration",
    )
    profile.add_argument("--scale", choices=("quick", "full"), default="quick",
                         help="figure grid resolution (figure targets only)")
    profile.add_argument("--top", type=int, default=15, metavar="N",
                         help="profile rows to print (default 15)")
    profile.add_argument("--sort", choices=("tottime", "cumulative"),
                         default="tottime", help="pstats sort key")
    _add_microbench_flags(profile)

    lint = command(
        "lint", _command_lint,
        "run simlint, the static analyzer enforcing the "
        "determinism/kernel/units/observability contracts",
        recorded=False,
    )
    from repro.analysis import add_lint_arguments

    add_lint_arguments(lint)

    command("list", _command_list, "list figures and applications", recorded=False)
    command("table1", _command_table1, "print the paper's Table I taxonomy",
            recorded=False)
    return parser


def _add_check_invariants(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--check-invariants", action="store_true",
                        help="run the online invariant sanitizer alongside every simulation "
                             "(passive: results unchanged, but cached separately)")


def _add_job_flags(parser: argparse.ArgumentParser, mechanism: str,
                   threads: int, window: Optional[tuple] = None,
                   per_core: str = "--threads") -> None:
    """The flags every job command shares: mechanism, threads per core
    (``--workers``, a service's polling workers), cores, device
    latency, the measurement window and ``--check-invariants``."""
    parser.add_argument("--mechanism", choices=sorted(_MECHANISMS), default=mechanism)
    what = "polling service workers" if per_core == "--workers" else "threads"
    parser.add_argument(per_core, dest="threads", type=int, default=threads,
                        help=f"{what} per core (default {threads})")
    parser.add_argument("--cores", type=int, default=1)
    parser.add_argument("--latency-us", type=float, default=1.0)
    if window is not None:
        parser.add_argument("--warmup-us", type=float, default=window[0])
        parser.add_argument("--measure-us", type=float, default=window[1])
    _add_check_invariants(parser)


def _add_microbench_flags(parser: argparse.ArgumentParser) -> None:
    """One microbenchmark configuration: ``run`` and ``profile``."""
    _add_job_flags(parser, "prefetch", threads=10, window=(30.0, 100.0))
    parser.add_argument("--work", type=int, default=200,
                        help="work instructions per access")
    parser.add_argument("--mlp", type=int, default=1, help="reads per batch (1/2/4)")
    parser.add_argument("--writes", type=int, default=0, help="posted writes per batch")
    parser.add_argument("--lfb", type=int, default=10, help="line-fill buffers per core")
    parser.add_argument("--chip-queue", type=int, default=14,
                        help="shared chip-level queue entries (PCIe path)")
    parser.add_argument("--smt", type=int, default=1, choices=(1, 2, 4))
    parser.add_argument("--attachment", choices=sorted(_ATTACHMENTS), default="pcie")


def _add_service_flags(parser: argparse.ArgumentParser) -> None:
    """Open-loop service flags shared by ``serve`` and ``explain``."""
    _add_job_flags(parser, "software-queue", threads=8, window=(40.0, 400.0),
                   per_core="--workers")
    parser.add_argument("--rate", type=float, default=0.2, metavar="R",
                        help="offered load, requests/us per core (default 0.2)")
    parser.add_argument("--arrivals", choices=("poisson", "mmpp"),
                        default="poisson", help="interarrival process")
    parser.add_argument("--burst-ratio", type=float, default=8.0,
                        help="MMPP burst-state rate multiplier (default 8)")
    parser.add_argument("--burst-fraction", type=float, default=0.1,
                        help="MMPP fraction of time in the burst state")
    parser.add_argument("--dwell-us", type=float, default=20.0,
                        help="MMPP mean burst dwell time in us")
    parser.add_argument("--theta", type=float, default=0.0,
                        help="Zipfian key skew in [0, 1); 0 = uniform")
    parser.add_argument("--items", type=int, default=2048,
                        help="key-value store size (and key space)")
    parser.add_argument("--ring", type=int, default=None, metavar="N",
                        help="SWQ ring entries per core (power of two; "
                             "default: config default)")
    parser.add_argument("--seed", type=int, default=1,
                        help="load-generator seed (arrivals and keys)")


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    """Sweep-engine flags of ``figure``."""
    parser.add_argument(
        "--jobs", type=int, metavar="N",
        help="worker processes for the sweep (default: $REPRO_SWEEP_JOBS or 1)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", default=None,
        help="disable the on-disk result cache "
             "(as $REPRO_NO_CACHE does)",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        help="result-cache directory (default: $REPRO_CACHE_DIR or .repro_cache)",
    )
    _add_check_invariants(parser)
    parser.add_argument(
        "--progress", action="store_true",
        help="render live per-job progress (done/total, cache hits, "
             "ETA) on stderr while the sweep runs",
    )
    parser.add_argument(
        "--timeout-s", type=float, metavar="S",
        help="per-job deadline, measured from the job's claim "
             "(default: $REPRO_SWEEP_TIMEOUT_S or 900)",
    )
    parser.add_argument(
        "--retries", type=int, metavar="N",
        help="worker-side attempts per job before the in-process "
             "fallback (default: $REPRO_SWEEP_RETRIES or 1)",
    )
    parser.add_argument(
        "--queue", metavar="DIR",
        help="persistent work-queue root: per-job state survives "
             "interrupts and crashes, and standalone `repro "
             "sweep-worker` processes can share the work "
             "(default: $REPRO_SWEEP_QUEUE)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="re-enter an interrupted sweep's work queue and execute "
             "only its unresolved jobs (implies --queue, default "
             ".repro_queue)",
    )


# -- job commands -------------------------------------------------------------


def _job(args: argparse.Namespace) -> SweepJob:
    """The one job a job command runs, built from its flags."""
    check = args.check_invariants
    if args.command == "trace":
        job = TRACE_SCENARIOS[args.figure]
        if args.quick:
            job = replace(job, window=MeasureWindow(warmup_us=5.0, measure_us=20.0))
        return replace(job, check_invariants=check)
    hardware = {"device": DeviceConfig(total_latency_us=args.latency_us)}
    if args.command == "app":
        work = {"app": args.name, "params": default_params(args.name)}
    elif args.command in ("serve", "explain"):
        from repro.harness.service import ServiceParams
        from repro.workloads.loadgen import ArrivalKind, ArrivalSpec, KeySpec, OpenLoopSpec

        if args.ring is not None:
            hardware["swq"] = SwqConfig(ring_entries=args.ring)
        arrivals = ArrivalSpec(
            kind=ArrivalKind(args.arrivals), rate_per_us=args.rate,
            burst_ratio=args.burst_ratio, burst_fraction=args.burst_fraction,
            mean_dwell_us=args.dwell_us,
        )
        keys = KeySpec(items=args.items, theta=args.theta)
        service = ServiceParams(
            open_loop=OpenLoopSpec(arrivals=arrivals, keys=keys, seed=args.seed),
            items=args.items, workers_per_core=args.threads,
        )
        if args.command == "explain":
            service = replace(service, spans=True, span_exemplars=args.top)
        work = {"service": service}
    else:
        hardware = {
            "cpu": CpuConfig(lfb_entries=args.lfb, smt_contexts=args.smt),
            "uncore": UncoreConfig(pcie_queue_entries=args.chip_queue),
            "device": DeviceConfig(
                total_latency_us=args.latency_us, attachment=_ATTACHMENTS[args.attachment]
            ),
        }
        work = {
            "spec": MicrobenchSpec(
                work_count=args.work, reads_per_batch=args.mlp, writes_per_batch=args.writes
            ),
            "collect_metrics": bool(getattr(args, "metrics", None)),
        }
    if args.command != "app":
        work["window"] = MeasureWindow(warmup_us=args.warmup_us, measure_us=args.measure_us)
    config = SystemConfig(
        mechanism=_MECHANISMS[args.mechanism],
        cores=args.cores,
        threads_per_core=args.threads,
        **hardware,
    )
    return SweepJob(config=config, check_invariants=check, **work)


#: Payload sections a ledger entry keeps as a digest (``<name>_digest``)
#: rather than in full.
_DIGESTED = ("metrics", "exemplars")


def _record_job(record: Optional[dict], job: SweepJob, payload: dict,
                value: Optional[float] = None) -> None:
    """The ledger rule of every job command.

    The job's identity is its :func:`job_digest`, the key of the result
    cache and the work queue.  ``results`` holds the payload's results
    (plus the normalized value when the command normalizes), and each
    bulky section is kept as a top-level digest that ``runs diff``
    compares.
    """
    if record is None:
        return
    record["config_digest"] = job_digest(job)
    record["check_invariants"] = job.check_invariants
    if job.app is not None:
        record["app"] = job.app
    skipped = ("kind", "kernel_stats", *_DIGESTED)
    record["results"] = {
        key: item for key, item in payload.items() if key not in skipped
    }
    if value is not None:
        record["results"]["normalized"] = value
    for section in _DIGESTED:
        if section in payload:
            record[f"{section}_digest"] = runlog.digest_of(payload[section])


def _command_job(args: argparse.Namespace, out, record=None) -> int:
    """``run``, ``app``, ``serve`` and ``explain``: build the job, run
    it, record it and print it."""
    job = _job(args)
    value = tracer = None
    if job.kind == "service":
        if getattr(args, "trace_out", None):
            from repro.obs import TraceConfig, Tracer

            tracer = Tracer(
                TraceConfig(tracks=frozenset({"service", "swq", "spans"}))
            )
        run = run_job(job, tracer)
    else:
        value, run = normalized(job)
    _record_job(record, job, run.payload, value)
    _PRINTERS[job.kind](args, run, value, out)
    if tracer is None:
        return 0
    from repro.obs import PID_SERVICE
    from repro.obs.spans import emit_exemplar_trace

    trees = emit_exemplar_trace(tracer, run.payload["exemplars"], PID_SERVICE)
    return _write_trace(
        tracer, args.trace_out, out, record,
        f"{trees} exemplar span trees over {tracer.summary()['events']} events; ",
    )


def _write_trace(tracer, path: str, out, record, detail: str = "") -> int:
    """Write ``tracer``'s trace to ``path``, record its digest and
    validate it: 1 when the trace breaks the schema, else 0."""
    from repro.obs.validate import validate_trace

    tracer.write(path)
    trace = tracer.to_dict()
    if record is not None:
        record["trace_digest"] = runlog.digest_of(trace)
    print(f"trace written : {path}  ({detail}open at https://ui.perfetto.dev)",
          file=out)
    errors = validate_trace(trace)
    if errors:
        print(f"INVALID trace : {len(errors)} schema error(s); "
              f"first: {errors[0]}", file=out)
        return 1
    return 0


def _print_microbench(args: argparse.Namespace, run, value, out) -> None:
    job, payload, report = run.job, run.payload, run.report
    spec = job.spec
    print(f"configuration : {job.config.describe()}", file=out)
    print(f"work-count    : {spec.work_count}  (MLP {spec.reads_per_batch}, "
          f"{spec.writes_per_batch} writes/iter)", file=out)
    print(f"work IPC      : {payload['work_ipc']:.4f}", file=out)
    print(f"normalized    : {value:.4f}  (vs 1-thread DRAM baseline)", file=out)
    print(f"accesses      : {payload['accesses']} in "
          f"{units.to_us(payload['ticks']):.0f} us", file=out)
    print(f"LFB peak      : {max(report['lfb_max_per_core'])} / "
          f"{job.config.cpu.lfb_entries}", file=out)
    print(f"chip-q peak   : {report['uncore_pcie_max']} / "
          f"{job.config.uncore.pcie_queue_entries}", file=out)
    # The link counts wire bytes from time zero, so divide by the
    # whole run, warmup included.
    run_ticks = job.window.warmup_ticks + payload["ticks"]
    up = report["pcie_up_wire_bytes"] / units.to_seconds(run_ticks) / units.GB
    print(f"PCIe upstream : {up:.2f} GB/s on the wire (whole run)", file=out)
    if args.metrics:
        _write_json(payload["metrics"], args.metrics)
        print(f"metrics       : {len(payload['metrics'])} probes written to "
              f"{args.metrics}", file=out)


def _print_application(args: argparse.Namespace, run, value, out) -> None:
    operations, ticks = run.payload["operations"], run.payload["ticks"]
    print(f"application   : {run.job.app}", file=out)
    print(f"configuration : {run.job.config.describe()}", file=out)
    print(f"operations    : {operations}", file=out)
    print(f"ns / operation: {units.to_ns(ticks / operations):.1f}", file=out)
    print(f"normalized    : {value:.4f}  (vs 1-thread DRAM baseline)", file=out)


def _us(ns: float) -> float:
    """Nanoseconds (a payload's ``*_ns`` value) in microseconds."""
    return ns / units.US * units.NS


def _print_service(args: argparse.Namespace, run, value, out) -> None:
    """``serve``'s SLO summary, or ``explain``'s attribution when the
    job ran with spans."""
    result = run.payload
    print(f"configuration : {run.job.config.describe()}", file=out)
    print(f"load          : {args.arrivals} arrivals, "
          f"{result['offered_per_core_us']:g} req/us/core offered, "
          f"zipf theta {args.theta:g}", file=out)
    if run.job.service.spans:
        _print_attribution(args, result, out)
        return
    print(f"achieved      : {result['achieved_per_us']:.3f} req/us total "
          f"({result['completions']} completions, "
          f"{result['arrivals']} arrivals in window)", file=out)
    print(f"sojourn p50   : {_us(result['p50_ns']):.2f} us", file=out)
    print(f"sojourn p99   : {_us(result['p99_ns']):.2f} us", file=out)
    print(f"sojourn p999  : {_us(result['p999_ns']):.2f} us", file=out)
    print(f"sojourn mean  : {_us(result['mean_ns']):.2f} us, "
          f"jitter {_us(result['jitter_ns']):.2f} us, "
          f"max {_us(result['max_ns']):.2f} us", file=out)
    print(f"queue wait p99: {_us(result['wait_p99_ns']):.2f} us", file=out)
    print(f"host queue    : {result['queue_depth_mean']:.2f} mean / "
          f"{result['queue_depth_max']:.0f} max requests waiting", file=out)


def _print_attribution(args: argparse.Namespace, result: dict, out) -> None:
    from repro.obs.spans import SEGMENTS

    attribution, exemplars = result["attribution"], result["exemplars"]
    conservation = attribution["conservation"]
    print(f"requests      : {attribution['requests']} completed in the "
          f"measurement window ({conservation['in_flight']} still in "
          f"flight at end)", file=out)
    sojourn = attribution["sojourn"]
    print(f"sojourn       : p99 {_us(sojourn['p99_ns']):.2f} us, "
          f"mean {_us(sojourn['mean_ns']):.2f} us", file=out)
    print("", file=out)
    print("layer attribution (measurement window):", file=out)
    print(f"  {'segment':<8} {'mean/req':>10} {'p99':>10} "
          f"{'total':>11} {'share':>7}", file=out)
    for name in SEGMENTS:
        row = attribution["segments"][name]
        print(f"  {name:<8} {_us(row['mean_ns']):>7.2f} us "
              f"{_us(row['p99_ns']):>7.2f} us {_us(row['total_ns']):>8.1f} us "
              f"{row['share']:>6.1%}", file=out)
    for core, rows in attribution["per_core"].items():
        shares = "  ".join(
            f"{name} {rows[name]['share']:.1%}" for name in SEGMENTS
        )
        print(f"  {core:<8} {shares}", file=out)
    print(f"conservation  : segment sums equal measured sojourn on all "
          f"{conservation['checked']}/{conservation['closed']} closed "
          f"requests ({conservation['segments_ticks']} == "
          f"{conservation['sojourn_ticks']} ticks aggregate)", file=out)
    print("", file=out)
    print(f"tail exemplars ({len(exemplars['slowest'])} slowest):", file=out)
    for rank, tree in enumerate(exemplars["slowest"], start=1):
        totals = dict.fromkeys(SEGMENTS, 0)
        for name, begin, end in tree["segments"]:
            totals[name] += end - begin
        breakdown = " + ".join(
            f"{name} {units.to_us(ticks):.2f}" for name, ticks in totals.items()
        )
        print(f"  #{rank} seq={tree['seq']} core{tree['core']} "
              f"key={tree['key']}: {units.to_us(tree['sojourn_ticks']):.2f} us"
              f" = {breakdown}", file=out)
    stratified = ", ".join(
        f"{label} seq={tree['seq']} {units.to_us(tree['sojourn_ticks']):.2f} us"
        for label, tree in exemplars["stratified"].items()
    )
    print(f"stratified    : {stratified}", file=out)
    if args.exemplars_out:
        _write_json(exemplars, args.exemplars_out)
        print(f"exemplars     : written to {args.exemplars_out}", file=out)


#: The printer of each job kind.
_PRINTERS = {"microbench": _print_microbench, "application": _print_application,
             "service": _print_service}


def _write_json(payload, path: str) -> None:
    import json

    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _command_trace(args: argparse.Namespace, out, record=None) -> int:
    from repro.obs import TraceConfig, Tracer

    tracer = Tracer(TraceConfig.from_track_list(
        args.tracks, sample_every=args.sample, max_events=args.max_events
    ))
    job = _job(args)
    run = run_job(job, tracer)
    summary = tracer.summary()
    _record_job(record, job, run.payload)
    if record is not None:
        record["scenario"] = args.figure
        record["results"].update(events=summary["events"], dropped=summary["dropped"])
    window = job.window
    print(f"scenario      : {args.figure} -- {job.label}", file=out)
    print(f"configuration : {job.config.describe()}", file=out)
    print(f"window        : {window.warmup_us:g} us warmup + "
          f"{window.measure_us:g} us measured", file=out)
    print(f"work IPC      : {run.payload['work_ipc']:.4f}", file=out)
    print(f"events        : {summary['events']} recorded, "
          f"{summary['dropped']} dropped", file=out)
    for track, count in summary["tracks"].items():
        print(f"  {track:<7}     : {count}", file=out)
    return _write_trace(tracer, args.out, out, record)


# -- grid commands ------------------------------------------------------------


def _engine_from_args(args: argparse.Namespace) -> SweepEngine:
    """The sweep engine: given flags win, the environment
    (:meth:`SweepEngine.from_env`) supplies the rest."""
    progress = None
    if args.progress:
        from repro.harness.progress import SweepProgress

        progress = SweepProgress()
    engine = SweepEngine.from_env(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=False if args.no_cache else None,
        check_invariants=args.check_invariants,
        progress=progress,
        queue_dir=args.queue,
        timeout_s=args.timeout_s,
        retries=args.retries,
    )
    if args.resume and engine.queue_dir is None:
        engine.queue_dir = ".repro_queue"
    return engine


def _command_figure(args: argparse.Namespace, out, record=None) -> int:
    engine = _engine_from_args(args)
    started = time.perf_counter()
    try:
        figure = ALL_FIGURES[args.name](args.scale, engine=engine)
    except KeyboardInterrupt:
        return _note_interrupt(args, engine, out, record)
    except SimulationError:
        if not engine.last_stats.get("failed"):
            raise
        return _note_failed_jobs(engine, out, record)
    wall = time.perf_counter() - started
    _record_figure_result(record, args, figure, engine)
    print(render_table(figure), file=out)
    if args.name == "figA_slo":
        _print_queue_rule(figure, out, record)
    if args.chart:
        print(render_chart(figure), file=out)
    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(to_csv(figure))
        print(f"series written to {args.csv}", file=out)
    if args.stats:
        _print_engine_stats(engine, wall, out)
    return 0


def _record_figure_result(record, args, figure, engine) -> None:
    """Stash a figure run's deterministic outputs in its ledger entry."""
    if record is None:
        return
    from repro.harness.regression import figure_to_dict

    payload = figure_to_dict(figure)
    record["figure"] = {
        "name": args.name,
        "scale": args.scale,
        "payload": payload,
        "series_digests": {
            label: runlog.digest_of(points)
            for label, points in payload["series"].items()
        },
    }
    # A figure is a grid, not one job: its identity is its name and scale.
    record["config_digest"] = runlog.digest_of(
        {"figure": args.name, "scale": args.scale}
    )
    record["check_invariants"] = args.check_invariants
    record["sweep"] = dict(engine.last_stats)


def _print_queue_rule(figure, out, record) -> None:
    """For figA_slo: report whether the section V-B sizing rule held."""
    from repro.harness.figures import queue_rule_report

    report = queue_rule_report(figure)
    if record is not None:
        record["queue_rule"] = report
    verdict = "HOLDS" if report["holds"] else "VIOLATED"
    print(f"queue rule    : {report['rule']} -- {verdict}", file=out)
    for cores in sorted(report["per_cores"]):
        entry = report["per_cores"][cores]
        print(f"  {cores} core(s) @ {entry['offered_per_core_us']:g}/us: "
              f"p99 rule-sized {entry['rule-sized']:.1f} us vs "
              f"under-rule {entry['under-rule']:.1f} us", file=out)


def _print_engine_stats(engine: SweepEngine, wall: float, out) -> None:
    """``figure --stats``: how the sweep engine ran the grid."""
    stats = engine.last_stats
    per_job = engine.probes.latency("sweep-job-wall-ns")
    cache_note = str(engine.cache.root) if engine.cache else "disabled"
    print(f"workers       : {engine.jobs}", file=out)
    print(f"jobs          : {stats['jobs']} submitted, "
          f"{stats['unique']} unique", file=out)
    print(f"cache         : {stats['cache_hits']} hits, "
          f"{stats['cache_misses']} misses ({cache_note})", file=out)
    print(f"simulated     : {stats['simulated']} jobs "
          f"({stats['retries']} retries, {stats['fallbacks']} fallbacks)",
          file=out)
    queue_info = stats.get("queue") or {}
    if queue_info.get("dir"):
        counts = queue_info.get("counts") or {}
        print(f"queue         : {queue_info['dir']} "
              f"({stats.get('queue_served', 0)} jobs served from queue "
              f"records, {counts.get('done', 0)} done, "
              f"{counts.get('failed', 0)} failed)", file=out)
        print(f"manifest      : spec {str(queue_info.get('spec_digest'))[:12]} "
              f"-- inspect with `repro runs show -1`", file=out)
    if per_job.count:
        print(f"per-job wall  : {per_job.mean / units.NS_PER_S:.3f} s mean, "
              f"{(per_job.maximum or 0) / units.NS_PER_S:.3f} s max", file=out)
    print(f"total wall    : {wall:.2f} s", file=out)


def _note_interrupt(args: argparse.Namespace, engine: SweepEngine, out,
                    record) -> int:
    """A sweep took SIGINT: report what survived and how to resume.

    Returns 130 (the conventional fatal-SIGINT status), which ``main``
    records in the ledger like any other outcome.
    """
    stats = dict(engine.last_stats)
    if record is not None:
        record["sweep"] = stats
    print("interrupted", file=out)
    queue_info = stats.get("queue") or {}
    if queue_info.get("dir"):
        counts = queue_info.get("counts") or {}
        unresolved = counts.get("pending", 0) + counts.get("leased", 0)
        print(f"queue         : {queue_info['dir']} "
              f"({counts.get('done', 0)} done, {unresolved} unresolved, "
              f"{counts.get('failed', 0)} failed)", file=out)
        # The engine's observation options enter every job's digest:
        # a hint without them would resume into a different queue.
        resume = (f"repro {args.command} {args.name} --scale {args.scale}"
                  f" --queue {shlex.quote(str(engine.queue_dir))}")
        if engine.collect_metrics:
            resume = "REPRO_SWEEP_METRICS=1 " + resume
        if engine.check_invariants:
            resume += " --check-invariants"
        if engine.jobs != 1:
            resume += f" --jobs {engine.jobs}"
        print(f"resume with   : {resume}", file=out)
    else:
        print("no --queue given: completed jobs survive only in the "
              "result cache; rerun with --queue DIR (or --resume) for "
              "a durable, shareable work queue", file=out)
    return 130


def _note_failed_jobs(engine: SweepEngine, out, record) -> int:
    """Deterministically failing jobs: structured per-job report."""
    stats = dict(engine.last_stats)
    if record is not None:
        record["sweep"] = stats
    failures = stats.get("failures") or {}
    print(f"FAILED        : {stats.get('failed', len(failures))} job(s) "
          f"failed after retries and the in-process fallback; "
          f"completed results were preserved", file=out)
    for key, error in sorted(failures.items()):
        print(f"  {key[:12]}  {error}", file=out)
    queue_info = stats.get("queue") or {}
    if queue_info.get("dir"):
        print(f"queue         : {queue_info['dir']} (failure records in "
              f"failed/)", file=out)
    return 1


def _command_profile(args: argparse.Namespace, out, record=None) -> int:
    import cProfile
    import pstats
    from functools import partial

    from repro.sim import collect_kernel_stats

    if args.target == "microbench":
        job = _job(args)
        label = f"microbench: {job.config.describe()}"
        workload = partial(run_job, job)
    else:
        # jobs=1 + no cache keeps every simulation in this process, where
        # the profiler and the stats collector can see it.
        engine = SweepEngine(
            jobs=1, use_cache=False, check_invariants=args.check_invariants
        )
        label = f"{args.target} --scale {args.scale}"
        workload = partial(ALL_FIGURES[args.target], args.scale, engine=engine)
    if record is not None:
        record["profiled"] = label
        record["check_invariants"] = args.check_invariants

    profiler = cProfile.Profile()
    with collect_kernel_stats() as kernel:
        started = time.perf_counter()
        profiler.enable()
        result = workload()
        profiler.disable()
        wall = time.perf_counter() - started
    if args.target == "microbench":
        _record_job(record, job, result.payload)

    stats = kernel.stats()
    events_per_sec = stats["events_fired"] / wall if wall > 0 else 0.0
    print(f"profiled      : {label}", file=out)
    print(f"simulators    : {stats['simulators']}", file=out)
    print(f"wall time     : {wall:.3f} s", file=out)
    print(f"events fired  : {stats['events_fired']}", file=out)
    print(f"heap ops      : {stats['heap_pushes']} pushes, "
          f"{stats['heap_pops']} pops", file=out)
    print(f"runq bypasses : {stats['runq_bypasses']} "
          f"(bypass ratio {kernel.bypass_ratio:.3f})", file=out)
    print(f"resumes       : {stats['process_resumes']} "
          f"({stats['processes_spawned']} processes spawned)", file=out)
    print(f"events/sec    : {events_per_sec:,.0f}", file=out)
    print(file=out)
    pstats.Stats(profiler, stream=out).strip_dirs().sort_stats(
        args.sort
    ).print_stats(args.top)
    return 0


# -- other commands -----------------------------------------------------------


def _command_sweep_worker(args: argparse.Namespace, out, record=None) -> int:
    from repro.harness import coordinator

    cache = SweepEngine.from_env(
        cache_dir=args.cache_dir,
        use_cache=False if args.no_cache else None,
    ).cache

    def on_queue(queue) -> None:
        manifest = queue.manifest()
        print(f"queue         : {queue.root} ({manifest.get('name')}, "
              f"spec {str(manifest.get('spec_digest'))[:12]})", file=out)

    try:
        totals = coordinator.drain_queue_tree(
            args.queue,
            args.worker,
            cache=cache,
            lease_s=args.lease_s,
            max_jobs=args.max_jobs,
            poll_s=args.poll_s,
            watch=args.watch,
            on_queue=on_queue,
        )
    except KeyboardInterrupt:
        print("interrupted: in-flight leases were released (or will "
              "expire); resolved jobs stay in the queue", file=out)
        return 130
    if record is not None:
        record["worker"] = {"queue_root": str(args.queue), **totals}
    print(f"queues        : {totals['queues']} drained under {args.queue}",
          file=out)
    print(f"claims        : {totals['claims']} ({totals['done']} done, "
          f"{totals['failed']} failed, {totals['cache_hits']} cache hits)",
          file=out)
    return 0


def _command_runs(args: argparse.Namespace, out, record=None) -> int:
    import json

    ledger = runlog.RunLedger()
    if args.runs_command == "list":
        entries = ledger.entries()
        if not entries:
            print(f"no runs recorded in {ledger.path}", file=out)
            return 0
        start = max(0, len(entries) - max(args.limit, 0))
        for index in range(start, len(entries)):
            entry = entries[index]
            stamp = time.strftime(
                "%Y-%m-%d %H:%M:%S",
                time.localtime(entry.get("timestamp", 0)),
            )
            argv = " ".join(str(arg) for arg in entry.get("argv", []))
            print(f"{index:>4}  {entry.get('run_id', '?'):<12}  {stamp}  "
                  f"status={entry.get('status')}  "
                  f"{entry.get('wall_s', 0.0):7.2f}s  repro {argv}", file=out)
        return 0
    if args.runs_command == "show":
        from repro.errors import ConfigError

        entry = ledger.resolve(args.ref)
        json.dump(entry, out, indent=2, sort_keys=True)
        out.write("\n")
        root = ((entry.get("sweep") or {}).get("queue") or {}).get("dir")
        if root:
            from repro.harness.coordinator import WorkQueue

            try:
                manifest = WorkQueue.attach(root).manifest()
            except (ConfigError, OSError):
                print(f"experiment manifest at {root} is gone or "
                      f"unreadable", file=out)
            else:
                print(f"experiment manifest ({root}):", file=out)
                json.dump(manifest, out, indent=2, sort_keys=True)
                out.write("\n")
        return 0
    base = ledger.resolve(args.a)
    current = ledger.resolve(args.b)
    return _diff_runs(base, current, args.rtol, args.atol, out)


def _diff_runs(base: dict, current: dict, rtol: float, atol: float,
               out) -> int:
    """Diff the deterministic sections of two ledger entries.

    Wall time, timestamps and cache-hit counts legitimately differ
    between identical runs, so the comparison covers only what must
    reproduce: figure series (with tolerance), kernel event counts,
    result numbers, and the config, metrics, exemplars and trace
    digests.
    """
    from repro.errors import ConfigError
    from repro.harness.regression import (
        compare_mappings,
        compare_to_baseline,
        figure_from_dict,
    )

    for role, entry in (("base", base), ("current", current)):
        argv = " ".join(str(arg) for arg in entry.get("argv", []))
        print(f"{role:<7} : {entry.get('run_id', '?')}  repro {argv}",
              file=out)
    notes: list[str] = []
    digests = tuple(f"{section}_digest" for section in _DIGESTED)
    for key in ("command", "model_version", "git_sha", "config_digest",
                *digests, "trace_digest", "status"):
        if base.get(key) != current.get(key):
            notes.append(f"{key}: {base.get(key)!r} -> {current.get(key)!r}")
    deviations = []
    base_fig = (base.get("figure") or {}).get("payload")
    current_fig = (current.get("figure") or {}).get("payload")
    if base_fig and current_fig:
        try:
            deviations += compare_to_baseline(
                figure_from_dict(current_fig), figure_from_dict(base_fig),
                rtol=rtol, atol=atol,
            )
        except ConfigError as error:
            notes.append(str(error))
    elif bool(base_fig) != bool(current_fig):
        notes.append("figure series recorded in only one of the runs")
    deviations += compare_mappings(
        current.get("kernel_stats") or {}, base.get("kernel_stats") or {},
        rtol=rtol, atol=atol, label="kernel_stats",
    )
    deviations += compare_mappings(
        (current.get("sweep") or {}).get("kernel_stats") or {},
        (base.get("sweep") or {}).get("kernel_stats") or {},
        rtol=rtol, atol=atol, label="sweep.kernel_stats",
    )
    deviations += compare_mappings(
        current.get("results") or {}, base.get("results") or {},
        rtol=rtol, atol=atol, label="results",
    )
    for note in notes:
        print(f"  {note}", file=out)
    for deviation in deviations:
        print(f"  {deviation.describe()}", file=out)
    total = len(notes) + len(deviations)
    if total:
        print(f"{total} deviation(s)", file=out)
        return 1
    print("runs match: no deviations", file=out)
    return 0


def _command_lint(args: argparse.Namespace, out, record=None) -> int:
    from repro.analysis import run_from_args

    return run_from_args(args, out)


def _command_list(args: argparse.Namespace, out, record=None) -> int:
    print("figures:", file=out)
    for name in sorted(ALL_FIGURES):
        print(f"  {name}", file=out)
    print("applications:", file=out)
    for name in sorted(APPLICATIONS):
        print(f"  {name}", file=out)
    return 0


def _command_table1(args: argparse.Namespace, out, record=None) -> int:
    from repro.taxonomy import render_table_i

    print(render_table_i(), file=out)
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    if out is None:
        out = sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if not (args.recorded and runlog.RunLedger.enabled()):
            return args.handler(args, out, None)
        from repro.sim import collect_kernel_stats

        record = {
            "command": args.command,
            "argv": (list(argv) if argv is not None
                     else list(sys.argv[1:])),
            "model_version": MODEL_VERSION,
            "git_sha": runlog.git_sha(),
        }
        started = time.perf_counter()
        try:
            with collect_kernel_stats() as kernel:
                status = args.handler(args, out, record)
        except Exception as error:
            # Failed runs are part of the provenance story too; record
            # the failure, then let the error propagate unchanged.
            record["status"] = "error"
            record["error"] = f"{type(error).__name__}: {error}"
            record["wall_s"] = round(time.perf_counter() - started, 6)
            runlog.link_manifests(runlog.RunLedger().record(record))
            raise
        record["status"] = status
        record["wall_s"] = round(time.perf_counter() - started, 6)
        record["kernel_stats"] = kernel.stats()
        runlog.link_manifests(runlog.RunLedger().record(record))
        return status
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly, like a
        # well-behaved Unix tool.
        return 0
