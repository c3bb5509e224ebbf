"""The repository's benchmark: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload svc-1sh --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` runs the same workload untraced and then traced, and
reports the per-layer metrics plus the tracing overhead (traced minus
untraced).  Every run checks the program's outputs; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``, and the exit code is 1 when a check failed.
Details (input fingerprint, outcome counts, sample counts, per-phase
timings, and on traced runs the spans) go to ``.perfbench/`` in the
checkout.  See ``perfbench/README.md``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before the imports
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

#: Units of the end-to-end metrics, in report order.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verify_s": "s",
    "sim_events_per_s": "1/s",
    "txn_p50_ms": "ms",
    "hi_prio_p50_ms": "ms",
    "peak_tps": "1/s",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sim-prefix", "svc-1sh", "svc-2proc"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _sim(args: argparse.Namespace, tracer: Any) -> Tuple[Any, Dict]:
    import sim
    from inputs import SIM_PROTOCOLS, sim_inputs

    run = sim.run_sim(sim_inputs(args.seed, args.seconds), tracer)
    passes = run.passes
    jobs = sum(p.jobs for p in passes)
    work_s = sum(
        statistics.median(r[2] for r in p.runs) * len(SIM_PROTOCOLS)
        + p.verify_s for p in passes
    )
    record = {
        "fingerprint": run.fingerprint,
        "attempted": jobs,
        "failed": jobs - sum(p.committed for p in passes),
        "problems": run.problems,
        "samples": sim.samples_report(run),
        "verify": _mean_by_key([p.verify for p in passes]),
        "work_s": work_s,
    }
    return run, record


def _mean_by_key(dicts: List[Dict[str, float]]) -> Dict[str, float]:
    """Per key, the mean over passes (oracle seconds per pass)."""
    out: Dict[str, float] = {}
    for d in dicts:
        for key, value in d.items():
            out[key] = out.get(key, 0.0) + value / len(dicts)
    return out


def _svc(args: argparse.Namespace, tracer: Any) -> Tuple[Any, Dict]:
    import service
    from inputs import WORKLOADS

    inputs = WORKLOADS[args.workload](args.seed, args.seconds)
    run = asyncio.run(service.run_service(inputs, tracer))
    total = run.total
    record = {
        "fingerprint": run.fingerprint,
        "attempted": total.attempted,
        "failed": total.failed,
        "attempts": total.attempts,
        "failed_attempts": total.failed_attempts,
        "outcomes": total.outcomes,
        "aborted_between_ops": total.aborted_between_ops,
        "errors": total.errors[:20],
        "problems": run.problems,
        "samples": service.samples_report(run, inputs.closed_clients),
        "verify": _mean_by_key([p.verify for p in run.passes]),
        "work_s": sum(p.drive_s + p.verify["verify_s"] for p in run.passes),
    }
    return run, record


def host_probe() -> Dict[str, float]:
    """Milliseconds a fixed pure-Python loop takes, fastest and median of
    20: how fast the shared host ran around a run.  Kept in the run
    record only, to tell a slow host from slow code."""
    samples = []
    for _ in range(20):
        started = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        samples.append((time.perf_counter() - started) * 1e3)
    return {"min_ms": min(samples), "median_ms": statistics.median(samples)}


def measure(args: argparse.Namespace, tracer: Any = None) -> Tuple[Any, Dict]:
    if args.workload == "sim-prefix":
        return _sim(args, tracer)
    return _svc(args, tracer)


def end_to_end(args: argparse.Namespace, run: Any) -> Dict[str, float]:
    if args.workload == "sim-prefix":
        import sim

        return sim.end_to_end(run)
    import service
    from inputs import WORKLOADS

    clients = WORKLOADS[args.workload](args.seed, args.seconds).closed_clients
    return service.end_to_end(run, clients)


def per_layer(args: argparse.Namespace, tracer: Any, run: Any,
              record: Dict[str, Any],
              overhead: Tuple[float, float]) -> Dict[str, float]:
    import layers

    if args.workload == "sim-prefix":
        runs = [r for p in run.passes for r in p.runs]
        run_ns = sum(
            s[2] - s[1] for s in tracer.spans
            if s[0] == "engine.simulator.run"
        )
        return layers.collect(
            tracer, commits=sum(r[1] for r in runs), stats_docs=(),
            verify=record["verify"], lateness=(), committed=(),
            failed_frac=record["failed"] / record["attempted"],
            aborted_between_ops=0, overhead=overhead,
            sim_run_s=run_ns / 1e9 / len(runs), busy_ns=run_ns,
        )
    total = run.total
    return layers.collect(
        tracer, commits=total.outcomes["committed"],
        stats_docs=[d for p in run.passes for d in p.stats_docs],
        verify=record["verify"],
        lateness=[x for p in run.passes for x in p.open.lateness],
        committed=[
            c for p in run.passes
            for c in zip(p.open.txn_ids, p.open.latencies, p.open.started_late)
        ],
        failed_frac=total.failed_attempts / total.attempted,
        aborted_between_ops=total.aborted_between_ops, overhead=overhead,
        sim_run_s=0.0, busy_ns=sum(p.drive_s for p in run.passes) * 1e9,
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    # Shard-host children import the program from the same tree.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    tempfile.tempdir = os.path.join(OUT, "tmp")
    stem = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )

    try:
        return _run(args, stem)
    except Exception as exc:  # noqa: BLE001 - e.g. a wedged drive phase
        print(f"perfbench: run failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1


def _run(args: argparse.Namespace, stem: str) -> int:
    probe_before = host_probe()
    if args.trace:
        import layers
        from tracer import Tracer, install_engine, install_service

        _, untraced = measure(args)
        tracer = Tracer()
        (install_engine if args.workload == "sim-prefix"
         else install_service)(tracer)
        try:
            run, record = measure(args, tracer)
        finally:
            tracer.restore()
        overhead_s = record["work_s"] - untraced["work_s"]
        metrics = per_layer(args, tracer, run, record,
                            (overhead_s, overhead_s / untraced["work_s"]))
        units = dict(layers.names())
        record["problems"] = untraced["problems"] + record["problems"]
        tracer.dump(stem + "-spans.jsonl")
    else:
        run, record = measure(args)
        metrics = end_to_end(args, run)
        metrics["wall_s"] = time.perf_counter() - _STARTED
        units = END_TO_END
        metrics = {name: metrics[name] for name in END_TO_END}

    correct = not record["problems"]
    record["host_probe"] = {"before": probe_before, "after": host_probe()}
    record.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, correct=correct,
                  metrics=metrics)
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)

    print(f"workload={args.workload} seed={args.seed} "
          f"inputs={record['fingerprint'][:16]} "
          f"attempted={record['attempted']} failed={record['failed']}")
    for label, sample in sorted(record["samples"].items()):
        print(f"  samples {label}: {sample}")
    for problem in record["problems"]:
        print(f"  CHECK FAILED: {problem}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
