"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload testbed|san|sweep|all \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics of the workload with tracing
off.  ``--trace 1`` makes the traced run instead: an untraced, a traced and
another untraced round of every workload, reporting every per-layer metric
and the tracing overhead (traced minus untraced round time); its spans are
written to ``.perfbench_spans.json`` at the repository root.
``--workload all`` runs the three measured workloads one after another,
each in its own process.  ``--record-reference`` rewrites ``reference.json`` from the
reference seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
program's source tree beside this directory the command exits with an
error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
REFERENCE_PATH = os.path.join(ROOT, "perfbench", "reference.json")
SPANS_PATH = os.path.join(ROOT, ".perfbench_spans.json")

WORKLOADS = ("testbed", "san", "sweep")
#: Fresh-process set-ups per measured run (``setup_s`` is their median):
#: at least the minimum, and more up to the maximum while within the budget.
SETUP_PROBES = (5, 7)
SETUP_BUDGET_S = 10.0
#: Calibration chunks timed before and after each set-up probe.
SETUP_CHUNKS = 10
#: Environment variables that would change what the benchmark measures.
PINNED_ENVIRONMENT = ("REPRO_SAN_STRATEGY", "REPRO_SAN_BATCH_SIZE", "REPRO_EXPERIMENT_SCALE")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "warm_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _import_program() -> float:
    """Import ``repro`` from this checkout and discover its experiments.

    Returns the seconds spent; exits with an error if the source is absent.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program source under {SRC}")
    # The script's own directory would shadow top-level modules; import the
    # benchmark as the ``perfbench`` package instead.
    sys.path[:] = [SRC, ROOT] + [p for p in sys.path[1:] if p not in (SRC, ROOT)]
    started = time.perf_counter()
    from repro.experiments import registry

    registry.discover()
    return time.perf_counter() - started


def _make_workload(name: str, seed: int, tally: Any, workdir: str) -> Any:
    if name == "testbed":
        from perfbench.testbed import TestbedWorkload

        return TestbedWorkload(seed, tally)
    if name == "san":
        from perfbench.san import SanWorkload

        return SanWorkload(seed, tally)
    from perfbench.sweep import SweepWorkload

    return SweepWorkload(seed, tally, workdir)


def _check_reference(workload: Any, seed: int, tally: Any) -> None:
    from perfbench.common import REFERENCE_SEED, digest

    if seed != REFERENCE_SEED:
        return
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        expected = json.load(handle)["digests"].get(workload.name)
    tally.check(
        digest(workload.records) == expected,
        f"{workload.name}: output digest differs from reference.json",
    )


def _policy_line(workload: Any) -> str:
    from repro.san import execution

    line = (
        f"python {platform.python_version()}  nproc {os.cpu_count()}  "
        f"san strategy {execution.resolve_strategy()}  "
        f"batch size {execution.resolve_batch_size()}"
    )
    sizes = getattr(workload, "batch_sizes", None)
    if sizes:
        line += " (" + " ".join(f"{key}={size}" for key, size in sizes.items()) + ")"
    return line


def _setup_seconds(workload: str, seed: int) -> List[float]:
    """Calibrated time from the start of fresh processes until they are ready.

    Each probe imports, discovers and warms up, then prints its
    ``time.monotonic()`` (a system-wide clock on Linux), so interpreter
    shutdown is not counted.  Each probe's time is divided by the slowdown
    of calibration chunks timed just before and after it (see
    :class:`perfbench.common.Round`).
    """
    from perfbench.common import CALIBRATION_REFERENCE_S, calibration_chunk

    command = [
        sys.executable, os.path.abspath(__file__),
        "--setup-probe", "--workload", workload, "--seed", str(seed),
    ]
    times: List[float] = []
    started_all = time.perf_counter()
    least, most = SETUP_PROBES
    while len(times) < least or (
        len(times) < most and time.perf_counter() - started_all < SETUP_BUDGET_S
    ):
        chunks = [calibration_chunk() for _ in range(SETUP_CHUNKS)]
        started = time.monotonic()
        ready = subprocess.run(
            command, check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120
        ).stdout.split()[-1]
        wall = float(ready) - started
        chunks += [calibration_chunk() for _ in range(SETUP_CHUNKS)]
        times.append(wall * CALIBRATION_REFERENCE_S / statistics.mean(chunks))
    return times


def _result_line(correct: bool, tally: Any, metrics: Dict[str, Any]) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        }
    )


def _measured(args: argparse.Namespace, workdir: str) -> None:
    from perfbench.common import Tally, median_rate, metric, timed_rounds
    from perfbench.spans import NO_TRACE

    setup_times = _setup_seconds(args.workload, args.seed)
    tally = Tally()
    workload = _make_workload(args.workload, args.seed, tally, workdir)
    workload.setup(NO_TRACE)
    rounds = timed_rounds(lambda: workload.run_round(NO_TRACE), args.seconds)
    workload.final_checks()
    _check_reference(workload, args.seed, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = statistics.median(setup_times)
    if workload.COLD_LEG_IS_SETUP:
        setup_s += statistics.median(r.legs["cold"][1] / r.slowdown("cold") for r in rounds)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(median_rate(rounds, "cold"), "1/s"),
        "warm_ops_per_s": metric(median_rate(rounds, "warm"), "1/s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    print(_policy_line(workload))
    print(f"  {'setup_s':<16}{setup_s:>12.4f} s      "
          f"median of {len(setup_times)} fresh-process set-ups"
          + (", plus the median cold pass" if workload.COLD_LEG_IS_SETUP else ""))
    for name in ("ops_per_s", "warm_ops_per_s"):
        leg = "cold" if name == "ops_per_s" else "warm"
        ops = sum(r.legs[leg][0] for r in rounds)
        print(f"  {name:<16}{metrics[name]['value']:>12.2f} 1/s    "
              f"median of {len(rounds)} rounds, {ops:g} operations, "
              f"{median_rate(rounds, leg, calibrated=False):.2f} 1/s uncalibrated")
    print(f"  {'slowdown':<16}{statistics.median(r.slowdown('cold') for r in rounds):>12.3f}"
          "        median cold-leg calibration chunk time over its reference")
    print(f"  {'failed_share':<16}{tally.failed_share:>12.4f} share  "
          f"{tally.failed} of {tally.attempted} operations")
    print(f"  {'peak_rss_mb':<16}{peak_rss_mb:>12.1f} MB")
    print(_result_line(not tally.problems, tally, metrics))


def _busy_seconds(round_: Any) -> float:
    """A round's operation time over both legs, calibrated."""
    return sum(
        seconds / round_.slowdown(leg) for leg, (_ops, seconds) in round_.legs.items()
    )


def _traced(args: argparse.Namespace, workdir: str, import_s: float) -> None:
    from perfbench.common import Tally, metric
    from perfbench.spans import NO_TRACE, Tracer

    tally = Tally()
    metrics: Dict[str, Any] = {"setup.import_s": metric(import_s, "s")}
    spans: Dict[str, Any] = {}
    for name in WORKLOADS:
        tracer = Tracer()
        workload = _make_workload(name, args.seed, tally, workdir)
        workload.setup(tracer)
        # Untraced, traced, untraced: the overhead is the traced round's
        # calibrated operation time minus the mean of the untraced ones.
        untraced = [_busy_seconds(workload.run_round(NO_TRACE))]
        traced = _busy_seconds(workload.run_round(tracer))
        untraced.append(_busy_seconds(workload.run_round(NO_TRACE)))
        workload.final_checks()
        _check_reference(workload, args.seed, tally)
        metrics.update(workload.per_layer(tracer))
        metrics[f"bench.trace_overhead_s.{name}"] = metric(
            traced - statistics.mean(untraced), "s"
        )
        spans[name] = tracer.to_json()
        print(_policy_line(workload))
    for name, value in metrics.items():
        print(f"  {name:<44}{value['value']:>16.6g} {value['unit']}")
    print(f"  {'failed_share':<44}{tally.failed_share:>16.6g} share")
    with open(SPANS_PATH, "w", encoding="utf-8") as handle:
        json.dump(spans, handle)
    print(_result_line(not tally.problems, tally, metrics))


def _all(args: argparse.Namespace) -> None:
    """Run every workload in its own process and merge the results."""
    merged: Dict[str, Any] = {}
    correct, attempted, failed = True, 0, 0
    for name in WORKLOADS:
        print(f"==== {name} ====", flush=True)
        output = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ).stdout.splitlines()
        print("\n".join(output[:-1]), flush=True)
        result = json.loads(output[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    print(json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}
    ))


def _record_reference(workdir: str) -> None:
    from perfbench.common import REFERENCE_SEED, Tally, digest
    from perfbench.spans import NO_TRACE

    digests = {}
    for name in WORKLOADS:
        tally = Tally()
        workload = _make_workload(name, REFERENCE_SEED, tally, workdir)
        workload.setup(NO_TRACE)
        workload.run_round(NO_TRACE)
        if tally.failed or tally.problems:
            raise SystemExit(f"perfbench: {name} failed at the reference seed")
        digests[name] = digest(workload.records)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump({"seed": REFERENCE_SEED, "digests": digests}, handle, indent=2)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH}")


def main(argv: List[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for variable in PINNED_ENVIRONMENT:
        os.environ.pop(variable, None)
    import_s = _import_program()
    if args.workload == "all" and not (args.trace or args.record_reference):
        _all(args)
        return
    os.makedirs(WORKDIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    try:
        if args.setup_probe:
            from perfbench.common import Tally
            from perfbench.spans import NO_TRACE

            workload = _make_workload(args.workload, args.seed, Tally(), workdir)
            if not workload.COLD_LEG_IS_SETUP:
                workload.setup(NO_TRACE)
            print(time.monotonic())
        elif args.record_reference:
            _record_reference(workdir)
        elif args.trace:
            print(f"perfbench traced run, seed {args.seed}")
            _traced(args, workdir, import_s)
        else:
            print(f"perfbench workload {args.workload}, seed {args.seed}, "
                  f"{args.seconds:g} s")
            _measured(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass


if __name__ == "__main__":
    main(sys.argv[1:])
