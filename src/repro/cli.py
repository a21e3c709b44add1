"""Command-line interface: regenerate any of the paper's tables and figures.

Usage::

    python -m repro EXPERIMENT [options]
    python -m repro all [options]
    python -m repro --list

Subcommands are **discovered from the experiment registry**
(:mod:`repro.experiments.registry`) -- adding a new experiment module that
registers an :class:`~repro.experiments.registry.ExperimentSpec` makes it
appear here automatically; ``--list`` shows what is available and ``all``
iterates the whole registry in name order.

Options:

* ``--scale smoke|quick|full`` selects the experiment scale (default:
  ``REPRO_EXPERIMENT_SCALE`` or ``quick``).
* ``--jobs N`` fans the independent points of each sweep out over N worker
  processes through :mod:`repro.experiments.runner` (``--jobs 0`` uses one
  worker per CPU); the output is bit-for-bit identical to a serial run.
* ``--cache-dir DIR`` memoises per-point results on disk so that
  re-rendering a figure (or resuming after an interrupt) only recomputes
  missing points.
* ``--batch-size N|auto`` sets the lock-step batch size of the SAN solver
  for every simulative point (any SAN-backed subcommand) by activating
  the process execution policy (:mod:`repro.san.execution`); it is a
  pure throughput knob -- results are bit-identical -- so it shares
  cached results with any other run.
* ``--format text|json|csv`` chooses the stdout rendering: the
  paper-faithful text (default), the schema-valid JSON artifact envelope
  (run manifest included), or the experiment's tabular series as CSV.
* ``--output DIR`` additionally writes every artifact --
  ``report.txt``, ``result.json``, ``result.csv`` (for tabular
  experiments) and ``manifest.json`` -- under ``DIR/<experiment>/``.

The textual output mirrors the corresponding table or figure of the paper;
the same generators back the benchmark suite in ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.experiments import registry
from repro.experiments.artifacts import (
    dump_json,
    render_csv,
    write_experiment_artifacts,
)
from repro.experiments.settings import SCALE_PRESETS


def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, with choices discovered from the registry."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of the DSN 2002 paper.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=registry.names() + ["all"],
        help="which table/figure to regenerate ('all' runs every registered experiment)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_experiments",
        help="list the registered experiments and exit",
    )
    parser.add_argument(
        "--scale",
        choices=list(SCALE_PRESETS),
        default=None,
        help="experiment scale (default: REPRO_EXPERIMENT_SCALE or 'quick')",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the base seed")
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes per sweep (1 = serial, 0 = one per CPU)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for on-disk memoisation of per-point results",
    )
    parser.add_argument(
        "--batch-size",
        default=None,
        metavar="N|auto",
        help=(
            "replications per lock-step SAN solver batch: a count or 'auto' "
            "to size from the compiled model (default: REPRO_SAN_BATCH_SIZE "
            "or 'auto'); never changes results"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        dest="output_format",
        help="stdout rendering: paper-faithful text, JSON artifact, or CSV series",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="DIR",
        help="write report.txt/result.json/result.csv/manifest.json under DIR/<experiment>/",
    )
    return parser


def _print_listing() -> None:
    """Print the registered experiments, one per line."""
    specs = registry.iter_specs()
    width = max(len(spec.name) for spec in specs)
    for spec in specs:
        print(f"{spec.name:<{width}}  {spec.description}")


def _emit(
    run: "registry.ExperimentRun",
    output_format: str,
    output_dir: Optional[str],
) -> None:
    """Render one experiment run to stdout (and to disk with ``--output``)."""
    spec = run.spec
    text = run.text()
    # Build the (potentially large) structured views exactly once, and only
    # when something consumes them.
    needs_payload = output_dir is not None or output_format == "json"
    needs_table = output_dir is not None or output_format == "csv"
    payload = run.payload() if needs_payload else None
    table = run.table() if needs_table else None
    if output_dir is not None:
        write_experiment_artifacts(
            output_dir,
            spec.name,
            text=text,
            payload=payload,
            manifest=run.manifest,
            table=table,
        )
    if output_format == "text":
        print(f"==== {spec.name} ====")
        print(text)
        print(f"[{spec.name} regenerated in {run.manifest.wall_clock_seconds:.1f} s]")
        print()
    elif output_format == "json":
        print(dump_json(payload))
    else:
        if table is None:
            print(f"# {spec.name}: no tabular series; use --format json", file=sys.stderr)
        else:
            print(render_csv(table), end="")


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro`` (and the ``repro`` console script)."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_experiments:
        _print_listing()
        return 0
    if args.experiment is None:
        parser.error("an experiment name (or 'all', or --list) is required")

    options = registry.ExperimentOptions(
        scale=args.scale,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        batch_size=args.batch_size,
    )
    try:
        options.validate()
        settings = options.resolve_settings()
    except ValueError as error:
        parser.error(str(error))

    names = registry.names() if args.experiment == "all" else [args.experiment]
    for name in names:
        spec = registry.get(name)
        run = registry.run_experiment(spec, options=options, settings=settings)
        _emit(run, args.output_format, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
