"""Table 1: latency under crash scenarios (§5.3).

For every process count the paper reports the mean latency of three
scenarios: no crash, the first coordinator initially crashed (the algorithm
needs two rounds), and a participant initially crashed (one round, less
contention).  Measurements cover n = 3..11; SAN simulations cover n = 3 and
5.  The headline shapes are:

* a coordinator crash always increases the latency;
* a participant crash decreases it for n >= 5;
* for n = 3 the *measured* participant-crash latency is slightly higher than
  the crash-free one (the coordinator's unicast to the dead participant
  delays the copy sent to the live one), while the *simulated* one is lower
  because the SAN model sends the proposal as a single broadcast message.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.scenarios import Scenario
from repro.experiments.figure7 import measure_latencies
from repro.experiments.registry import ExperimentContext, ExperimentSpec, register
from repro.experiments.runner import ReplicationPlan, SweepPoint
from repro.experiments.settings import ExperimentSettings
from repro.sanmodels.parameters import SANParameters

#: The three crash scenarios of Table 1, in the paper's row order.
SCENARIOS: Tuple[Tuple[str, Scenario], ...] = (
    ("no crash", Scenario.no_failures()),
    ("coordinator crash", Scenario.coordinator_crash()),
    ("participant crash", Scenario.participant_crash(1)),
)


@dataclass
class Table1Result:
    """Mean latencies per (scenario, n), measured and simulated."""

    measured: Dict[Tuple[str, int], float] = field(default_factory=dict)
    simulated: Dict[Tuple[str, int], float] = field(default_factory=dict)
    measured_process_counts: Tuple[int, ...] = ()
    simulated_process_counts: Tuple[int, ...] = ()

    def row(self, scenario_label: str) -> List[Optional[float]]:
        """One Table 1 row: measured (and simulated where available) means."""
        cells: List[Optional[float]] = []
        for n in self.measured_process_counts:
            cells.append(self.measured.get((scenario_label, n)))
            if n in self.simulated_process_counts:
                cells.append(self.simulated.get((scenario_label, n)))
        return cells

    def measured_mean(self, scenario_label: str, n: int) -> float:
        """Measured mean latency of one cell."""
        return self.measured[(scenario_label, n)]

    def simulated_mean(self, scenario_label: str, n: int) -> float:
        """Simulated mean latency of one cell."""
        return self.simulated[(scenario_label, n)]


def _table1_measured_point(
    settings: ExperimentSettings,
    scenario: Scenario,
    n_processes: int,
    point_seed: int,
) -> float:
    """One measured Table 1 cell: the mean latency of one (scenario, n)."""
    latencies = measure_latencies(
        settings,
        n_processes=n_processes,
        scenario=scenario,
        executions=settings.executions,
        point_seed=point_seed,
    )
    return sum(latencies) / len(latencies)


def _table1_simulated_point(
    settings: ExperimentSettings,
    scenario: Scenario,
    n_processes: int,
    parameters: SANParameters,
    point_seed: int,
) -> float:
    """One simulated Table 1 cell: the SAN mean latency of one (scenario, n)."""
    from repro.core.simulation import SimulationConfig, SimulationRunner

    simulation = SimulationRunner(
        SimulationConfig(
            n_processes=n_processes,
            scenario=scenario,
            parameters=parameters,
            replications=settings.replications,
            seed=point_seed,
        )
    ).run()
    return simulation.mean_latency_ms


def table1_plan(
    settings: ExperimentSettings, parameters: SANParameters
) -> ReplicationPlan:
    """The Table 1 grid: measured and simulated cells as independent points.

    Each point's label starts with ``measured``/``simulated`` and its kwargs
    carry the scenario label, so the aggregation in :func:`run_table1` can
    route results without re-deriving the grid.
    """
    points = []
    for scenario_index, (label, scenario) in enumerate(SCENARIOS):
        for n_index, n in enumerate(settings.measured_process_counts):
            points.append(
                SweepPoint.make(
                    _table1_measured_point,
                    kwargs={"settings": settings, "scenario": scenario, "n_processes": n},
                    indices=(1, scenario_index, n_index),
                    label=f"measured {label} n={n}",
                )
            )
        for n_index, n in enumerate(settings.simulated_process_counts):
            points.append(
                SweepPoint.make(
                    _table1_simulated_point,
                    kwargs={
                        "settings": settings,
                        "scenario": scenario,
                        "n_processes": n,
                        "parameters": parameters,
                    },
                    indices=(1, scenario_index, n_index, 99),
                    label=f"simulated {label} n={n}",
                )
            )
    return ReplicationPlan(settings=settings, points=tuple(points), name="table1")


def aggregate_table1(
    settings: ExperimentSettings,
    pairs: Iterable[Tuple[SweepPoint, Any]],
) -> Table1Result:
    """Assemble the Table 1 result, routing cells by point function."""
    result = Table1Result(
        measured_process_counts=settings.measured_process_counts,
        simulated_process_counts=settings.simulated_process_counts,
    )
    label_by_scenario = {scenario: label for label, scenario in SCENARIOS}
    for point, mean in pairs:
        kwargs = dict(point.kwargs)
        cell = (label_by_scenario[kwargs["scenario"]], kwargs["n_processes"])
        if point.func is _table1_measured_point:
            result.measured[cell] = mean
        else:
            result.simulated[cell] = mean
    return result


def _default_table1_plan(settings: ExperimentSettings) -> ReplicationPlan:
    """The registry's plan: the default SAN parameters."""
    return table1_plan(settings, SANParameters())


def run_table1(
    settings: ExperimentSettings | None = None,
    parameters: Optional[SANParameters] = None,
    jobs: Optional[int] = 1,
    cache_dir: Optional[str] = None,
) -> Table1Result:
    """Regenerate Table 1 (measurements and SAN simulations)."""
    context = ExperimentContext.create(settings, jobs=jobs, cache_dir=cache_dir)
    plan = table1_plan(context.settings, parameters or SANParameters())
    return aggregate_table1(context.settings, context.iter(plan))


def format_table1(result: Table1Result) -> str:
    """Render Table 1 in the paper's layout (meas. and sim. columns)."""
    header_cells = []
    for n in result.measured_process_counts:
        header_cells.append(f"n={n} meas.")
        if n in result.simulated_process_counts:
            header_cells.append(f"n={n} sim.")
    lines = ["latency [ms]        " + "  ".join(f"{cell:>10}" for cell in header_cells)]
    for label, _scenario in SCENARIOS:
        cells = result.row(label)
        rendered = "  ".join(
            f"{cell:10.3f}" if cell is not None else " " * 10 for cell in cells
        )
        lines.append(f"{label:<20}{rendered}")
    return "\n".join(lines)


def table1_record(result: Table1Result) -> Dict[str, Any]:
    """The JSON artifact data of Table 1."""
    cells = []
    for label, _scenario in SCENARIOS:
        for n in result.measured_process_counts:
            cells.append(
                {
                    "scenario": label,
                    "n_processes": n,
                    "measured_ms": result.measured.get((label, n)),
                    "simulated_ms": result.simulated.get((label, n)),
                }
            )
    return {
        "measured_process_counts": list(result.measured_process_counts),
        "simulated_process_counts": list(result.simulated_process_counts),
        "cells": cells,
    }


def table1_rows(result: Table1Result):
    """The CSV series of Table 1: one row per (scenario, n) cell."""
    header = ["scenario", "n_processes", "measured_ms", "simulated_ms"]
    rows = [
        [
            label,
            n,
            result.measured.get((label, n)),
            result.simulated.get((label, n)),
        ]
        for label, _scenario in SCENARIOS
        for n in result.measured_process_counts
    ]
    return header, rows


SPEC = register(
    ExperimentSpec(
        name="table1",
        description="Table 1: latency under crash scenarios, measured and simulated",
        build_plan=_default_table1_plan,
        aggregate=aggregate_table1,
        render_text=format_table1,
        to_record=table1_record,
        to_rows=table1_rows,
    )
)
