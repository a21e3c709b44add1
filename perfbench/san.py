"""The ``san`` workload: SAN replications of the consensus model.

Eight points, n in {3, 5} x {class 1, class 2 (first coordinator crashed),
class 3 with a fixed failure-detector QoS (T_MR = 30 ms, T_M = 1 ms) in the
``deterministic`` and ``exponential`` kinds}, run under the default
execution policy.  One operation is one SAN replication.

* The cold leg calls :meth:`ConsensusSANExperiment.run` per point, which
  builds a fresh solver and model each time, and then solves the small
  analytic leg (state space and CTMC of ``exponential_consensus_model(3)``).
* The warm leg re-solves the same replications on solvers built during
  set-up, which keep their model (``reuse_model``); it must reproduce the
  cold leg replication for replication.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Tuple

from perfbench.common import Round, Tally, metric
from repro.san.analytic import AnalyticSolver
from repro.san.compiled import compile_model
from repro.san.rewards import ActivityCounter
from repro.san.solver import SimulativeSolver, SolverResult, auto_batch_size
from repro.sanmodels.consensus_model import (
    ConsensusSANExperiment,
    consensus_stop_predicate,
    latency_reward,
)
from repro.sanmodels.exponential import exponential_consensus_model
from repro.sanmodels.fd_model import FDModelSettings

NAME = "san"

REPLICATIONS = 40
#: Replications compared between ``run_batch`` and ``run_replication``.
BATCH_CHECK_REPLICATIONS = 3
#: The failure-detector QoS of the class-3 points (ms).
MISTAKE_RECURRENCE_MS = 30.0
MISTAKE_DURATION_MS = 1.0

POINT_KEYS = tuple(
    f"n{n}.{kind}" for n in (3, 5)
    for kind in ("class1", "class2", "class3det", "class3exp")
)

PER_LAYER = {
    "sanmodels.build_s": "s",
    "san.compile_s": "s",
    "san.batch_size": "count",
    **{f"san.solve_s.{key}": "s" for key in POINT_KEYS},
    "san.completions_per_op": "count",
    "san.completions_per_s": "1/s",
    "san.statespace_s": "s",
    "san.statespace.states": "count",
    "san.analytic.solve_s": "s",
}


def point_seed(seed: int, index: int) -> int:
    """The replication master seed of point ``index`` under the workload seed."""
    return (seed * 1_000_003 + index * 7_919 + 11) % (2**62)


def experiments(seed: int) -> List[Tuple[str, ConsensusSANExperiment]]:
    """The workload's ``(key, experiment)`` points for ``seed``."""
    points = []
    for index, key in enumerate(POINT_KEYS):
        n = int(key[1])
        kind = key.split(".")[1]
        options: Dict[str, Any] = {}
        if kind == "class2":
            options["crashed"] = (0,)
        elif kind.startswith("class3"):
            options["fd_settings"] = FDModelSettings(
                mistake_recurrence_time=MISTAKE_RECURRENCE_MS,
                mistake_duration=MISTAKE_DURATION_MS,
                kind="deterministic" if kind == "class3det" else "exponential",
            )
        points.append(
            (key, ConsensusSANExperiment(n, seed=point_seed(seed, index), **options))
        )
    return points


def _rewards(result: SolverResult) -> List[List[float]]:
    return [
        [rep.rewards["latency"], rep.rewards["completions"]]
        for rep in result.replications
    ]


def _analytic_solver() -> AnalyticSolver:
    return AnalyticSolver(
        model_factory=lambda: exponential_consensus_model(3),
        reward_factory=lambda: [latency_reward(), ActivityCounter(name="completions")],
        stop_predicate=consensus_stop_predicate,
    )


class SanWorkload:
    """SAN replications; the leg names are ``cold`` and ``warm``."""

    name = NAME
    COLD_LEG_IS_SETUP = False

    def __init__(self, seed: int, tally: Tally) -> None:
        self.seed = seed
        self.tally = tally
        self.points = experiments(seed)
        self.solvers: Dict[str, SimulativeSolver] = {}
        self.batch_sizes: Dict[str, int] = {}
        self.records: Optional[Dict[str, Any]] = None

    def setup(self, tracer: Any) -> None:
        """Build and compile every model, and the warm leg's solvers."""
        for key, experiment in self.points:
            with tracer.span("sanmodels.build", trace=key):
                model = experiment.model_factory()
            with tracer.span("san.compile", trace=key):
                compile_model(model)
            self.batch_sizes[key] = auto_batch_size(model)
            solver = experiment.solver()
            # One replication builds the model the solver keeps for the warm leg.
            solver.run_replication(0)
            self.solvers[key] = solver

    def _leg(self, key: str, ops: int, call: Any) -> Tuple[Optional[SolverResult], float]:
        started = time.perf_counter()
        result = self.tally.run(ops, f"san {key}", call)
        return result, time.perf_counter() - started

    def run_round(self, tracer: Any) -> Round:
        round_ = Round()
        records: Dict[str, Any] = {}
        for key, experiment in self.points:
            round_.calibrate("cold")
            with tracer.span(f"san.solve.{key}", trace=f"{key}.cold"):
                cold, seconds = self._leg(
                    key, REPLICATIONS,
                    lambda e=experiment: e.run(replications=REPLICATIONS).solver_result,
                )
            round_.add("cold", 0 if cold is None else REPLICATIONS, seconds)
            round_.calibrate("warm")
            with tracer.span("san.warm_solve", trace=f"{key}.warm"):
                warm, seconds = self._leg(
                    key, REPLICATIONS,
                    lambda s=self.solvers[key]: s.solve(replications=REPLICATIONS),
                )
            round_.add("warm", 0 if warm is None else REPLICATIONS, seconds)
            if cold is not None:
                self.tally.check(
                    all(rep.stopped_by_predicate for rep in cold.replications),
                    f"san {key}: a replication ended before a decision",
                    ops=REPLICATIONS,
                )
                records[key] = _rewards(cold)
                if tracer.enabled:
                    tracer.count("replications", REPLICATIONS)
                    tracer.count(
                        "san.completions",
                        sum(rep.rewards["completions"] for rep in cold.replications),
                    )
                if warm is not None:
                    self.tally.check(
                        _rewards(warm) == records[key],
                        f"san {key}: warm leg differs from cold leg",
                        ops=REPLICATIONS,
                    )
        round_.calibrate("cold")
        started = time.perf_counter()
        records["analytic"] = self.tally.run(
            0, "san analytic leg", lambda: self._analytic(tracer)
        )
        round_.add("cold", 0, time.perf_counter() - started)
        self.tally.check(records["analytic"] is not None, "san: analytic leg raised")
        if self.records is None:
            self.records = records
        else:
            self.tally.check(records == self.records, "san: round differs from the first")
        return round_

    @staticmethod
    def _analytic(tracer: Any) -> Dict[str, float]:
        solver = _analytic_solver()
        with tracer.span("san.statespace"):
            states = solver.state_space.n_states
        with tracer.span("san.analytic.solve"):
            result = solver.solve()
        tracer.count("san.statespace.states", states)
        return {
            "states": states,
            "latency": result.mean("latency"),
            "completions": result.mean("completions"),
        }

    def final_checks(self) -> None:
        """``run_batch`` must equal ``run_replication`` row for row (off the clock)."""
        indices = list(range(BATCH_CHECK_REPLICATIONS))
        for key, solver in self.solvers.items():
            batch = solver.run_batch(indices)
            single = [solver.run_replication(index) for index in indices]
            self.tally.check(
                [(r.rewards, r.end_time) for r in batch]
                == [(r.rewards, r.end_time) for r in single],
                f"san {key}: run_batch differs from run_replication",
            )

    def per_layer(self, tracer: Any) -> Dict[str, Dict[str, Any]]:
        counts = tracer.counts
        solve_s = {key: tracer.total(f"san.solve.{key}") for key in POINT_KEYS}
        values = {
            "sanmodels.build_s": tracer.total("sanmodels.build"),
            "san.compile_s": tracer.total("san.compile"),
            "san.batch_size": min(self.batch_sizes.values()),
            **{f"san.solve_s.{key}": seconds for key, seconds in solve_s.items()},
            "san.completions_per_op": counts["san.completions"] / counts["replications"],
            "san.completions_per_s": counts["san.completions"] / sum(solve_s.values()),
            "san.statespace_s": tracer.total("san.statespace"),
            "san.statespace.states": counts["san.statespace.states"],
            "san.analytic.solve_s": tracer.total("san.analytic.solve"),
        }
        return {name: metric(values[name], unit) for name, unit in PER_LAYER.items()}
