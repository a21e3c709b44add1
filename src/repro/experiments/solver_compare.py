"""Solver cross-comparison sweep: analytic vs simulative agreement.

The analytic CTMC solver (:mod:`repro.san.analytic`) and the simulative
solver (:mod:`repro.san.solver`) must agree wherever both apply: on models
whose timed activities are all exponential.  This sweep solves each model
of a small validation suite **three ways** -- analytically, simulatively
one replication per lock-step batch (``batch_size=1``, the "simulative"
leg), and simulatively with auto-sized batches (the "batched" leg) --
and reports, per reward variable, the exact analytic value, each
simulative mean with its 95% confidence interval, whether the exact value
falls inside the intervals, and the wall-clock speedups; the batched
speedup is the lock-step gain over one-row batches.  The two simulative
legs share replication seeds, so their means are bit-identical; a
divergence here is an executor-fidelity bug, not statistical noise.

The suite covers the three layers of the paper's model stack
(:mod:`repro.sanmodels.exponential`):

* ``fd-pair``       -- the two-state failure-detector module (§3.4), an
  ergodic chain whose stationary suspect probability is known in closed
  form;
* ``unicast-burst`` -- a message burst through the three-stage network
  model (§3.3), an absorbing chain exercising resource contention;
* ``consensus-n3``  -- the full composed consensus model (§3.2) with
  n = 3, first-passage latency plus an impulse (completion-count) reward.

Like every other generator, the sweep is a
:class:`~repro.experiments.runner.ReplicationPlan`: the expensive
simulative solutions fan out over ``jobs`` workers with bit-identical
results, and ``cache_dir`` memoises per-model results on disk.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.san.analytic import AnalyticSolver
from repro.san.marking import Marking
from repro.san.rewards import (
    ActivityCounter,
    FirstPassageTime,
    IntervalOfTime,
    RewardVariable,
)
from repro.san.solver import SimulativeSolver
from repro.sanmodels.consensus_model import consensus_stop_predicate, latency_reward
from repro.sanmodels.exponential import (
    DELIVERED_PLACE,
    exponential_consensus_model,
    exponential_fd_pair_model,
    exponential_unicast_burst_model,
)
from repro.sanmodels.fd_model import FDModelSettings, suspect_place
from repro.experiments.registry import ExperimentContext, ExperimentSpec, register
from repro.experiments.runner import ReplicationPlan, SweepPoint
from repro.experiments.settings import ExperimentSettings

#: Confidence level of the agreement check (the cross-validation contract:
#: the exact value must fall inside the simulative 95% interval).
COMPARISON_CONFIDENCE = 0.95

#: Burst size of the ``unicast-burst`` model.
BURST_MESSAGES = 4


# ----------------------------------------------------------------------
# The validation-model suite (module-level, so worker processes can
# pickle every factory).
# ----------------------------------------------------------------------
def _fd_settings() -> FDModelSettings:
    return FDModelSettings(
        mistake_recurrence_time=10.0, mistake_duration=1.0, kind="exponential"
    )


def fd_pair_model():
    """The exponential failure-detector pair model."""
    return exponential_fd_pair_model(_fd_settings())


def _suspect_rate(marking: Marking) -> float:
    return float(marking[suspect_place(0, 1)])


def fd_pair_rewards() -> Sequence[RewardVariable]:
    """Fraction of the horizon spent in the *suspect* state."""
    return [IntervalOfTime(_suspect_rate, normalize=True, name="suspect_fraction")]


def burst_model():
    """The exponential unicast burst model."""
    return exponential_unicast_burst_model(messages=BURST_MESSAGES)


def _all_delivered(marking: Marking) -> bool:
    return marking[DELIVERED_PLACE] >= BURST_MESSAGES


def burst_rewards() -> Sequence[RewardVariable]:
    """Time to deliver the whole burst, plus the completion count."""
    return [
        FirstPassageTime(_all_delivered, name="all_delivered"),
        ActivityCounter(name="completions"),
    ]


def consensus3_model():
    """The exponential n = 3 consensus model."""
    return exponential_consensus_model(3)


def consensus_rewards() -> Sequence[RewardVariable]:
    """First-decision latency, plus the completion count."""
    return [latency_reward(), ActivityCounter(name="completions")]


@dataclass(frozen=True)
class CompareModelSpec:
    """One validation model: factories plus solving configuration."""

    key: str
    description: str
    model_factory: Callable
    reward_factory: Callable[[], Sequence[RewardVariable]]
    stop_predicate: Optional[Callable[[Marking], bool]]
    max_time: float
    reward_names: Tuple[str, ...]


#: The validation suite, in report order.
COMPARE_MODELS: Tuple[CompareModelSpec, ...] = (
    CompareModelSpec(
        key="fd-pair",
        description="FD trust/suspect module (ergodic, horizon 200 ms)",
        model_factory=fd_pair_model,
        reward_factory=fd_pair_rewards,
        stop_predicate=None,
        max_time=200.0,
        reward_names=("suspect_fraction",),
    ),
    CompareModelSpec(
        key="unicast-burst",
        description=f"{BURST_MESSAGES}-message unicast burst (absorbing)",
        model_factory=burst_model,
        reward_factory=burst_rewards,
        stop_predicate=_all_delivered,
        max_time=1_000.0,
        reward_names=("all_delivered", "completions"),
    ),
    CompareModelSpec(
        key="consensus-n3",
        description="composed consensus model, n=3 (absorbing)",
        model_factory=consensus3_model,
        reward_factory=consensus_rewards,
        stop_predicate=consensus_stop_predicate,
        max_time=10_000.0,
        reward_names=("latency", "completions"),
    ),
)


def compare_model_spec(key: str) -> CompareModelSpec:
    """Look a validation model up by key."""
    for spec in COMPARE_MODELS:
        if spec.key == key:
            return spec
    raise KeyError(f"unknown solver-compare model {key!r}")


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class RewardComparison:
    """Analytic-vs-simulative agreement for one reward variable.

    ``batched_mean``/``batched_within_ci`` report the auto-sized batch
    leg; ``batched_mean`` must equal ``simulative_mean`` (the one-row
    batch leg)
    bit-for-bit (shared replication seeds), so a mismatch flags an
    executor-fidelity bug.
    """

    reward: str
    analytic: float
    simulative_mean: float
    ci_half_width: float
    within_ci: bool
    sample_size: int
    batched_mean: float = float("nan")
    batched_within_ci: bool = False


@dataclass
class SolverComparePoint:
    """All three solutions of one validation model."""

    key: str
    description: str
    n_states: int
    replications: int
    analytic_seconds: float
    simulative_seconds: float
    batched_seconds: float = float("nan")
    rewards: List[RewardComparison] = field(default_factory=list)

    @property
    def speedup(self) -> float:
        """Simulative wall-clock divided by analytic wall-clock."""
        if self.analytic_seconds <= 0:
            return float("inf")
        return self.simulative_seconds / self.analytic_seconds

    @property
    def batched_speedup(self) -> float:
        """One-row-batch wall-clock divided by auto-sized-batch wall-clock."""
        if self.batched_seconds <= 0:
            return float("inf")
        return self.simulative_seconds / self.batched_seconds

    @property
    def all_within_ci(self) -> bool:
        """``True`` if every reward's exact value fell inside the CIs."""
        return all(
            comparison.within_ci and comparison.batched_within_ci
            for comparison in self.rewards
        )


@dataclass
class SolverCompareResult:
    """The whole comparison sweep, keyed by model."""

    points: Dict[str, SolverComparePoint] = field(default_factory=dict)

    def point(self, key: str) -> SolverComparePoint:
        """The comparison of one validation model."""
        return self.points[key]

    @property
    def all_within_ci(self) -> bool:
        """``True`` if every model's rewards all agreed."""
        return all(point.all_within_ci for point in self.points.values())


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def _solver_compare_point(
    settings: ExperimentSettings,
    key: str,
    point_seed: int,
) -> SolverComparePoint:
    """Solve one validation model both ways (module-level, picklable).

    ``point_seed`` -- injected by the sweep runner from the point's
    indices -- seeds the simulative replications; the analytic solution
    needs no randomness.
    """
    spec = compare_model_spec(key)

    started = time.perf_counter()  # repro: ignore[DET004] measures solver wall-clock, the quantity this experiment reports; not simulation state
    analytic = AnalyticSolver(
        model_factory=spec.model_factory,
        reward_factory=spec.reward_factory,
        stop_predicate=spec.stop_predicate,
        max_time=spec.max_time,
        confidence=COMPARISON_CONFIDENCE,
    )
    analytic_result = analytic.solve()
    analytic_seconds = time.perf_counter() - started  # repro: ignore[DET004] measures solver wall-clock, the quantity this experiment reports; not simulation state

    replications = settings.replications
    started = time.perf_counter()  # repro: ignore[DET004] measures solver wall-clock, the quantity this experiment reports; not simulation state
    simulative = SimulativeSolver(
        model_factory=spec.model_factory,
        reward_factory=spec.reward_factory,
        stop_predicate=spec.stop_predicate,
        max_time=spec.max_time,
        seed=point_seed,
        confidence=COMPARISON_CONFIDENCE,
        # All comparison models come from repro.sanmodels builders, which
        # produce stateless models safe to share across replications.
        reuse_model=True,
    )
    simulative_result = simulative.solve(replications=replications, batch_size=1)
    simulative_seconds = time.perf_counter() - started  # repro: ignore[DET004] measures solver wall-clock, the quantity this experiment reports; not simulation state

    started = time.perf_counter()  # repro: ignore[DET004] measures solver wall-clock, the quantity this experiment reports; not simulation state
    batched = SimulativeSolver(
        model_factory=spec.model_factory,
        reward_factory=spec.reward_factory,
        stop_predicate=spec.stop_predicate,
        max_time=spec.max_time,
        seed=point_seed,
        confidence=COMPARISON_CONFIDENCE,
        reuse_model=True,
    )
    batched_result = batched.solve(replications=replications)
    batched_seconds = time.perf_counter() - started  # repro: ignore[DET004] measures solver wall-clock, the quantity this experiment reports; not simulation state

    point = SolverComparePoint(
        key=spec.key,
        description=spec.description,
        n_states=analytic_result.n_states,
        replications=replications,
        analytic_seconds=analytic_seconds,
        simulative_seconds=simulative_seconds,
        batched_seconds=batched_seconds,
    )
    for reward_name in spec.reward_names:
        exact = analytic_result.mean(reward_name)
        interval = simulative_result.interval(reward_name)
        batched_interval = batched_result.interval(reward_name)
        point.rewards.append(
            RewardComparison(
                reward=reward_name,
                analytic=exact,
                simulative_mean=interval.mean,
                ci_half_width=interval.half_width,
                within_ci=interval.contains(exact),
                sample_size=simulative_result.sample_size(reward_name),
                batched_mean=batched_interval.mean,
                batched_within_ci=batched_interval.contains(exact),
            )
        )
    return point


def solver_compare_plan(settings: ExperimentSettings) -> ReplicationPlan:
    """The sweep: one point per validation model."""
    points = []
    for model_index, spec in enumerate(COMPARE_MODELS):
        points.append(
            SweepPoint.make(
                _solver_compare_point,
                kwargs={"settings": settings, "key": spec.key},
                indices=(13, model_index),
                label=f"solvercompare {spec.key}",
            )
        )
    return ReplicationPlan(settings=settings, points=tuple(points), name="solvercompare")


def aggregate_solver_compare(
    settings: ExperimentSettings,
    pairs: Iterable[Tuple[SweepPoint, Any]],
) -> SolverCompareResult:
    """Assemble the comparison result from streamed point results."""
    result = SolverCompareResult()
    for _point, point in pairs:
        result.points[point.key] = point
    return result


def run_solver_compare(
    settings: ExperimentSettings | None = None,
    jobs: Optional[int] = 1,
    cache_dir: Optional[str] = None,
) -> SolverCompareResult:
    """Run the comparison sweep."""
    context = ExperimentContext.create(settings, jobs=jobs, cache_dir=cache_dir)
    plan = solver_compare_plan(context.settings)
    return aggregate_solver_compare(context.settings, context.iter(plan))


def format_solver_compare(result: SolverCompareResult) -> str:
    """Render the comparison: exact value vs simulative CI, per reward.

    The statistics table is a deterministic function of the settings and
    seed (``jobs`` never changes it); the trailing timing block is
    wall-clock and varies between runs, mirroring the per-experiment
    ``[... regenerated in X s]`` line the CLI already prints.
    """
    lines = [
        "Solver comparison: analytic (exact CTMC) vs simulative (batch size 1 + batched)",
        "model           reward            analytic   simulative (95% CI)      in CI"
        "   batched     in CI   states",
    ]
    for spec in COMPARE_MODELS:
        if spec.key not in result.points:
            continue
        point = result.points[spec.key]
        for index, comparison in enumerate(point.rewards):
            tail = f"   {point.n_states:>6}" if index == 0 else ""
            lines.append(
                f"{point.key if index == 0 else '':<15s} "
                f"{comparison.reward:<16s} "
                f"{comparison.analytic:9.4f}   "
                f"{comparison.simulative_mean:9.4f} ± {comparison.ci_half_width:<8.4f}   "
                f"{'yes' if comparison.within_ci else 'NO ':<5s} "
                f"{comparison.batched_mean:9.4f}   "
                f"{'yes' if comparison.batched_within_ci else 'NO ':<5s}{tail}"
            )
    lines.append("")
    verdict = "agree" if result.all_within_ci else "DISAGREE"
    lines.append(
        f"solvers {verdict} on all models "
        f"({sum(len(p.rewards) for p in result.points.values())} rewards checked)"
    )
    for spec in COMPARE_MODELS:
        if spec.key not in result.points:
            continue
        point = result.points[spec.key]
        lines.append(
            f"[{point.key}: analytic {point.analytic_seconds * 1e3:.1f} ms vs "
            f"simulative {point.simulative_seconds:.2f} s "
            f"({point.replications} replications) -- {point.speedup:.0f}x; "
            f"batched {point.batched_seconds:.2f} s -- "
            f"{point.batched_speedup:.1f}x over batch size 1]"
        )
    return "\n".join(lines)


def solver_compare_record(result: SolverCompareResult) -> Dict[str, Any]:
    """The JSON artifact data of the solver comparison."""
    models = []
    for spec in COMPARE_MODELS:
        if spec.key not in result.points:
            continue
        point = result.points[spec.key]
        models.append(
            {
                "key": point.key,
                "description": point.description,
                "n_states": point.n_states,
                "replications": point.replications,
                "analytic_seconds": point.analytic_seconds,
                "simulative_seconds": point.simulative_seconds,
                "batched_seconds": point.batched_seconds,
                "speedup": point.speedup,
                "batched_speedup": point.batched_speedup,
                "all_within_ci": point.all_within_ci,
                "rewards": [
                    {
                        "reward": comparison.reward,
                        "analytic": comparison.analytic,
                        "simulative_mean": comparison.simulative_mean,
                        "ci_half_width": comparison.ci_half_width,
                        "within_ci": comparison.within_ci,
                        "sample_size": comparison.sample_size,
                        "batched_mean": comparison.batched_mean,
                        "batched_within_ci": comparison.batched_within_ci,
                    }
                    for comparison in point.rewards
                ],
            }
        )
    return {
        "confidence": COMPARISON_CONFIDENCE,
        "models": models,
        "all_within_ci": result.all_within_ci,
    }


def solver_compare_rows(result: SolverCompareResult):
    """The CSV series of the solver comparison: one row per reward."""
    header = [
        "model",
        "reward",
        "analytic",
        "simulative_mean",
        "ci_half_width",
        "within_ci",
        "batched_mean",
        "batched_within_ci",
        "sample_size",
        "n_states",
    ]
    rows = []
    for spec in COMPARE_MODELS:
        if spec.key not in result.points:
            continue
        point = result.points[spec.key]
        for comparison in point.rewards:
            rows.append(
                [
                    point.key,
                    comparison.reward,
                    comparison.analytic,
                    comparison.simulative_mean,
                    comparison.ci_half_width,
                    comparison.within_ci,
                    comparison.batched_mean,
                    comparison.batched_within_ci,
                    comparison.sample_size,
                    point.n_states,
                ]
            )
    return header, rows


SPEC = register(
    ExperimentSpec(
        name="solvercompare",
        description="Solver cross-validation: analytic (exact CTMC) vs simulative",
        build_plan=solver_compare_plan,
        aggregate=aggregate_solver_compare,
        render_text=format_solver_compare,
        to_record=solver_compare_record,
        to_rows=solver_compare_rows,
    )
)
