"""The validation suite of the solver comparison.

Three exponential models, one per layer of the paper's model stack
(:mod:`repro.sanmodels.exponential`), each with its reward variables and
solving configuration.  Every model can be solved both analytically
(:mod:`repro.san.analytic`) and simulatively (:mod:`repro.san.solver`);
:mod:`repro.experiments.solver_compare` reports how well the two agree.
The factories are module-level, so worker processes can pickle them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.san.marking import Marking
from repro.san.rewards import (
    ActivityCounter,
    FirstPassageTime,
    IntervalOfTime,
    RewardVariable,
)
from repro.sanmodels.consensus_model import consensus_stop_predicate, latency_reward
from repro.sanmodels.exponential import (
    DELIVERED_PLACE,
    exponential_consensus_model,
    exponential_fd_pair_model,
    exponential_unicast_burst_model,
)
from repro.sanmodels.fd_model import FDModelSettings, suspect_place

#: Burst size of the ``unicast-burst`` model.
BURST_MESSAGES = 4


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
