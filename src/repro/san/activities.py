"""SAN activities.

Activities are the transitions of a SAN.  A **timed activity** has a
duration distribution (possibly marking-dependent) and one or more
probabilistic **cases**; an **instantaneous activity** completes as soon as
it is enabled.  The paper's models use both: timed activities for message
transmission stages and failure-detector state changes, instantaneous
activities for control-flow branching (e.g. choosing the initial FD state,
§3.4 / Fig. 5).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add
from typing import Callable, Sequence, Union

import numpy as np

from repro.san.gates import InputGate, OutputGate
from repro.san.marking import Marking
from repro.san.places import Place
from repro.stats.distributions import Distribution

PlaceRef = Union[str, Place]
DistributionLike = Union[Distribution, Callable[[Marking], Distribution]]
ProbabilityLike = Union[float, Callable[[Marking], float]]


def _place_name(place: PlaceRef) -> str:
    return place.name if isinstance(place, Place) else place


@dataclass(frozen=True)
class Case:
    """One probabilistic outcome of an activity completion.

    Parameters
    ----------
    probability:
        Either a fixed probability or a callable evaluated on the marking at
        completion time (UltraSAN's marking-dependent case probabilities).
        Probabilities of all cases of an activity are normalised at
        selection time, so specifying relative weights is acceptable.
    output_arcs:
        Places receiving tokens when this case is chosen, as ``(place,
        weight)`` pairs or bare places (weight 1).
    output_gates:
        Output gates applied (in order) after the output arcs.
    label:
        Optional human-readable description of the outcome.
    """

    probability: ProbabilityLike = 1.0
    output_arcs: tuple[tuple[str, int], ...] = ()
    output_gates: tuple[OutputGate, ...] = ()
    label: str = ""

    @staticmethod
    def build(
        probability: ProbabilityLike = 1.0,
        output_arcs: Sequence[Union[PlaceRef, tuple[PlaceRef, int]]] = (),
        output_gates: Sequence[OutputGate] = (),
        label: str = "",
    ) -> "Case":
        """Build a case, normalising arc specifications."""
        arcs: list[tuple[str, int]] = []
        for arc in output_arcs:
            if isinstance(arc, tuple):
                place, weight = arc
                arcs.append((_place_name(place), int(weight)))
            else:
                arcs.append((_place_name(arc), 1))
        return Case(
            probability=probability,
            output_arcs=tuple(arcs),
            output_gates=tuple(output_gates),
            label=label,
        )

    def weight(self, marking: Marking) -> float:
        """Evaluate the (possibly marking-dependent) case weight."""
        if callable(self.probability):
            return float(self.probability(marking))
        return float(self.probability)


class Activity:
    """Common behaviour of timed and instantaneous activities.

    Parameters
    ----------
    name:
        Unique activity name within a model.
    input_arcs:
        Places consumed on completion, as ``(place, weight)`` pairs or bare
        places (weight 1).  An activity is enabled only if every input arc
        place holds at least its weight in tokens.
    input_gates:
        Input gates; all predicates must hold for the activity to be
        enabled, and all gate functions run on completion.
    cases:
        Probabilistic outcomes.  If omitted, a single case with no output
        arcs is used (useful when output gates on the single implicit case
        do all the work).
    """

    def __init__(
        self,
        name: str,
        input_arcs: Sequence[Union[PlaceRef, tuple[PlaceRef, int]]] = (),
        input_gates: Sequence[InputGate] = (),
        cases: Sequence[Case] = (),
    ) -> None:
        if not name:
            raise ValueError("Activity name must be non-empty")
        self.name = name
        arcs: list[tuple[str, int]] = []
        for arc in input_arcs:
            if isinstance(arc, tuple):
                place, weight = arc
                if weight < 1:
                    raise ValueError(
                        f"activity {name!r}: arc weight must be >= 1, got {weight}"
                    )
                arcs.append((_place_name(place), int(weight)))
            else:
                arcs.append((_place_name(arc), 1))
        self.input_arcs = tuple(arcs)
        self.input_gates: tuple[InputGate, ...] = tuple(input_gates)
        self.cases: tuple[Case, ...] = tuple(cases) if cases else (Case(),)

    # ------------------------------------------------------------------
    @property
    def timed(self) -> bool:
        """``True`` for timed activities, ``False`` for instantaneous ones."""
        raise NotImplementedError

    def enabled(self, marking: Marking) -> bool:
        """SAN enabling rule: all input arcs satisfied and all gates true."""
        # Hottest call in the executor: read the token dict directly when
        # given a plain Marking (arc places are stored as strings), falling
        # back to the mapping interface for frozen markings and views.
        tokens = getattr(marking, "_tokens", None)
        if tokens is not None:
            get = tokens.get
            for place, weight in self.input_arcs:
                if get(place, 0) < weight:
                    return False
        else:
            for place, weight in self.input_arcs:
                if marking[place] < weight:
                    return False
        for gate in self.input_gates:
            if not gate.enabled(marking):
                return False
        return True

    def choose_case(self, marking: Marking, rng: np.random.Generator) -> Case:
        """Select one case according to the (normalised) case weights.

        Reproduces ``rng.choice(len(cases), p=w / total)`` exactly (same
        case, same generator state after) at a fraction of its cost:
        ``total`` is numpy's sum of the weights ``w``, the CDF the running
        sum of ``w / total`` divided by its last entry, searched
        (``bisect_right``) with one ``rng.random()`` draw.  A single case
        draws nothing; negative, NaN, infinite or all-zero weights raise
        :class:`ValueError` before any draw.
        """
        cases = self.cases
        if len(cases) == 1:
            return cases[0]
        weights = [case.weight(marking) for case in cases]
        if any(weight < 0 for weight in weights):
            raise ValueError(f"activity {self.name!r}: negative case probability")
        # numpy's sum: left to right below 8 terms, pairwise from 8 on.
        total = reduce(add, weights) if len(weights) < 8 else float(np.add.reduce(weights))
        if total <= 0:
            raise ValueError(
                f"activity {self.name!r}: case probabilities sum to zero"
            )
        if not math.isfinite(total):
            raise ValueError(f"activity {self.name!r}: case probabilities are not finite")
        cdf = list(accumulate(weight / total for weight in weights))
        return cases[bisect_right([value / cdf[-1] for value in cdf], rng.random())]

    def complete(self, marking: Marking, case: Case) -> None:
        """Apply the SAN completion rule for the chosen case.

        Order (standard SAN semantics): consume input arcs, run input gate
        functions, add output arc tokens, run output gate functions.
        """
        for place, weight in self.input_arcs:
            marking.remove(place, weight)
        for gate in self.input_gates:
            gate.apply(marking)
        for place, weight in case.output_arcs:
            marking.add(place, weight)
        for gate in case.output_gates:
            gate.apply(marking)

    def __repr__(self) -> str:
        kind = "timed" if self.timed else "instantaneous"
        return f"{type(self).__name__}(name={self.name!r}, kind={kind})"


class TimedActivity(Activity):
    """A timed activity with a (possibly marking-dependent) duration.

    Parameters
    ----------
    distribution:
        Either a :class:`~repro.stats.distributions.Distribution` or a
        callable mapping the enabling marking to one (UltraSAN's
        marking-dependent activity-time distributions).
    reactivation:
        If ``True`` (the default, matching UltraSAN), an activity that is
        disabled before completing discards its sampled completion time and
        samples a fresh one when next enabled.
    """

    def __init__(
        self,
        name: str,
        distribution: DistributionLike,
        input_arcs: Sequence[Union[PlaceRef, tuple[PlaceRef, int]]] = (),
        input_gates: Sequence[InputGate] = (),
        cases: Sequence[Case] = (),
        reactivation: bool = True,
    ) -> None:
        super().__init__(name, input_arcs, input_gates, cases)
        self.distribution = distribution
        self.reactivation = reactivation

    @property
    def timed(self) -> bool:
        return True

    def sample_duration(self, marking: Marking, rng: np.random.Generator) -> float:
        """Sample an activation-to-completion delay for the current marking."""
        dist = self.distribution
        if callable(dist) and not hasattr(dist, "sample"):
            dist = dist(marking)
        value = dist.sample(rng)  # type: ignore[union-attr]
        if value < 0:
            raise ValueError(
                f"activity {self.name!r}: sampled a negative duration {value}"
            )
        return float(value)


class InstantaneousActivity(Activity):
    """An instantaneous activity, fired as soon as it is enabled.

    Parameters
    ----------
    rank:
        When several instantaneous activities are enabled simultaneously,
        lower rank fires first; ties are broken by definition order.
    """

    def __init__(
        self,
        name: str,
        input_arcs: Sequence[Union[PlaceRef, tuple[PlaceRef, int]]] = (),
        input_gates: Sequence[InputGate] = (),
        cases: Sequence[Case] = (),
        rank: int = 0,
    ) -> None:
        super().__init__(name, input_arcs, input_gates, cases)
        self.rank = int(rank)

    @property
    def timed(self) -> bool:
        return False
