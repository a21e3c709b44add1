"""Stochastic Activity Network (SAN) modeling and simulation framework.

This package is the repository's stand-in for UltraSAN / Möbius, the
(closed, academic) tool the paper used to build and solve its models
(§3.1).  It provides the full SAN vocabulary:

* **Places** holding non-negative integer markings
  (:class:`~repro.san.places.Place`).
* **Timed activities** with arbitrary duration distributions
  (exponential, deterministic, uniform, Weibull, the paper's bi-modal
  uniform, ...) and **instantaneous activities**, both with probabilistic
  **cases** (:mod:`repro.san.activities`).
* **Input gates** (enabling predicate + marking transformation) and
  **output gates** (marking transformation) (:mod:`repro.san.gates`).
* **Composed models** via ``Join`` and ``Rep`` with shared places
  (:mod:`repro.san.composition`), mirroring UltraSAN's composition
  operators.
* **Reward variables** (first-passage times, interval-of-time and
  instant-of-time rewards, activity counters) (:mod:`repro.san.rewards`).
* A **simulative solver** running independent replications until a target
  confidence-interval precision is reached (:mod:`repro.san.solver`)
  -- the paper had to use simulative solvers because of its
  non-exponential distributions (§5).  Replications run lock-step in
  batches through a compiled form of the model
  (:mod:`repro.san.compiled`, :mod:`repro.san.batched`); a single
  replication is a batch of one.  Every replication is bit-identical to
  a run of :class:`~repro.san.executor.SANExecutor`, a deliberately
  simple full-re-evaluation executor kept as the test oracle (it is not
  exported here).
* An **analytic solver** for the exponential corner of the model space:
  reachability-graph state-space generation
  (:mod:`repro.san.statespace`) and exact CTMC solution -- steady state,
  transient via uniformization, first-passage times
  (:mod:`repro.san.analytic`).  It is the exact oracle the simulative
  solver is cross-validated against.

The execution semantics follow the standard SAN definition: an activity is
enabled when every input arc is satisfied and every input-gate predicate
holds; enabled instantaneous activities fire immediately (before any timed
activity); an enabled timed activity samples an activation delay and fires
when it elapses, unless it was disabled in the meantime (in which case it is
*reactivated* -- a fresh delay is sampled the next time it becomes enabled).
On firing, a case is chosen according to the case probabilities, input arcs
and gates consume/transform the marking, then the chosen case's output arcs
and gates are applied.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.san.activities import Activity, Case, InstantaneousActivity, TimedActivity
    from repro.san.analytic import AnalyticResult, AnalyticSolver, AnalyticSolverError
    from repro.san.batched import BatchedSANExecutor, SANExecutionError
    from repro.san.compiled import CompiledSANModel, RowMarking, compile_model
    from repro.san.composition import join, rename_model, replicate
    from repro.san.gates import InputGate, OutputGate
    from repro.san.marking import FrozenMarking, Marking
    from repro.san.model import SANModel, SANValidationError
    from repro.san.places import Place
    from repro.san.statespace import (
        NonMarkovianModelError,
        StateSpace,
        StateSpaceError,
        Transition,
        generate_state_space,
    )
    from repro.san.rewards import (
        ActivityCounter,
        FirstPassageTime,
        InstantOfTime,
        IntervalOfTime,
        RewardVariable,
    )
    from repro.san.solver import ReplicationResult, SimulativeSolver, SolverResult

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.san.activities": ("Activity", "Case", "InstantaneousActivity", "TimedActivity"),
    "repro.san.analytic": ("AnalyticResult", "AnalyticSolver", "AnalyticSolverError"),
    "repro.san.batched": ("BatchedSANExecutor", "SANExecutionError"),
    "repro.san.compiled": ("CompiledSANModel", "RowMarking", "compile_model"),
    "repro.san.composition": ("join", "rename_model", "replicate"),
    "repro.san.gates": ("InputGate", "OutputGate"),
    "repro.san.marking": ("FrozenMarking", "Marking"),
    "repro.san.model": ("SANModel", "SANValidationError"),
    "repro.san.places": ("Place",),
    "repro.san.statespace": (
        "NonMarkovianModelError",
        "StateSpace",
        "StateSpaceError",
        "Transition",
        "generate_state_space",
    ),
    "repro.san.rewards": (
        "ActivityCounter",
        "FirstPassageTime",
        "InstantOfTime",
        "IntervalOfTime",
        "RewardVariable",
    ),
    "repro.san.solver": ("ReplicationResult", "SimulativeSolver", "SolverResult"),
})

__all__ = [
    "Activity",
    "ActivityCounter",
    "AnalyticResult",
    "AnalyticSolver",
    "AnalyticSolverError",
    "BatchedSANExecutor",
    "Case",
    "CompiledSANModel",
    "FirstPassageTime",
    "FrozenMarking",
    "InputGate",
    "InstantOfTime",
    "InstantaneousActivity",
    "IntervalOfTime",
    "Marking",
    "NonMarkovianModelError",
    "OutputGate",
    "Place",
    "ReplicationResult",
    "RewardVariable",
    "RowMarking",
    "SANExecutionError",
    "SANModel",
    "SANValidationError",
    "SimulativeSolver",
    "SolverResult",
    "StateSpace",
    "StateSpaceError",
    "TimedActivity",
    "Transition",
    "compile_model",
    "generate_state_space",
    "join",
    "rename_model",
    "replicate",
]
