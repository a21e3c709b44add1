"""Assembly of the full SAN consensus model and its simulative solution.

:func:`build_consensus_model` composes, for ``n`` processes:

* the per-process round state machines (:mod:`repro.sanmodels.process_model`),
* the contention-aware message transmission paths
  (:mod:`repro.sanmodels.network_model`): unicast paths for estimates and
  (negative) acknowledgements, broadcast paths for proposals and decisions,
* the failure-detector modules (:mod:`repro.sanmodels.fd_model`),

into one :class:`~repro.san.model.SANModel`, following the paper's approach
of building one submodel per process and joining them over the shared
places (§3.2) -- the shared places here being the network token and the
global decision counter.

:class:`ConsensusSANExperiment` wraps the model in a
:class:`~repro.san.solver.SimulativeSolver` replication loop and exposes the
latency statistics the paper reports (mean with 90% confidence interval,
empirical CDF).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple, Union

from repro.san.composition import join
from repro.san.marking import Marking
from repro.san.model import SANModel
from repro.san.places import Place
from repro.san.rewards import ActivityCounter, FirstPassageTime, RewardVariable
from repro.san.solver import SimulativeSolver, SolverResult
from repro.sanmodels.fd_model import FDModelSettings, add_failure_detector_pair
from repro.sanmodels.network_model import (
    NETWORK_PLACE,
    add_broadcast_path,
    add_unicast_path,
)
from repro.sanmodels.parameters import SANParameters
from repro.sanmodels.process_model import (
    DECIDED_ANY_PLACE,
    add_process_state_machine,
    decided_place,
)
from repro.stats.cdf import EmpiricalCDF
from repro.stats.descriptive import ConfidenceInterval, confidence_interval
from repro.stats.distributions import Distribution


def consensus_stop_predicate(marking: Marking) -> bool:
    """Stop condition of a replication: some process has decided (§2.3)."""
    return marking[DECIDED_ANY_PLACE] >= 1


def latency_reward() -> FirstPassageTime:
    """The latency performance variable: time until the first decision."""
    return FirstPassageTime(consensus_stop_predicate, name="latency")


def _counter_effect(place: str) -> Callable[[Marking], None]:
    def effect(marking: Marking, _place: str = place) -> None:
        marking.add(_place)

    return effect


def _decision_effect(destination: int) -> Callable[[Marking], None]:
    decided = decided_place(destination)

    def effect(marking: Marking) -> None:
        if marking[decided] == 0:
            marking[decided] = 1
            marking.add(DECIDED_ANY_PLACE)

    return effect


def build_consensus_model(
    n_processes: int,
    parameters: Optional[SANParameters] = None,
    crashed: Sequence[int] = (),
    fd_settings: Optional[FDModelSettings] = None,
) -> SANModel:
    """Build the SAN model of one consensus execution.

    Parameters
    ----------
    n_processes:
        Number of processes ``n`` (the paper simulates n = 3 and n = 5).
    parameters:
        Network-model parameters; defaults to the paper's calibrated values.
    crashed:
        Processes crashed before the start (class-2 scenarios).  Crashed
        processes never act and are suspected forever by every correct
        process.
    fd_settings:
        QoS-derived failure-detector settings for class-3 scenarios;
        ``None`` yields accurate detectors (no wrong suspicions).
    """
    parameters = parameters or SANParameters()
    return build_consensus_model_from_distributions(
        n_processes,
        t_send=parameters.t_send_distribution(),
        t_receive=parameters.t_receive_distribution(),
        t_net_unicast=parameters.t_net_unicast_distribution(),
        t_net_broadcast=parameters.t_net_broadcast_distribution(n_processes),
        parameters=parameters,
        crashed=crashed,
        fd_settings=fd_settings,
    )


def build_consensus_model_from_distributions(
    n_processes: int,
    t_send: Distribution,
    t_receive: Distribution,
    t_net_unicast: Distribution,
    t_net_broadcast: Distribution,
    parameters: Optional[SANParameters] = None,
    crashed: Sequence[int] = (),
    fd_settings: Optional[FDModelSettings] = None,
    name_suffix: str = "",
) -> SANModel:
    """Build the consensus model with explicit stage distributions.

    This is the distribution-agnostic core of :func:`build_consensus_model`:
    the caller supplies the four stage distributions directly, which is how
    the exponential (Markovian) validation variants of
    :mod:`repro.sanmodels.exponential` reuse the exact same structure --
    same places, activities, gates and topology -- with analytically
    tractable timing.  ``parameters`` still supplies the loss/partition
    topology (``loss_rate``, ``connected``).
    """
    if n_processes < 1:
        raise ValueError(f"n_processes must be >= 1, got {n_processes}")
    parameters = parameters or SANParameters()
    crashed_set = set(crashed)
    if len(crashed_set) >= (n_processes + 1) // 2 and n_processes > 1:
        raise ValueError(
            "the ◇S algorithm requires a majority of correct processes; "
            f"{len(crashed_set)} of {n_processes} crashed"
        )

    submodels: list[SANModel] = []

    # Shared resources live in their own tiny submodel (the "common places"
    # of the UltraSAN Join).
    shared = SANModel("shared")
    shared.add_place(Place(NETWORK_PLACE, 1))
    shared.add_place(Place(DECIDED_ANY_PLACE, 0))
    submodels.append(shared)

    for pid in range(n_processes):
        submodel = SANModel(f"process{pid}")
        add_process_state_machine(
            submodel, pid, n_processes, crashed=pid in crashed_set
        )
        # Failure-detector modules of this process (it monitors every other).
        if pid not in crashed_set:
            for peer in range(n_processes):
                if peer == pid:
                    continue
                if peer in crashed_set or fd_settings is None:
                    add_failure_detector_pair(
                        submodel, pid, peer, settings=None,
                        initially_suspected=peer in crashed_set,
                    )
                else:
                    add_failure_detector_pair(submodel, pid, peer, settings=fd_settings)
        # Outgoing message paths of this process (a crashed process never
        # sends, so its outgoing paths are omitted).  A partitioned pair
        # keeps its unicast path but with loss probability 1, so the
        # process state machine can still enqueue send tokens; partitioned
        # broadcast destinations are simply excluded from the fanout.
        if pid not in crashed_set:
            for peer in range(n_processes):
                if peer == pid:
                    continue
                pair_loss = (
                    1.0 if not parameters.connected(pid, peer)
                    else parameters.loss_rate
                )
                add_unicast_path(
                    submodel, "est", pid, peer, t_send, t_net_unicast, t_receive,
                    delivery_effect=_counter_effect(f"p{peer}.est_count"),
                    loss_rate=pair_loss,
                )
                add_unicast_path(
                    submodel, "ack", pid, peer, t_send, t_net_unicast, t_receive,
                    delivery_effect=_counter_effect(f"p{peer}.ack_count"),
                    loss_rate=pair_loss,
                )
                add_unicast_path(
                    submodel, "nack", pid, peer, t_send, t_net_unicast, t_receive,
                    delivery_effect=_counter_effect(f"p{peer}.nack_count"),
                    loss_rate=pair_loss,
                )
            destinations = [
                peer
                for peer in range(n_processes)
                if peer != pid and parameters.connected(pid, peer)
            ]
            add_broadcast_path(
                submodel, "prop", pid, destinations, t_send, t_net_broadcast, t_receive,
                delivery_effect_for=lambda dst: _counter_effect(f"p{dst}.prop_pending"),
                loss_rate=parameters.loss_rate,
            )
            add_broadcast_path(
                submodel, "dec", pid, destinations, t_send, t_net_broadcast, t_receive,
                delivery_effect_for=_decision_effect,
                loss_rate=parameters.loss_rate,
            )
        submodels.append(submodel)

    scenario = "crash" if crashed_set else ("qos-fd" if fd_settings else "no-failure")
    return join(f"consensus-n{n_processes}-{scenario}{name_suffix}", submodels)


@dataclass
class SANLatencyResult:
    """Latency statistics produced by a SAN experiment."""

    latencies_ms: list[float]
    mean_ms: float
    interval: ConfidenceInterval
    replications: int
    undecided: int
    solver_result: SolverResult = field(repr=False, default=None)

    def cdf(self) -> EmpiricalCDF:
        """Empirical CDF of the per-replication latencies."""
        return EmpiricalCDF(self.latencies_ms)


class ConsensusSANExperiment:
    """A SAN simulation experiment for one scenario.

    Parameters
    ----------
    n_processes:
        Number of processes.
    parameters:
        Network-model parameters (defaults to the paper's calibrated fit).
    crashed:
        Initially crashed processes (class 2).
    fd_settings:
        QoS-driven failure-detector settings (class 3), or ``None``.
    seed:
        Master seed of the replication streams.
    max_time_ms:
        Per-replication time horizon (a safety bound; replications normally
        end at the first decision).
    confidence:
        Confidence level of the reported interval (the paper uses 0.90).
    batch_size:
        Replications per lock-step batch of the simulative solver
        (:class:`~repro.san.batched.BatchedSANExecutor`): a count,
        ``"auto"`` (sized from the compiled model), or ``None`` (default)
        to defer to the process execution policy
        (:mod:`repro.san.execution`).  Never changes results.
    """

    def __init__(
        self,
        n_processes: int,
        parameters: Optional[SANParameters] = None,
        crashed: Sequence[int] = (),
        fd_settings: Optional[FDModelSettings] = None,
        seed: int = 0,
        max_time_ms: float = 10_000.0,
        confidence: float = 0.90,
        batch_size: Optional[Union[int, str]] = None,
    ) -> None:
        self.n_processes = n_processes
        self.parameters = parameters or SANParameters()
        self.crashed: Tuple[int, ...] = tuple(crashed)
        self.fd_settings = fd_settings
        self.seed = seed
        self.max_time_ms = max_time_ms
        self.confidence = confidence
        self.batch_size = batch_size

    # ------------------------------------------------------------------
    def model_factory(self) -> SANModel:
        """Build a fresh model instance (one per replication)."""
        return build_consensus_model(
            self.n_processes,
            parameters=self.parameters,
            crashed=self.crashed,
            fd_settings=self.fd_settings,
        )

    def reward_factory(self) -> Sequence[RewardVariable]:
        """The rewards observed in each replication."""
        return [latency_reward(), ActivityCounter(name="completions")]

    def solver(self) -> SimulativeSolver:
        """The simulative solver configured for this experiment."""
        return SimulativeSolver(
            model_factory=self.model_factory,
            reward_factory=self.reward_factory,
            stop_predicate=consensus_stop_predicate,
            max_time=self.max_time_ms,
            seed=self.seed,
            confidence=self.confidence,
            # The generated consensus models are stateless (gate closures
            # only capture place names), so one instance can serve every
            # replication -- the build is a large share of a replication.
            reuse_model=True,
        )

    def run(
        self,
        replications: int = 100,
        relative_precision: Optional[float] = None,
        min_replications: int = 20,
        max_replications: int = 5_000,
        jobs: Optional[int] = 1,
        batch_size: Optional[Union[int, str]] = None,
    ) -> SANLatencyResult:
        """Run the experiment and return latency statistics.

        With ``relative_precision`` set, replications continue until the
        confidence interval of the mean latency is that tight (relative to
        the mean) or ``max_replications`` is reached.  ``jobs > 1`` fans
        the replications out over worker processes with bit-identical
        results (see :meth:`SimulativeSolver.solve`).  ``batch_size``
        overrides the experiment's configured value for this run (``None``
        falls back to the experiment's, then to the process execution
        policy); like ``jobs``, it never changes results.
        """
        solver = self.solver()
        if batch_size is None:
            batch_size = self.batch_size
        if relative_precision is None:
            result = solver.solve(
                replications=replications,
                jobs=jobs,
                batch_size=batch_size,
            )
        else:
            result = solver.solve(
                replications=replications,
                target_reward="latency",
                relative_precision=relative_precision,
                min_replications=min_replications,
                max_replications=max_replications,
                jobs=jobs,
                batch_size=batch_size,
            )
        latencies = result.values("latency")
        undecided = result.n - len(latencies)
        interval = confidence_interval(latencies, self.confidence) if latencies else (
            ConfidenceInterval(mean=float("nan"), half_width=float("nan"),
                               confidence=self.confidence, n=0)
        )
        return SANLatencyResult(
            latencies_ms=latencies,
            mean_ms=interval.mean,
            interval=interval,
            replications=result.n,
            undecided=undecided,
            solver_result=result,
        )
