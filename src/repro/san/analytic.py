"""Analytical (exact) solution of Markovian SAN models.

For models whose timed activities are all exponential, the SAN is a
continuous-time Markov chain on its reachability graph
(:mod:`repro.san.statespace`).  :class:`AnalyticSolver` solves that chain
exactly -- no replications, no confidence intervals -- and evaluates the
same reward variables the simulative solver observes:

* **steady state**: a linear solve on the generator matrix,
* **transient state** at time ``t``: uniformization (Jensen's method),
* **first-passage times** and **expected sojourn times** until absorption:
  one sparse linear solve, which also yields the expected impulse counts
  (:class:`~repro.san.rewards.ActivityCounter`) and accumulated rate
  rewards (:class:`~repro.san.rewards.IntervalOfTime`) until absorption.

The solver mirrors the :class:`~repro.san.solver.SimulativeSolver`
constructor (model factory, reward factory, stop predicate, horizon,
confidence) and its :meth:`AnalyticSolver.solve` returns an
:class:`AnalyticResult` exposing the same reading interface as
:class:`~repro.san.solver.SolverResult` (``mean`` / ``interval`` /
``values`` / ``sample_size`` / ``n``), so experiments can switch solvers
transparently.  Reported intervals have zero half-width: the solution is
exact up to numerical linear algebra.

scipy (``sparse``, ``sparse.linalg``, ``special``) is imported inside the
functions that use it, so importing this module costs only numpy.  The
Poisson helpers are the ``scipy.special`` formulas ``scipy.stats.poisson``
evaluates, bit for bit, without loading ``scipy.stats``.

When to use which solver
------------------------
* **Analytic**: every timed activity exponential, and the state space
  small enough to enumerate.  Orders of magnitude faster than replication
  for small models, and exact -- the test suite uses it as an oracle for
  the simulative solver.
* **Simulative**: any distribution (the paper's bi-modal uniform fits,
  deterministic stages, Weibull, ...), or state spaces too large to
  enumerate.  This is why the paper itself used simulative solvers (§5).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.san.marking import Marking
from repro.san.model import SANModel
from repro.san.rewards import (
    ActivityCounter,
    FirstPassageTime,
    InstantOfTime,
    IntervalOfTime,
    RewardVariable,
)
from repro.san.statespace import StateSpace, generate_state_space
from repro.stats.descriptive import ConfidenceInterval

ModelFactory = Callable[[], SANModel]
RewardFactory = Callable[[], Sequence[RewardVariable]]
MarkingPredicate = Callable[[Marking], bool]

#: Truncation tolerance of the uniformization (Poisson) series.
UNIFORMIZATION_EPSILON = 1e-12

#: Safety bound on uniformization series length (one sparse matrix-vector
#: product per term); roughly proportional to ``max_exit_rate * horizon``.
MAX_UNIFORMIZATION_TERMS = 1_000_000

#: Dense linear algebra below this state count, sparse above.
DENSE_STATE_LIMIT = 2_000


class AnalyticSolverError(RuntimeError):
    """Raised when a model cannot be solved analytically."""


#: OpenBLAS's thread-count ``(setter, getter)`` symbol names, across plain,
#: 64-bit-integer and scipy-openblas (numpy's wheels) builds.
_BLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}_set_num_threads{suffix}", f"{prefix}_get_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "_64_", "")
)

#: One OpenBLAS library's thread-count ``(setter, getter)``.
_ThreadControl = Tuple[Callable[[int], None], Callable[[], int]]


@functools.lru_cache(maxsize=None)
def _blas_thread_controls() -> Tuple[_ThreadControl, ...]:
    """The thread-count controls of every OpenBLAS mapped into this process.

    Looked up on the first dense solve, not at import.  Libraries are found
    by name in ``/proc/self/maps``; where that file does not exist, or no
    library exports a known symbol pair, there are none.
    """
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return ()
    paths: Dict[str, None] = {}  # in map order, each once
    for entry in fields:
        if len(entry) == 6 and "openblas" in entry[5].rsplit("/", 1)[-1].lower():
            paths[entry[5].strip()] = None
    controls: List[_ThreadControl] = []
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _BLAS_THREAD_SYMBOLS:
            setter = getattr(library, set_name, None)
            getter = getattr(library, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the block on one OpenBLAS thread, restoring the count on exit.

    The dense systems solved here have at most :data:`DENSE_STATE_LIMIT`
    states: one thread solves them in milliseconds, while a threaded solve
    on a busy machine can stall for a hundred times as long.  A no-op when
    no OpenBLAS control is found.
    """
    controls = _blas_thread_controls()
    previous = [getter() for _setter, getter in controls]
    for setter, _getter in controls:
        setter(1)
    try:
        yield
    finally:
        for (setter, _getter), count in zip(controls, previous):
            setter(count)


def load_numerics() -> None:
    """Import now the scipy modules this solver and confidence intervals load lazily.

    Callers that time :meth:`AnalyticSolver.solve` call this before the
    clock starts, so a one-time import is not charged to the first solve;
    the sweep runner calls it before forking workers, which then inherit
    the modules instead of each importing them.
    """
    import scipy.sparse.linalg  # noqa: F401
    import scipy.special  # noqa: F401


def _poisson_pmf(k: np.ndarray, mu: float) -> np.ndarray:
    """``scipy.stats.poisson.pmf(k, mu)`` for integers ``k >= 0``."""
    from scipy import special

    return np.exp(special.xlogy(k, mu) - special.gammaln(k + 1) - mu)


def _poisson_sf(k: np.ndarray, mu: float) -> np.ndarray:
    """``scipy.stats.poisson.sf(k, mu)`` for integers ``k >= 0``."""
    from scipy import special

    return special.pdtrc(k, mu)


def _poisson_ppf(q: float, mu: float) -> float:
    """``scipy.stats.poisson.ppf(q, mu)`` for ``0 < q < 1``.

    The smallest ``k`` with ``P(N <= k) >= q``: the inverse of the
    continuous CDF, rounded up, then stepped down once if the integer
    below already reaches ``q``.
    """
    from scipy import special

    upper = float(np.ceil(special.pdtrik(q, mu)))
    lower = max(upper - 1.0, 0.0)
    return lower if special.pdtr(lower, mu) >= q else upper


@dataclass
class AnalyticResult:
    """Exact reward values of an analytic solution.

    Exposes the reading interface of
    :class:`~repro.san.solver.SolverResult` (``mean`` / ``interval`` /
    ``values`` / ``sample_size`` / ``n``) so downstream report code can
    consume either solver's output.  Intervals are degenerate (zero
    half-width): there is no sampling error to report.
    """

    rewards: Dict[str, float] = field(default_factory=dict)
    confidence: float = 0.90
    n_states: int = 0
    mode: str = "absorbing"
    solve_seconds: float = 0.0
    notes: Dict[str, str] = field(default_factory=dict)

    def mean(self, reward_name: str) -> float:
        """The exact value of the named reward."""
        return self.rewards.get(reward_name, math.nan)

    def values(self, reward_name: str) -> List[float]:
        """The value as a (possibly empty) list, mirroring ``SolverResult``."""
        value = self.mean(reward_name)
        return [] if math.isnan(value) else [value]

    def sample_size(self, reward_name: str) -> int:
        """1 when the reward has a finite value, 0 otherwise."""
        return len(self.values(reward_name))

    def interval(self, reward_name: str) -> ConfidenceInterval:
        """A degenerate (zero-width) interval around the exact value."""
        return ConfidenceInterval(
            mean=self.mean(reward_name),
            half_width=0.0,
            confidence=self.confidence,
            n=1,
        )

    @property
    def n(self) -> int:
        """Replication-count analogue; the analytic solution is one 'run'."""
        return 1


class AnalyticSolver:
    """Exact CTMC solution of an exponential SAN model.

    Parameters
    ----------
    model_factory:
        Callable building the model (invoked once; the analytic solution
        needs no fresh copies).
    reward_factory:
        Callable building the reward variables to evaluate.  Supported
        kinds: :class:`~repro.san.rewards.FirstPassageTime`,
        :class:`~repro.san.rewards.IntervalOfTime`,
        :class:`~repro.san.rewards.InstantOfTime` and
        :class:`~repro.san.rewards.ActivityCounter`.
    stop_predicate:
        Marking predicate terminating a run.  When given (and reachable),
        rewards are evaluated *until absorption* in a stop state -- the
        analytic analogue of the simulative replication ending at the
        predicate.  When absent, rewards are evaluated over the fixed
        horizon ``[0, max_time]``.
    max_time:
        Horizon of the fixed-horizon mode (ignored once a reachable stop
        predicate makes the run almost-surely terminating).
    seed:
        Accepted (and ignored) for signature compatibility with
        :class:`~repro.san.solver.SimulativeSolver`.
    confidence:
        Confidence level stamped on the (degenerate) reported intervals.
    initial_marking_factory:
        Optional override of the model's initial marking.
    max_states:
        Safety bound forwarded to the state-space generator.
    """

    def __init__(
        self,
        model_factory: ModelFactory,
        reward_factory: RewardFactory,
        stop_predicate: Optional[MarkingPredicate] = None,
        max_time: float = 1_000.0,
        seed: Optional[int] = 0,
        confidence: float = 0.90,
        initial_marking_factory: Optional[Callable[[SANModel], Marking]] = None,
        max_states: int = 200_000,
    ) -> None:
        self.model_factory = model_factory
        self.reward_factory = reward_factory
        self.stop_predicate = stop_predicate
        self.max_time = max_time
        self.confidence = confidence
        self.initial_marking_factory = initial_marking_factory
        self.max_states = max_states
        self._model: Optional[SANModel] = None
        self._space: Optional[StateSpace] = None
        #: Solved sojourn vectors by target mask bytes: with a stop
        #: predicate, :meth:`solve` and a first-passage reward usually
        #: target the same set.
        self._sojourn: Dict[bytes, np.ndarray] = {}

    # ------------------------------------------------------------------
    # State space
    # ------------------------------------------------------------------
    @property
    def model(self) -> SANModel:
        """The model (built lazily, once)."""
        if self._model is None:
            self._model = self.model_factory()
        return self._model

    @property
    def state_space(self) -> StateSpace:
        """The reachability graph (generated lazily, once)."""
        if self._space is None:
            initial = (
                self.initial_marking_factory(self.model)
                if self.initial_marking_factory is not None
                else None
            )
            self._space = generate_state_space(
                self.model,
                stop_predicate=self.stop_predicate,
                initial_marking=initial,
                max_states=self.max_states,
            )
        return self._space

    # ------------------------------------------------------------------
    # Core numerics
    # ------------------------------------------------------------------
    def steady_state(self) -> np.ndarray:
        """The stationary distribution pi solving ``pi Q = 0``, ``sum pi = 1``.

        Intended for ergodic (irreducible) models such as the exponential
        failure-detector modules; on absorbing chains the result
        concentrates on the closed states reachable from the initial
        distribution.
        """
        space = self.state_space
        n = space.n_states
        q_transposed = space.generator().transpose().tocsr()
        if n <= DENSE_STATE_LIMIT:
            stacked = np.vstack([q_transposed.toarray(), np.ones((1, n))])
            rhs = np.zeros(n + 1)
            rhs[-1] = 1.0
            with _one_blas_thread():
                solution, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
        else:
            # Replace the last balance equation with the normalisation row;
            # nonsingular for irreducible chains.
            modified = q_transposed.tolil()
            modified[n - 1, :] = np.ones(n)
            rhs = np.zeros(n)
            rhs[-1] = 1.0
            from scipy.sparse import linalg as sparse_linalg

            solution = sparse_linalg.spsolve(modified.tocsr(), rhs)
        if not np.all(np.isfinite(solution)):
            raise AnalyticSolverError(
                "steady-state solve produced non-finite probabilities "
                "(reducible chain?)"
            )
        solution = np.clip(solution, 0.0, None)
        total = float(solution.sum())
        if total <= 0:
            raise AnalyticSolverError("steady-state solve produced a zero vector")
        return solution / total

    def transient(self, t: float) -> np.ndarray:
        """The state distribution pi(t) by uniformization."""
        return self._uniformize(t, accumulate=False)

    def accumulated(self, t: float) -> np.ndarray:
        """The expected time spent in each state over ``[0, t]``.

        This is the integral of the transient distribution; rate rewards
        over a horizon are dot products against it.
        """
        return self._uniformize(t, accumulate=True)

    def _uniformize(self, t: float, accumulate: bool) -> np.ndarray:
        if t < 0:
            raise ValueError(f"time must be >= 0, got {t}")
        space = self.state_space
        pi0 = space.initial_distribution
        if t == 0:
            return pi0 * 0.0 if accumulate else pi0.copy()
        rate = float(space.exit_rates().max(initial=0.0))
        if rate <= 0.0:
            # Every state is absorbing: the distribution never moves.
            return pi0 * t if accumulate else pi0.copy()
        from scipy import sparse

        # Uniformized DTMC:  P = I + Q / rate.
        p_matrix = sparse.identity(space.n_states, format="csr") + (
            space.generator() * (1.0 / rate)
        )
        poisson_mean = rate * t
        terms = int(_poisson_ppf(1.0 - UNIFORMIZATION_EPSILON, poisson_mean)) + 2
        if terms > MAX_UNIFORMIZATION_TERMS:
            raise AnalyticSolverError(
                f"uniformization needs ~{terms} terms (max exit rate {rate:g} "
                f"x horizon {t:g}); shorten the horizon or use the "
                "simulative solver"
            )
        ks = np.arange(terms)
        if accumulate:
            # integral_0^t pi(s) ds = (1/rate) * sum_k P(N > k) pi0 P^k.
            weights = _poisson_sf(ks, poisson_mean) / rate
        else:
            weights = _poisson_pmf(ks, poisson_mean)
        vector = pi0.copy()
        result = weights[0] * vector
        for k in range(1, terms):
            vector = vector @ p_matrix
            if weights[k] > 0.0:
                result = result + weights[k] * vector
        return result

    # ------------------------------------------------------------------
    # Absorption analysis
    # ------------------------------------------------------------------
    def expected_sojourn_times(self, target_mask: np.ndarray) -> np.ndarray:
        """Expected total time spent in each non-target state before hitting
        the target set, starting from the initial distribution.

        Returns a full-length vector (zero on target states).  Non-finite
        entries mean the target set is not almost-surely reachable.  Each
        target set is solved once per solver.
        """
        space = self.state_space
        n = space.n_states
        target_mask = np.asarray(target_mask, dtype=bool)
        if target_mask.shape != (n,):
            raise ValueError("target_mask must have one entry per state")
        key = target_mask.tobytes()
        if key not in self._sojourn:
            self._sojourn[key] = self._solve_sojourn(target_mask)
        return self._sojourn[key].copy()

    def _solve_sojourn(self, target_mask: np.ndarray) -> np.ndarray:
        space = self.state_space
        n = space.n_states
        transient = ~target_mask
        if not transient.any():
            return np.zeros(n)
        q_tt = space.generator()[transient][:, transient]
        p0_t = space.initial_distribution[transient]
        tau = np.full(int(transient.sum()), np.inf)
        if p0_t.sum() > 0:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # singular-matrix warnings
                try:
                    if q_tt.shape[0] <= DENSE_STATE_LIMIT:
                        with _one_blas_thread():
                            tau = np.linalg.solve(q_tt.toarray().T, -p0_t)
                    else:
                        from scipy.sparse import linalg as sparse_linalg

                        tau = sparse_linalg.spsolve(
                            q_tt.transpose().tocsr(), -p0_t
                        )
                except (np.linalg.LinAlgError, RuntimeError):
                    tau = np.full(int(transient.sum()), np.inf)
        else:
            tau = np.zeros(int(transient.sum()))
        full = np.zeros(n)
        full[transient] = tau
        return full

    def _backward_reachable(self, target_mask: np.ndarray) -> np.ndarray:
        """Mask of states from which the target set is reachable."""
        space = self.state_space
        predecessors: Dict[int, list] = {}
        for transition in space.transitions:
            if transition.source != transition.target:
                predecessors.setdefault(transition.target, []).append(
                    transition.source
                )
        reachable = np.asarray(target_mask, dtype=bool).copy()
        frontier = list(np.flatnonzero(reachable))
        while frontier:
            state = frontier.pop()
            for predecessor in predecessors.get(state, ()):
                if not reachable[predecessor]:
                    reachable[predecessor] = True
                    frontier.append(predecessor)
        return reachable

    def hitting_probability(self, target_mask: np.ndarray) -> float:
        """Probability of ever entering the target set from the start.

        Solved from the standard hitting-probability system.  States that
        cannot reach the target at all (absorbing states, closed recurrent
        classes) have probability exactly zero and are excluded up front,
        which keeps the linear system nonsingular.
        """
        space = self.state_space
        n = space.n_states
        target_mask = np.asarray(target_mask, dtype=bool)
        probability = float(space.initial_distribution[target_mask].sum())
        live = ~target_mask & ~space.absorbing & self._backward_reachable(
            target_mask
        )
        if not live.any():
            return min(probability, 1.0)
        rate_to_target = np.zeros(n)
        for transition in space.transitions:
            if live[transition.source] and target_mask[transition.target]:
                rate_to_target[transition.source] += transition.rate
        q_ll = space.generator()[live][:, live]
        if q_ll.shape[0] <= DENSE_STATE_LIMIT:
            with _one_blas_thread():
                h = np.linalg.solve(q_ll.toarray(), -rate_to_target[live])
        else:
            from scipy.sparse import linalg as sparse_linalg

            h = sparse_linalg.spsolve(q_ll.tocsr(), -rate_to_target[live])
        h = np.clip(h, 0.0, 1.0)
        probability += float(space.initial_distribution[live] @ h)
        return min(probability, 1.0)

    def first_passage_time(
        self, predicate: MarkingPredicate
    ) -> tuple[float, float]:
        """Mean hitting time of the predicate set and the hitting probability.

        The mean is taken from the initial distribution (zero for initial
        mass already in the set).  If the set is not almost-surely reached
        -- e.g. probability mass can be trapped in a dead marking first --
        the mean is infinite and the probability is the reachable mass.
        """
        space = self.state_space
        target_mask = np.asarray(
            [bool(predicate(marking)) for marking in space.markings()],
            dtype=bool,
        )
        if not target_mask.any():
            return math.nan, 0.0
        probability = self.hitting_probability(target_mask)
        if probability < 1.0 - 1e-9:
            warnings.warn(
                f"predicate set is reached with probability {probability:.6g} "
                "< 1; the mean first-passage time is infinite",
                stacklevel=2,
            )
            return math.inf, probability
        tau = self.expected_sojourn_times(target_mask)
        transient = ~target_mask
        if not np.all(np.isfinite(tau[transient])):
            return math.inf, probability
        return float(tau.sum()), probability

    # ------------------------------------------------------------------
    # Reward evaluation
    # ------------------------------------------------------------------
    def solve(self) -> AnalyticResult:
        """Evaluate every reward variable exactly.

        With a reachable stop predicate, rewards accumulate *until
        absorption* (the analytic analogue of a replication ending at the
        predicate); otherwise they accumulate over ``[0, max_time]``.
        """
        started = time.perf_counter()  # repro: ignore[DET004] solve_seconds diagnostic; never feeds solution values
        space = self.state_space
        rewards = list(self.reward_factory())
        absorbing_mode = bool(
            self.stop_predicate is not None and space.stop_mask.any()
        )
        result = AnalyticResult(
            confidence=self.confidence,
            n_states=space.n_states,
            mode="absorbing" if absorbing_mode else "horizon",
        )

        sojourn: Optional[np.ndarray] = None
        occupancy: Optional[np.ndarray] = None
        if absorbing_mode:
            # A replication ends at the stop predicate *or* in a dead
            # marking, so accumulated rewards are weighted by the time
            # spent before absorption of any kind -- matching the
            # executor, which finalises rewards in both cases.
            sojourn = self.expected_sojourn_times(space.absorbing)
            if not np.all(np.isfinite(sojourn)):
                result.notes["absorption"] = (
                    "absorption is not almost-sure (recurrent non-absorbing "
                    "states); until-absorption rewards are infinite"
                )
        else:
            occupancy = self.accumulated(self.max_time)

        for reward in rewards:
            result.rewards[reward.name] = self._evaluate(
                reward, absorbing_mode, sojourn, occupancy, result
            )
        result.solve_seconds = time.perf_counter() - started  # repro: ignore[DET004] solve_seconds diagnostic; never feeds solution values
        return result

    def _evaluate(
        self,
        reward: RewardVariable,
        absorbing_mode: bool,
        sojourn: Optional[np.ndarray],
        occupancy: Optional[np.ndarray],
        result: AnalyticResult,
    ) -> float:
        space = self.state_space
        markings = space.markings()

        if isinstance(reward, FirstPassageTime):
            mean, _probability = self.first_passage_time(reward.predicate)
            return mean

        if isinstance(reward, ActivityCounter):
            completion_rates = space.completion_rate_matrix(reward.activity_names)
            weights = sojourn if absorbing_mode else occupancy
            assert weights is not None
            # The executor notifies rewards of the instantaneous firings
            # that stabilise the initial marking, before any time passes.
            initial = sum(
                count
                for name, count in space.initial_completions.items()
                if reward.activity_names is None or name in reward.activity_names
            )
            return float((completion_rates * weights).sum()) + initial

        if isinstance(reward, IntervalOfTime):
            rates = np.asarray(
                [float(reward.rate(marking)) for marking in markings]
            )
            weights = sojourn if absorbing_mode else occupancy
            assert weights is not None
            integral = float((rates * weights).sum())
            if not reward.normalize:
                return integral
            elapsed = float(weights.sum()) if absorbing_mode else self.max_time
            if elapsed <= 0:
                return 0.0
            # E[A/T] is approximated by E[A]/E[T] in absorbing mode; exact
            # in horizon mode where the elapsed time is deterministic.
            return integral / elapsed

        if isinstance(reward, InstantOfTime):
            distribution = self.transient(reward.at_time)
            values = np.asarray(
                [float(reward.function(marking)) for marking in markings]
            )
            return float((distribution * values).sum())

        raise AnalyticSolverError(
            f"reward {reward.name!r} of type {type(reward).__name__} has no "
            "analytic evaluation; supported kinds are FirstPassageTime, "
            "IntervalOfTime, InstantOfTime and ActivityCounter"
        )
