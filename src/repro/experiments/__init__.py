"""Per-figure and per-table experiment generators.

Each module regenerates the data behind one element of the paper's
evaluation (§5):

==================  ========================================================
Module              Paper element
==================  ========================================================
``figure6``         Fig. 6 -- end-to-end delay CDFs of unicast / broadcast
                    messages
``figure7``         Fig. 7(a) -- latency CDFs for n = 3..11 (measurements);
                    Fig. 7(b) -- simulated CDFs for a sweep of ``t_send``
                    vs. the measured CDF (calibration);
                    §5.2 -- mean latencies, measurement vs. simulation
``table1``          Table 1 -- latency under crash scenarios
``figure8``         Fig. 8(a)/(b) -- failure-detector QoS (T_MR, T_M) vs.
                    the timeout T
``figure9``         Fig. 9(a)/(b) -- latency vs. the timeout T,
                    measurements and SAN simulations (det. / exp. FD model)
==================  ========================================================

Every generator takes an :class:`~repro.experiments.settings.ExperimentSettings`
controlling its scale, so the same code serves quick benchmark runs and
full paper-scale reproductions (set ``REPRO_EXPERIMENT_SCALE=full``).

Each generator expresses its grid as a
:class:`~repro.experiments.runner.ReplicationPlan` and executes it through
:mod:`repro.experiments.runner`, so every sweep accepts ``jobs=`` (process
parallelism; results are bit-for-bit independent of the worker count) and
``cache_dir=`` (on-disk memoisation of per-point results).

Every generator additionally self-registers an
:class:`~repro.experiments.registry.ExperimentSpec` in
:mod:`repro.experiments.registry`, which is how the CLI discovers its
subcommands and how the structured artifact layer
(:mod:`repro.experiments.artifacts`) emits JSON/CSV results and run
manifests for each experiment.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.experiments.artifacts import RunManifest, validate_artifact
    from repro.experiments.fault_sweep import FaultSweepResult, run_fault_sweep
    from repro.experiments.figure6 import Figure6Result, run_figure6
    from repro.experiments.figure7 import (
        Figure7aResult,
        Figure7bResult,
        LatencyMeansResult,
        run_figure7a,
        run_figure7b,
        run_latency_means,
    )
    from repro.experiments.figure8 import Figure8Result, run_figure8
    from repro.experiments.figure9 import Figure9Result, run_figure9
    from repro.experiments.registry import (
        ExperimentContext,
        ExperimentOptions,
        ExperimentRun,
        ExperimentSpec,
        run_experiment,
    )
    from repro.experiments.registry import discover as discover_experiments
    from repro.experiments.registry import get as get_experiment
    from repro.experiments.registry import names as experiment_names
    from repro.experiments.runner import (
        ReplicationPlan,
        ResultCache,
        SweepPoint,
        execute_plan,
        iter_plan,
    )
    from repro.experiments.settings import ExperimentSettings
    from repro.experiments.solver_compare import SolverCompareResult, run_solver_compare
    from repro.experiments.table1 import Table1Result, run_table1

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.artifacts": ("RunManifest", "validate_artifact"),
    "repro.experiments.fault_sweep": ("FaultSweepResult", "run_fault_sweep"),
    "repro.experiments.figure6": ("Figure6Result", "run_figure6"),
    "repro.experiments.figure7": (
        "Figure7aResult",
        "Figure7bResult",
        "LatencyMeansResult",
        "run_figure7a",
        "run_figure7b",
        "run_latency_means",
    ),
    "repro.experiments.figure8": ("Figure8Result", "run_figure8"),
    "repro.experiments.figure9": ("Figure9Result", "run_figure9"),
    "repro.experiments.registry": (
        "ExperimentContext",
        "ExperimentOptions",
        "ExperimentRun",
        "ExperimentSpec",
        "run_experiment",
        "discover as discover_experiments",
        "get as get_experiment",
        "names as experiment_names",
    ),
    "repro.experiments.runner": (
        "ReplicationPlan",
        "ResultCache",
        "SweepPoint",
        "execute_plan",
        "iter_plan",
    ),
    "repro.experiments.settings": ("ExperimentSettings",),
    "repro.experiments.solver_compare": ("SolverCompareResult", "run_solver_compare"),
    "repro.experiments.table1": ("Table1Result", "run_table1"),
})

__all__ = [
    "ExperimentContext",
    "ExperimentOptions",
    "ExperimentRun",
    "ExperimentSettings",
    "ExperimentSpec",
    "ReplicationPlan",
    "ResultCache",
    "RunManifest",
    "SweepPoint",
    "discover_experiments",
    "execute_plan",
    "experiment_names",
    "get_experiment",
    "iter_plan",
    "run_experiment",
    "validate_artifact",
    "FaultSweepResult",
    "Figure6Result",
    "Figure7aResult",
    "Figure7bResult",
    "Figure8Result",
    "Figure9Result",
    "LatencyMeansResult",
    "SolverCompareResult",
    "Table1Result",
    "run_fault_sweep",
    "run_figure6",
    "run_figure7a",
    "run_figure7b",
    "run_figure8",
    "run_figure9",
    "run_latency_means",
    "run_solver_compare",
    "run_table1",
]
