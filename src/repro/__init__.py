"""repro: reproduction of "Performance Analysis of a Consensus Algorithm
Combining Stochastic Activity Networks and Measurements" (DSN 2002).

The package analyzes the latency of the Chandra-Toueg ◇S consensus
algorithm by combining two approaches, exactly as the paper does:

* **measurements** of the algorithm running on a (simulated) cluster of PCs
  -- :mod:`repro.cluster`, :mod:`repro.consensus`,
  :mod:`repro.failure_detectors`, orchestrated by :mod:`repro.core`;
* **simulation** of a Stochastic Activity Network model of the algorithm
  and its environment -- :mod:`repro.san` (the SAN framework) and
  :mod:`repro.sanmodels` (the paper's models).

Quick start
-----------
>>> from repro import MeasurementConfig, MeasurementRunner, Scenario
>>> from repro.cluster import ClusterConfig
>>> config = MeasurementConfig(
...     cluster=ClusterConfig(n_processes=3, seed=1),
...     scenario=Scenario.no_failures(),
...     executions=20,
... )
>>> result = MeasurementRunner(config).run()
>>> 0.0 < result.mean_latency_ms < 10.0
True
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.calibration import CalibrationResult, calibrate_t_send
    from repro.core.measurement import (
        MeasurementConfig,
        MeasurementResult,
        MeasurementRunner,
        measure_end_to_end_delays,
    )
    from repro.core.scenarios import RunClass, Scenario
    from repro.core.simulation import SimulationConfig, SimulationResult, SimulationRunner
    from repro.core.validation import ValidationReport, compare_results
    from repro.sanmodels.parameters import SANParameters

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.calibration": ("CalibrationResult", "calibrate_t_send"),
    "repro.core.measurement": (
        "MeasurementConfig",
        "MeasurementResult",
        "MeasurementRunner",
        "measure_end_to_end_delays",
    ),
    "repro.core.scenarios": ("RunClass", "Scenario"),
    "repro.core.simulation": ("SimulationConfig", "SimulationResult", "SimulationRunner"),
    "repro.core.validation": ("ValidationReport", "compare_results"),
    "repro.sanmodels.parameters": ("SANParameters",),
})

__version__ = "1.0.0"

__all__ = [
    "CalibrationResult",
    "MeasurementConfig",
    "MeasurementResult",
    "MeasurementRunner",
    "RunClass",
    "SANParameters",
    "Scenario",
    "SimulationConfig",
    "SimulationResult",
    "SimulationRunner",
    "ValidationReport",
    "calibrate_t_send",
    "compare_results",
    "measure_end_to_end_delays",
    "__version__",
]
