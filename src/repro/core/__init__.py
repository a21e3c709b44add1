"""The paper's combined measurement + simulation methodology.

This package is the primary contribution of the reproduction: it ties the
testbed simulator (:mod:`repro.cluster`), the consensus implementation
(:mod:`repro.consensus`), the failure detectors
(:mod:`repro.failure_detectors`) and the SAN models
(:mod:`repro.sanmodels`) into the workflow of the paper:

1. define a *scenario* -- one of the three classes of runs of §2.4
   (:mod:`repro.core.scenarios`);
2. run *measurements* of the consensus latency on the (simulated) cluster
   (:mod:`repro.core.measurement`);
3. *calibrate* the SAN model's network parameters from measured end-to-end
   delays (:mod:`repro.core.calibration`, §5.1);
4. run the *SAN simulation* of the same scenario
   (:mod:`repro.core.simulation`);
5. *validate* the model by comparing the two sets of results
   (:mod:`repro.core.validation`, §5.2-§5.4).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.calibration import (
        CalibrationResult,
        calibrate_t_send,
        fit_bimodal_uniform,
    )
    from repro.core.latency import InstanceLatency, LatencyRecorder
    from repro.core.measurement import (
        MeasurementConfig,
        MeasurementResult,
        MeasurementRunner,
        measure_end_to_end_delays,
    )
    from repro.core.scenarios import RunClass, Scenario
    from repro.core.simulation import SimulationConfig, SimulationResult, SimulationRunner
    from repro.core.validation import ValidationReport, compare_results

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.calibration": ("CalibrationResult", "calibrate_t_send", "fit_bimodal_uniform"),
    "repro.core.latency": ("InstanceLatency", "LatencyRecorder"),
    "repro.core.measurement": (
        "MeasurementConfig",
        "MeasurementResult",
        "MeasurementRunner",
        "measure_end_to_end_delays",
    ),
    "repro.core.scenarios": ("RunClass", "Scenario"),
    "repro.core.simulation": ("SimulationConfig", "SimulationResult", "SimulationRunner"),
    "repro.core.validation": ("ValidationReport", "compare_results"),
})

__all__ = [
    "CalibrationResult",
    "InstanceLatency",
    "LatencyRecorder",
    "MeasurementConfig",
    "MeasurementResult",
    "MeasurementRunner",
    "RunClass",
    "Scenario",
    "SimulationConfig",
    "SimulationResult",
    "SimulationRunner",
    "ValidationReport",
    "calibrate_t_send",
    "compare_results",
    "fit_bimodal_uniform",
    "measure_end_to_end_delays",
]
