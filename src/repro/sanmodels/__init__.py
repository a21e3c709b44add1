"""The paper's SAN models, built on :mod:`repro.san`.

The paper models the ◇S consensus algorithm and its environment as a
composed Stochastic Activity Network (§3):

* one submodel per process implementing the state machine of a round
  (coordinator actions P1C, participant actions P1A1/P1A2a/P1A2b, round
  advancement P1A3) -- :mod:`repro.sanmodels.process_model`;
* a contention-aware network model with one shared network resource and one
  CPU resource per host, parameterised by ``t_send``, ``t_receive`` and
  ``t_net`` (§3.3) -- :mod:`repro.sanmodels.network_model`;
* a two-state failure-detector model per (monitor, monitored) pair driven by
  the measured QoS metrics (§3.4) -- :mod:`repro.sanmodels.fd_model`;
* the composition of all of the above into a single model per scenario,
  together with the latency reward variable and a simulative-solver facade
  -- :mod:`repro.sanmodels.consensus_model`.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.sanmodels.consensus_model import (
        ConsensusSANExperiment,
        build_consensus_model,
        build_consensus_model_from_distributions,
        consensus_stop_predicate,
        latency_reward,
    )
    from repro.sanmodels.exponential import (
        exponential_consensus_model,
        exponential_fd_pair_model,
        exponential_stage_distributions,
        exponential_unicast_burst_model,
        exponentialized,
    )
    from repro.sanmodels.fd_model import FDModelSettings, add_failure_detector_pair
    from repro.sanmodels.network_model import add_broadcast_path, add_unicast_path
    from repro.sanmodels.parameters import SANParameters
    from repro.sanmodels.process_model import add_process_state_machine

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sanmodels.consensus_model": (
        "ConsensusSANExperiment",
        "build_consensus_model",
        "build_consensus_model_from_distributions",
        "consensus_stop_predicate",
        "latency_reward",
    ),
    "repro.sanmodels.exponential": (
        "exponential_consensus_model",
        "exponential_fd_pair_model",
        "exponential_stage_distributions",
        "exponential_unicast_burst_model",
        "exponentialized",
    ),
    "repro.sanmodels.fd_model": ("FDModelSettings", "add_failure_detector_pair"),
    "repro.sanmodels.network_model": ("add_broadcast_path", "add_unicast_path"),
    "repro.sanmodels.parameters": ("SANParameters",),
    "repro.sanmodels.process_model": ("add_process_state_machine",),
})

__all__ = [
    "ConsensusSANExperiment",
    "FDModelSettings",
    "SANParameters",
    "add_broadcast_path",
    "add_failure_detector_pair",
    "add_process_state_machine",
    "add_unicast_path",
    "build_consensus_model",
    "build_consensus_model_from_distributions",
    "consensus_stop_predicate",
    "exponential_consensus_model",
    "exponential_fd_pair_model",
    "exponential_stage_distributions",
    "exponential_unicast_burst_model",
    "exponentialized",
    "latency_reward",
]
