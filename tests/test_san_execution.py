"""Tests of the process execution policy (:mod:`repro.san.execution`).

The policy is the bridge between call sites that do not want to thread
executor knobs through every signature (CLI, experiment specs) and
:meth:`SimulativeSolver.solve`: explicit arguments beat the activated
policy (transported via environment variables so pooled workers inherit
it), which beats the defaults -- and none of it ever changes results.
"""

from __future__ import annotations

import pytest

from repro.san import execution
from repro.sanmodels import ConsensusSANExperiment


@pytest.fixture(autouse=True)
def _clean_policy_env(monkeypatch):
    monkeypatch.delenv(execution.BATCH_SIZE_ENV, raising=False)


# ----------------------------------------------------------------------
# Parsing and validation
# ----------------------------------------------------------------------
def test_parse_batch_size_accepts_ints_strings_and_auto():
    assert execution.parse_batch_size(7) == 7
    assert execution.parse_batch_size("7") == 7
    assert execution.parse_batch_size("auto") == "auto"
    assert execution.parse_batch_size(" AUTO ") == "auto"
    for bad in (0, -3, "0", "nope", 2.5, True):
        with pytest.raises(ValueError):
            execution.parse_batch_size(bad)


def test_policy_validates_and_normalises_on_construction():
    policy = execution.ExecutionPolicy(batch_size="16")
    assert policy.batch_size == 16
    with pytest.raises(TypeError):
        execution.ExecutionPolicy(strategy="batched")  # type: ignore[call-arg]
    with pytest.raises(ValueError):
        execution.ExecutionPolicy(batch_size="-1")


# ----------------------------------------------------------------------
# Activation and resolution order
# ----------------------------------------------------------------------
def test_defaults_without_policy():
    assert execution.active_policy() == execution.ExecutionPolicy()
    assert execution.resolve_strategy() == "batched"
    assert execution.resolve_batch_size() == "auto"


def test_activate_round_trips_through_the_environment():
    execution.activate(execution.ExecutionPolicy(batch_size=64))
    assert execution.active_policy() == execution.ExecutionPolicy(batch_size=64)
    assert execution.resolve_batch_size() == 64
    # Clearing: an empty policy restores the defaults.
    execution.activate(execution.ExecutionPolicy())
    assert execution.active_policy() == execution.ExecutionPolicy()


def test_explicit_arguments_beat_the_activated_policy():
    execution.activate(execution.ExecutionPolicy(batch_size="auto"))
    assert execution.resolve_batch_size(9) == 9


def test_environment_values_are_validated_with_their_variable_name(monkeypatch):
    monkeypatch.setenv(execution.BATCH_SIZE_ENV, "zero")
    with pytest.raises(ValueError, match=execution.BATCH_SIZE_ENV):
        execution.resolve_batch_size()


# ----------------------------------------------------------------------
# End to end: the policy drives the solver without changing results
# ----------------------------------------------------------------------
def test_policy_driven_solve_is_bit_identical_to_scalar(monkeypatch):
    from repro.san.executor import run_replication

    solver = ConsensusSANExperiment(n_processes=3, seed=11).solver()
    oracle = [run_replication(solver, index) for index in range(12)]
    monkeypatch.setenv(execution.BATCH_SIZE_ENV, "5")
    policy_driven = solver.solve(replications=12)
    assert [r.rewards for r in policy_driven.replications] == [
        r.rewards for r in oracle
    ]


def test_experiment_options_overlay_the_policy(monkeypatch):
    from repro.experiments.registry import ExperimentOptions

    monkeypatch.setenv(execution.BATCH_SIZE_ENV, "32")
    ExperimentOptions().context()
    # Unset, the option leaves the environment's value alone ...
    assert execution.active_policy() == execution.ExecutionPolicy(batch_size=32)
    ExperimentOptions(batch_size="8").context()
    # ... set, it is activated.
    assert execution.active_policy() == execution.ExecutionPolicy(batch_size=8)
    with pytest.raises(ValueError, match="--batch-size"):
        ExperimentOptions(batch_size="none").validate()


def test_cli_rejects_the_removed_strategy_flag(capsys):
    from repro import cli

    with pytest.raises(SystemExit) as excinfo:
        cli.main(["figure9", "--scale", "smoke", "--strategy", "batched"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --strategy" in capsys.readouterr().err
