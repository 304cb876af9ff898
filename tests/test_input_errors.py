"""One family for rejected arguments and inputs: redispatch.InputError.

Every check the package makes on an argument or on input data raises an
InputError (a ValueError), which the command line maps to exit 2.  The
errors that flag the package's own faults are plain ValueErrors, which it
maps to exit 3.
"""

import math

import numpy as np
import pytest

import redispatch
from redispatch import InputError, cli
from redispatch.alphaexp import (
    InfeasibleStartError,
    NonDisjointCyclesError,
    alpha_expansion,
)
from redispatch.cli import main
from redispatch.data import (
    BadLevelsError,
    ParseError,
    SchemaError,
    aggregate_time,
    build_instance,
    estimate_sensitivity,
    load_network,
    synth_instance,
    write_synthetic_network,
)
from redispatch.decomposers import DecomposeConfig
from redispatch.encodings import InfeasibleBoundError
from redispatch.experiments import ExperimentSettings, composed_objective
from redispatch.model import NotOneHotError, ProblemInstance, encode_one_hot
from redispatch.qubo import (
    DegenerateRangeError,
    DimensionMismatchError,
    NonFiniteError,
    Qubo,
    normalize_range,
)
from redispatch.solvers import Budget, SolveRequest, TooLargeError


@pytest.fixture(scope="module")
def network(tmp_path_factory):
    return load_network(write_synthetic_network(
        tmp_path_factory.mktemp("net"), 3, 2, 6, n_fixed=2, seed=0))


@pytest.fixture(scope="module")
def alpha_args():
    inst, _ = synth_instance(2, 3, 2, 1, seed=0)
    x0 = encode_one_hot(np.ones((inst.T, inst.n), dtype=int),
                        inst.T, inst.n, inst.k)
    return inst, composed_objective(inst), x0


def test_input_error_is_exported_and_a_value_error():
    assert redispatch.InputError is InputError
    assert "InputError" in redispatch.__all__
    assert issubclass(InputError, ValueError)


@pytest.mark.parametrize("error", [
    ParseError, SchemaError, BadLevelsError, InfeasibleBoundError,
    NonFiniteError, TooLargeError, cli.ConfigError])
def test_input_errors_share_the_base(error):
    assert issubclass(error, InputError)


@pytest.mark.parametrize("error", [
    NonDisjointCyclesError, InfeasibleStartError, NotOneHotError,
    DimensionMismatchError, DegenerateRangeError])
def test_fault_errors_are_not_input_errors(error):
    assert issubclass(error, ValueError)
    assert not issubclass(error, InputError)


@pytest.mark.parametrize("make", [
    lambda: Budget(time_limit=0),
    lambda: Budget(time_limit=math.nan),
    lambda: Budget(max_iterations=-1),
    lambda: Budget(max_iterations=2.5),
    lambda: SolveRequest(Qubo(1), seed=-1),
    lambda: SolveRequest(Qubo(1), seed=1.0),
    lambda: DecomposeConfig(max_steps=-1),
    lambda: DecomposeConfig(subproblem_size=0),
    lambda: DecomposeConfig(strategy="greedy"),
    lambda: DecomposeConfig(seed=-1),
    lambda: DecomposeConfig(time_limit=0.0),
    lambda: ExperimentSettings(seeds=(0, -1)),
    lambda: ExperimentSettings(seeds=(0.5,)),
    lambda: Qubo(-1),
    lambda: Qubo(2.0),
    lambda: normalize_range(Qubo(2), 0.0, 1.0, 0),
    lambda: synth_instance(0, 3, 2, 1),
    lambda: synth_instance(2, 3, 0, 1),
    lambda: synth_instance(2, 3, 2, 0),
    lambda: synth_instance(2, 3.0, 2, 1),
    lambda: synth_instance(2, 3, 2, 1, seed=-1),
    lambda: synth_instance(2, 3, 2, 1, seed=0.5),
    lambda: ProblemInstance(T=0, n=1, k=2, L=1, p=np.zeros((1, 2)),
                            c=np.zeros((0, 1, 2)), S=np.zeros((1, 1)),
                            M=np.zeros((0, 1)), tau=np.zeros(0)),
    lambda: estimate_sensitivity(np.eye(2), np.eye(2), max_iterations=2.5),
    lambda: estimate_sensitivity(np.eye(2), np.eye(2), max_iterations=-1),
], ids=["budget-time-limit-0", "budget-time-limit-nan",
        "budget-max-iterations-negative", "budget-max-iterations-float",
        "request-seed-negative", "request-seed-float",
        "decompose-max-steps-negative", "decompose-subproblem-size-0",
        "decompose-strategy", "decompose-seed-negative",
        "decompose-time-limit-0", "settings-seed-negative",
        "settings-seed-float", "qubo-dim-negative", "qubo-dim-float",
        "normalize-ones-count-0", "synth-n-0", "synth-T-0", "synth-L-0", "synth-k-float",
        "synth-seed-negative", "synth-seed-float", "instance-T-0",
        "fit-max-iterations-float", "fit-max-iterations-negative"])
def test_argument_checks_raise_input_error(make):
    with pytest.raises(InputError):
        make()


@pytest.mark.parametrize("T", [0, 7])
def test_aggregate_time_rejects_T_outside_the_series(network, T):
    with pytest.raises(InputError, match="T must be in 1..6"):
        aggregate_time(network, T)


@pytest.mark.parametrize("kwargs", [
    {"T": 0}, {"T": 7}, {"T": 2.0}, {"k": 3.0}, {"seed": -1}, {"seed": 1.5}])
def test_build_instance_checks_its_own_arguments(network, kwargs):
    with pytest.raises(InputError):
        build_instance(network, **{"T": 2, "k": 3, **kwargs})


@pytest.mark.parametrize("kwargs", [
    {"batch_size": 0}, {"batch_size": 2.0}, {"seed": -1}, {"seed": 0.5}])
def test_alpha_expansion_rejects_with_input_error(alpha_args, kwargs):
    with pytest.raises(InputError):
        alpha_expansion(*alpha_args, **kwargs)


@pytest.mark.parametrize("argv", [
    ["experiment", "score-norm", "--seeds", "0,-1"],
    ["experiment", "timeseries", "--seeds", "0,-1"],
    ["build-instance", "--size", "S", "--seed", "-1"],
    ["build-instance", "--T", "9", "--k", "3"],
], ids=["score-norm-later-seed", "timeseries-later-seed",
        "build-seed-negative", "build-T-beyond-series"])
def test_library_rejection_exits_2(tmp_path, capsys, argv):
    # each rule lives in the package alone; the command line reaches exit 2
    # through the error's type
    net = write_synthetic_network(tmp_path / "net", 3, 2, 6, n_fixed=2,
                                  seed=0)
    out = (["--out", str(tmp_path / "i.json")] if argv[0] == "build-instance"
           else ["--out-dir", str(tmp_path / "out")])
    assert main([*argv, "--data-dir", str(net), *out]) == 2
    assert "configuration error" in capsys.readouterr().err
