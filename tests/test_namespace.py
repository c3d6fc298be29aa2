import subprocess
import sys
import types
from pathlib import Path

import pytest

import ftqc

# the package's public names, in the order they were published
EXPORTED = [
    "errors",
    "DensityMatrix", "HermitianOperator", "effect_probability", "trace_norm",
    "Circuit", "Gate", "NoiseModel", "compile_ideal", "evolve",
    "OverallComputation", "basis_encoding", "basis_readout",
    "InputRecord", "LinkingMaps", "MixingCheck", "QccReport", "alpha_random_search",
    "certify_combined_bound", "implemented_channel",
    "mixing_inaccuracy_bound_check",
    "FtParams", "PlanResult", "TradeoffPoint", "circuit_failure", "epsilon_budget",
    "logical_gate_error", "max_gate_error", "required_alpha", "required_levels",
    "tradeoff_curve",
    "majority_success", "min_repetitions",
]


def test_all_keeps_names_and_order():
    assert ftqc.__all__ == EXPORTED
    assert len(EXPORTED) == 33


@pytest.mark.parametrize("name", EXPORTED[1:])
def test_name_is_its_home_modules_object(name):
    obj = getattr(ftqc, name)
    home = obj.__module__
    assert home.startswith("ftqc.")
    assert getattr(sys.modules[home], name) is obj


def test_errors_is_the_module():
    assert isinstance(ftqc.errors, types.ModuleType)
    assert ftqc.errors is sys.modules["ftqc.errors"]
    assert ftqc.trace_norm is ftqc.densmat.trace_norm


def test_star_import_binds_every_name():
    namespace = {}
    exec("from ftqc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTED)
    assert set(EXPORTED) <= set(dir(ftqc))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ftqc.no_such_name
    assert not hasattr(ftqc, "cli_main")


def test_import_loads_no_submodule():
    # then a submodule named as an attribute loads it and what it imports
    code = f"""
import sys
sys.path.insert(0, {str(Path(ftqc.__file__).parents[1])!r})
def loaded():
    return sorted(m for m in sys.modules if m.startswith("ftqc.") or m.split(".")[0] == "numpy")
import ftqc
print(loaded())
print(ftqc.vote.EXACT_K_LIMIT, loaded())
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "64 ['ftqc.errors', 'ftqc.vote']"]
