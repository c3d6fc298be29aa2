"""Resource planner and empirical verifier for fault-tolerant quantum
computations: density-operator simulation, combined failure-bound
certification, concatenation-level planning, and majority-vote analysis.

Every public name is imported from its home module on first use (PEP 562),
so `import ftqc` loads no submodule, and the planner (`ftcalc`, `vote`)
starts without numpy and the simulator.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and its home module, in the order of __all__; the
# module `errors` exports itself.
_EXPORTS = {
    name: home
    for home, names in (
        ("errors", "errors"),
        ("densmat", "DensityMatrix HermitianOperator effect_probability trace_norm"),
        ("channels", "Circuit Gate NoiseModel compile_ideal evolve"),
        ("kitaev", "OverallComputation basis_encoding basis_readout"),
        ("qcc", "InputRecord LinkingMaps MixingCheck QccReport alpha_random_search"
                " certify_combined_bound implemented_channel"
                " mixing_inaccuracy_bound_check"),
        ("ftcalc", "FtParams PlanResult TradeoffPoint circuit_failure epsilon_budget"
                   " logical_gate_error max_gate_error required_alpha required_levels"
                   " tradeoff_curve"),
        ("vote", "majority_success min_repetitions"),
    )
    for name in names.split()
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        home = _EXPORTS[name]
    elif name in _EXPORTS.values():  # a home module by its own name: ftqc.densmat
        home = name
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{home}", __name__)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
