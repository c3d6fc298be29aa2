"""The CLI's exit contract under generated configs.

Every command is fed JSON configs made from a valid one by deleting keys,
adding keys and replacing values with values of the wrong type: booleans,
NaN and infinities, huge integers, ragged matrices and bad labels.  Each
run must end in exit 0, 1 or 2, raise nothing out of `cli.main`, print
exactly one stderr line when it fails, warn nothing and finish quickly.
The configs stay within 3 qubits and 50 random-search trials.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
import time
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftqc import cli

TIME_CAP_S = 2.0

VALID = {
    "plan": {"eps0": 1e-10, "eps_th": 1e-9, "gate_count": 1e12, "p": 0.2, "p_hat": 0.4},
    "tradeoff": {
        "eps0_min": 1e-13, "eps0_max": 1e-9, "points": 8,
        "eps_th": 1e-9, "gate_count": 1e12, "p": 0.2, "p_hat": 0.4,
    },
    "vote": {"p_prime": 0.15, "k": 3},
    "verify": {
        "circuit": {
            "num_qubits": 2,
            "gates": [
                {"name": "H", "targets": [0]},
                {"name": "CNOT", "targets": [0, 1]},
                {"matrix": [[0, 1], [1, 0]], "targets": [1]},
            ],
        },
        "computation": {
            "inputs": ["00", "11"],
            "outputs": ["0", "1"],
            "truth_table": {"00": "0", "11": "1"},
            "povm": {
                "0": [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]],
                "1": [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1]],
            },
        },
        "noise": {"kind": "depolarizing", "strength": 0.05},
        "random_search_trials": 20,
        "ancilla_dim": 1,
    },
}

# keys a mutation may add to a command's config: its optional and reserved
# keys, and for verify the keys of nested sections
RESERVED = ("seed", "format", "output_path")
EXTRA_KEYS = {
    "plan": ("levels", "success_target") + RESERVED,
    "tradeoff": ("success_target",) + RESERVED,
    "vote": ("target", "k") + RESERVED,
    "verify": ("random_search_trials", "ancilla_dim", "name", "matrix", "targets",
               "strength", "0", "") + RESERVED,
}

NUMBERS = (
    True, False, None, float("nan"), float("inf"), float("-inf"), 0, -1, 1, 3, 50,
    0.5, -0.0, 1e308, 5e-324, 2 ** 63, 2 ** 64 + 1, 10 ** 13 + 1, 10 ** 400, -(10 ** 400),
)
STRINGS = ("", "0", "01", "0\n1", "0a", "H", "computational_basis", "no/such/file.json")
SHAPES = (
    [], {}, [0, 1], [[1]], [[1, 0], [0, 1]], [[1, 0], [0]], [[1, 0, 0], [0, 1, 0]],
    [[1e308, 1e308], [1e308, 1e308]], [[1, [0, 1]], [[0, -1], 1]], [[10 ** 400, 0], [0, 1]],
    [[float("nan"), 0], [0, 1]], [[True, 0], [0, 1]], [["0", 0], [0, 1]],
    ["0", "1"], ["00", "0"], ["", "1"], ["00", "00"], {"0": "0"}, {"00": "2"},
)


def junk_for(keys):
    return st.one_of(
        st.sampled_from(NUMBERS),
        st.one_of(st.sampled_from(STRINGS), st.text(alphabet="01x\n", max_size=3)),
        st.sampled_from(SHAPES),
        st.recursive(
            st.one_of(st.integers(-5, 50), st.floats(), st.text(alphabet="01x", max_size=2)),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.sampled_from(keys), inner, max_size=2),
            max_leaves=4,
        ),
    ).map(copy.deepcopy)


JUNK = {keys: junk_for(keys) for keys in EXTRA_KEYS.values()}


@st.composite
def mutated(draw, value, keys, spread):
    """value with each key or element kept (and mutated inside), deleted or
    replaced by junk, and perhaps a key added; about one in `spread` of
    them is touched."""
    pairs = list(value.items()) if isinstance(value, dict) else list(enumerate(value))
    kept = []
    for key, item in pairs:
        roll = draw(st.integers(0, spread))
        if roll == 0:
            continue  # deleted
        if roll == 1:
            item = draw(JUNK[keys])
        elif isinstance(item, (dict, list)):
            item = draw(mutated(item, keys, spread))
        kept.append((key, item))
    if draw(st.integers(0, spread)) == 0:
        kept.append((draw(st.sampled_from(keys)), draw(JUNK[keys])))
    if isinstance(value, dict):
        return dict(kept)
    return [item for _, item in kept]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("command", sorted(VALID))
@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_any_config_keeps_the_exit_contract(command, data):
    spread = 30 if command == "verify" else 2
    cfg = data.draw(mutated(VALID[command], EXTRA_KEYS[command], spread), label="config")
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        # an output_path in the config writes into the scratch directory
        os.chdir(tmp)
        try:
            with open("cfg.json", "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            started = time.perf_counter()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, err = run_main([command, "--config", "cfg.json"])
            elapsed = time.perf_counter() - started
        finally:
            os.chdir(here)
    assert code in (0, 1, 2)
    # a warning would print its own stderr lines in a real run
    assert [str(w.message) for w in caught] == []
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), err
    assert elapsed < TIME_CAP_S
