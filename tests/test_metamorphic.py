"""Metamorphic relations for the verifier at 5 to 8 qubits.

Each relation compares the verifier with itself under a change that must
not matter, so it needs no oracle: relabelling the qubits, reversing the
inputs and certifying each input alone.  The circuits are seeded and
random, about 25 gates each, with named one- and two-qubit gates in both
orientations and 3-target matrix gates whose targets come in any order.
The search, whose blocks shrink as the register grows, is compared with a
per-trial oracle across its block boundaries instead.
"""

import numpy as np
import pytest

import helpers
from ftqc import (
    Circuit,
    Gate,
    NoiseModel,
    OverallComputation,
    alpha_random_search,
    basis_encoding,
    basis_readout,
    certify_combined_bound,
    compile_ideal,
    implemented_channel,
    qcc,
)

TOL = 1e-12
NUM_GATES = 25
NUM_INPUTS = 6
# blocks hold 64, 16, 4 and 1 trials at n = 5..8, so from n = 6 on each count spans two blocks or more
SEARCH_TRIALS = {5: 17, 6: 17, 7: 5, 8: 2}
NOISE = NoiseModel(kind="depolarizing", strength=0.05)


def random_gates(n, rng):
    """NUM_GATES gates as (targets, name, matrix) triples, targets in random order."""
    gates = []
    for _ in range(NUM_GATES):
        k = int(rng.choice([1, 2, 3], p=[0.4, 0.4, 0.2]))
        targets = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
        if k == 3:
            gates.append((targets, None, helpers.haar_unitary(8, rng)))
        else:
            names = helpers.ONE_QUBIT_GATES if k == 1 else helpers.TWO_QUBIT_GATES
            gates.append((targets, names[int(rng.integers(len(names)))], None))
    return gates


def random_case(n):
    """Gates, input labels, measured qubits and truth table of one seeded instance."""
    rng = np.random.default_rng(n)
    gates = random_gates(n, rng)
    inputs = [format(int(i), f"0{n}b") for i in rng.choice(2 ** n, size=NUM_INPUTS, replace=False)]
    measured = tuple(int(q) for q in rng.choice(n, size=2, replace=False))
    table = {x: format(int(rng.integers(4)), "02b") for x in inputs}
    return gates, inputs, measured, table


def build(n, gates, inputs, measured, table, perm=None):
    """The circuit and computation of a case, qubit q relabelled perm[q] throughout."""
    perm = list(range(n)) if perm is None else perm

    def relabel(x):
        bits = [""] * n
        for q, bit in enumerate(x):
            bits[perm[q]] = bit
        return "".join(bits)

    circ = Circuit(n, [Gate(tuple(perm[q] for q in t), name, m) for t, name, m in gates])
    labels = [relabel(x) for x in inputs]
    readout = basis_readout(n, tuple(perm[q] for q in measured))
    comp = OverallComputation(labels, tuple(readout), {relabel(x): table[x] for x in inputs},
                              basis_encoding(n, labels), readout)
    return circ, comp


def assert_same_records(got, want):
    assert [r.x for r in got] == [r.x for r in want]
    for r, w in zip(got, want):
        np.testing.assert_allclose(r[1:], w[1:], rtol=0, atol=TOL, err_msg=r.x)


@pytest.fixture(scope="module", params=range(5, 9), ids=lambda n: f"n{n}")
def case(request):
    n = request.param
    gates, inputs, measured, table = random_case(n)
    circ, comp = build(n, gates, inputs, measured, table)
    return n, (gates, inputs, measured, table), circ, certify_combined_bound(circ, NOISE, comp)


def test_relabelling_the_qubits_keeps_every_record(case):
    n, parts, _, report = case
    perm = [int(q) for q in np.random.default_rng(100 + n).permutation(n)]
    circ, comp = build(n, *parts, perm=perm)
    got = certify_combined_bound(circ, NOISE, comp).per_input
    # each record keeps its own numbers under its relabelled input
    assert_same_records([r._replace(x=x) for r, x in zip(got, parts[1])], report.per_input)


def test_reversing_the_inputs_reverses_the_records(case):
    n, (gates, inputs, measured, table), _, report = case
    circ, comp = build(n, gates, inputs[::-1], measured, table)
    assert_same_records(certify_combined_bound(circ, NOISE, comp).per_input, report.per_input[::-1])


def test_each_input_alone_gives_the_joint_records(case):
    n, (gates, inputs, measured, table), _, report = case
    alone = []
    for x in inputs:
        circ, comp = build(n, gates, [x], measured, table)
        alone += certify_combined_bound(circ, NOISE, comp).per_input
    assert_same_records(alone, report.per_input)


@pytest.mark.parametrize("n", range(5, 9), ids=lambda n: f"n{n}")
def test_search_matches_the_per_trial_oracle_across_blocks(n):
    # two gates keep the oracle's dense Pauli twirl within the net's time
    circ = Circuit(n, [Gate((0,), "H"), Gate((n - 1, 0), "CNOT")])
    P, G = implemented_channel(circ, NOISE), compile_ideal(circ)
    got = alpha_random_search(P, G, qcc.LinkingMaps(), SEARCH_TRIALS[n], seed=n)
    assert got > 0.0
    assert got == pytest.approx(helpers.random_search_oracle(circ, NOISE, SEARCH_TRIALS[n], n), rel=0, abs=TOL)
