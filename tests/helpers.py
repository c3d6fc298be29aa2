"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the implementation's code paths: embedding
by explicit bit manipulation instead of tensordot, noise by Pauli twirl
instead of partial trace, norms by SVD instead of eigvalsh, channel
application by plain Python loops instead of einsum, the minimal vote
repetition count by plain bisection instead of interpolation, a decoded
failure by counting faults on classical bits instead of simulating states,
a Clifford circuit's exact alpha by tracking Pauli strings instead of
evolving states, the planner's level in 80-digit decimal arithmetic instead
of floats, the majority vote by an exact recurrence in k instead of a
binomial sum, a permutation circuit's noisy output on a basis input as an
exact Markov chain over bit strings instead of a density matrix.
"""

from __future__ import annotations

import decimal
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, product
from math import comb

import numpy as np

from ftqc import (
    Circuit,
    Gate,
    NoiseModel,
    OverallComputation,
    basis_encoding,
    basis_readout,
    vote,
)
from ftqc.channels import _GATE_TABLE
from ftqc.errors import CapExceededError
from ftqc.ftcalc import LEVEL_CAP

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

ONE_QUBIT_GATES = ("I", "X", "Y", "Z", "H", "S", "T")
TWO_QUBIT_GATES = ("CNOT", "CZ")


# --- random object generators -------------------------------------------------

def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phase = np.diag(r) / np.abs(np.diag(r))
    return q * phase


def ginibre_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    w = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = w @ w.conj().T
    return m / np.trace(m)


def random_cptp_kraus(dim: int, n_ops: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Ginibre Kraus stack normalized so that sum K+K = I exactly (to float)."""
    raw = [
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for _ in range(n_ops)
    ]
    s = sum(k.conj().T @ k for k in raw)
    w, v = np.linalg.eigh(s)
    s_inv_half = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
    return [k @ s_inv_half for k in raw]


def random_instance(rng: np.random.Generator):
    """One randomized certification instance: circuit, noise, computation.

    Matches the distribution used by the theorem suite: up to 4 qubits, up
    to 12 gates, depolarizing strength in [0, 0.5], a random binary truth
    table, and single-qubit basis readout.
    """
    n = int(rng.integers(1, 5))
    n_gates = int(rng.integers(0, 13))
    gates = []
    for _ in range(n_gates):
        if n >= 2 and rng.random() < 0.35:
            name = TWO_QUBIT_GATES[int(rng.integers(0, len(TWO_QUBIT_GATES)))]
            a, b = rng.choice(n, size=2, replace=False)
            gates.append(Gate(targets=(int(a), int(b)), name=name))
        else:
            name = ONE_QUBIT_GATES[int(rng.integers(0, len(ONE_QUBIT_GATES)))]
            gates.append(Gate(targets=(int(rng.integers(0, n)),), name=name))
    circ = Circuit(num_qubits=n, gates=tuple(gates))
    noise = NoiseModel(kind="depolarizing", strength=float(rng.uniform(0.0, 0.5)))
    inputs = [format(i, f"0{n}b") for i in range(2 ** n)]
    table = {x: str(int(rng.integers(0, 2))) for x in inputs}
    comp = OverallComputation(
        inputs=tuple(inputs),
        outputs=("0", "1"),
        truth_table=table,
        init=basis_encoding(n, inputs),
        povm=basis_readout(n, measured=(0,)),
    )
    return circ, noise, comp


# --- independent oracles ---------------------------------------------------------

def svd_trace_norm(mat: np.ndarray) -> float:
    """Schatten 1-norm as the sum of singular values (route distinct from eigvalsh)."""
    return float(np.sum(np.linalg.svd(mat, compute_uv=False)))


def loop_apply(kraus_ops, mat: np.ndarray) -> np.ndarray:
    """sum_k K m K+ by a plain Python loop."""
    out = np.zeros_like(np.asarray(kraus_ops[0]) @ mat @ np.asarray(kraus_ops[0]).conj().T)
    for k in kraus_ops:
        k = np.asarray(k)
        out = out + k @ mat @ k.conj().T
    return out


def _bisect_min_repetitions(p_prime: float, target: float) -> int:
    """min_repetitions by doubling, then bisection on odd k, each evaluation
    through vote.majority_success (so a spy on it counts them); for
    0 <= p' < 1/2 and 0 < target < 1."""
    top = (vote.REPETITION_CAP - 1) | 1
    miss, k = 0, 1
    while vote.majority_success(p_prime, k) < target:
        if k == top:
            raise CapExceededError(
                f"no odd k <= {vote.REPETITION_CAP} reaches target {target} at p_prime {p_prime}"
            )
        miss, k = k, min(2 * k + 1, top)
    while k - miss > 2:
        mid = (miss + k) // 2 | 1
        if vote.majority_success(p_prime, mid) >= target:
            k = mid
        else:
            miss = mid
    return k


def exact_majority_success(p_prime: float, k: int) -> Fraction:
    """The probability that the majority of k runs is correct, for any odd
    k, as an exact fraction over the exact binary value p = num / den of
    p_prime, q = 1 - p.  Two more runs change the majority only from a
    margin of one, so s(1) = q and s(j + 2) = s(j) + C(j, m) (p q)**m (q - p)
    with m = (j + 1) / 2; the sum runs over S(j) = s(j) den**j in integers."""
    num, den = Fraction(p_prime).as_integer_ratio()
    good = den - num
    total, pq_pow = good, num * good
    for j in range(1, k, 2):
        total = total * den * den + comb(j, (j + 1) // 2) * pq_pow * (good - num)
        pq_pow *= num * good
    return Fraction(total, den ** k)


_DIGITS_80 = decimal.Context(prec=80, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def exact_plan(eps0: float, eps_th: float, gate_count: int, p: float, p_hat: float):
    """The planner's decision in 80-digit decimal arithmetic, on the exact
    values of the floats given: (the smallest level that meets the budget,
    or None, and ln(failure / budget) at each level 0..LEVEL_CAP), with
    failure = gate_count * eps_th * (eps0 / eps_th) ** (2 ** N) unclamped
    and budget = (p_hat - p) / 2.  A level meets the budget where its log
    ratio is at most 0."""
    with decimal.localcontext(_DIGITS_80):
        ln_eth = Decimal(eps_th).ln()
        budget = (Decimal(p_hat) - Decimal(p)) / 2
        base = Decimal(gate_count).ln() + ln_eth - budget.ln()
        slope = Decimal(eps0).ln() - ln_eth
        ratios = [base + 2 ** n * slope for n in range(LEVEL_CAP + 1)]
    return next((n for n, r in enumerate(ratios) if r <= 0), None), ratios


def random_search_oracle(circ: Circuit, noise: NoiseModel, trials: int, seed: int) -> float:
    """alpha_random_search one trial at a time: the same Philox draw keyed by
    (seed, trial), the ideal output through the product of embed_oracle
    unitaries, the noisy one through sequential_noisy_oracle, and the gap
    measured by the SVD trace norm."""
    dim = circ.dim
    u = np.eye(dim, dtype=complex)
    for gate in circ.gates:
        u = embed_oracle(gate.matrix, gate.targets, circ.num_qubits) @ u
    worst = 0.0
    for t in range(trials):
        gen = np.random.Generator(
            np.random.Philox(key=np.array([int(seed) % 2 ** 64, t], dtype=np.uint64))
        )
        v = gen.standard_normal(dim) + 1j * gen.standard_normal(dim)
        v = v / np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        gap = sequential_noisy_oracle(circ, noise.strength, rho) - u @ rho @ u.conj().T
        worst = max(worst, svd_trace_norm(gap))
    return worst


def embed_oracle(g: np.ndarray, targets, n: int) -> np.ndarray:
    """Expand a k-qubit operator to n qubits by explicit bit manipulation."""
    targets = tuple(targets)
    k = len(targets)
    d = 2 ** n
    out = np.zeros((d, d), dtype=complex)
    for c in range(d):
        bits = [(c >> (n - 1 - q)) & 1 for q in range(n)]
        tin = 0
        for t in targets:
            tin = (tin << 1) | bits[t]
        for tout in range(2 ** k):
            amp = g[tout, tin]
            if amp == 0:
                continue
            outbits = list(bits)
            for i, t in enumerate(targets):
                outbits[t] = (tout >> (k - 1 - i)) & 1
            r = 0
            for b in outbits:
                r = (r << 1) | b
            out[r, c] += amp
    return out


def _pauli_string(assignment: dict[int, str], n: int) -> np.ndarray:
    full = np.array([[1.0 + 0j]])
    for q in range(n):
        full = np.kron(full, _PAULI[assignment.get(q, "I")])
    return full


def depolarize_oracle(mat: np.ndarray, targets, n: int, lam: float) -> np.ndarray:
    """Depolarizing action on a register subset via the Pauli-twirl identity:

        (1 - lam) m + (lam / 4**k) * sum over all Pauli strings P on the
        targets of P m P+

    which equals (1 - lam) m + lam tr_T(m) (x) I/2**k on those positions.
    """
    targets = tuple(targets)
    k = len(targets)
    twirl = np.zeros_like(mat)
    labels = "IXYZ"
    for code in range(4 ** k):
        assignment = {}
        c = code
        for t in targets:
            assignment[t] = labels[c % 4]
            c //= 4
        p = _pauli_string(assignment, n)
        twirl = twirl + p @ mat @ p.conj().T
    return (1.0 - lam) * mat + (lam / 4 ** k) * twirl


def sequential_noisy_oracle(circ: Circuit, lam: float, rho: np.ndarray) -> np.ndarray:
    """Evolve a state gate by gate: embedded unitary, then depolarizing twirl."""
    state = np.array(rho, dtype=complex)
    for gate in circ.gates:
        u = embed_oracle(gate.matrix, gate.targets, circ.num_qubits)
        state = u @ state @ u.conj().T
        if lam > 0.0:
            state = depolarize_oracle(state, gate.targets, circ.num_qubits, lam)
    return state


# --- fault counting and channel bounds -------------------------------------------

def gate_name(gate: Gate) -> str | None:
    """The name of the table entry a named gate holds, or None for an explicit matrix."""
    return next((name for name, m in _GATE_TABLE.items() if gate.matrix is m), None)


def fault_counts(circ: Circuit, x: str, decode) -> tuple[Fraction, Fraction]:
    """Exact coefficients (c1, c2) of the decoded failure f(s) = c1 s +
    c2 s^2 + O(s^3) of a circuit of I and CNOT gates on the basis input x,
    read out in the Z basis and decoded by decode(bits).

    Depolarizing noise of strength s makes a gate faulty with probability
    s, and a faulty gate applies a uniform Pauli (identity included) to its
    targets.  Only the X part flips a Z readout: each target of a faulty
    gate flips with probability 1/2, and a later CNOT copies a flip from
    its control to its target.  With N_k the failing fraction summed over
    every set of k faulty gates among G, c1 = N_1 and c2 = N_2 - (G-1) N_1.
    A fault-tolerant gadget has c1 = 0, and c2 is then its count A of
    malignant fault pairs (Aliferis, Gottesman and Preskill, quant-ph/0504218).
    """
    gates, names = circ.gates, [gate_name(g) for g in circ.gates]
    assert all(name in ("I", "CNOT") for name in names)

    def decoded(flips):
        bits = [int(b) for b in x]
        for i, gate in enumerate(gates):
            if names[i] == "CNOT":
                bits[gate.targets[1]] ^= bits[gate.targets[0]]
            for q in flips.get(i, ()):
                bits[q] ^= 1
        return decode("".join(map(str, bits)))

    def failing(faulty):
        # every X part of the faulty gates' Paulis: one subset of each gate's targets
        subsets = [[c for r in range(len(gates[i].targets) + 1) for c in combinations(gates[i].targets, r)]
                   for i in faulty]
        cases = list(product(*subsets))
        return Fraction(sum(decoded(dict(zip(faulty, c))) != ideal for c in cases), len(cases))

    ideal = decoded({})
    n1 = sum(failing((i,)) for i in range(len(gates)))
    n2 = sum(failing(pair) for pair in combinations(range(len(gates)), 2))
    return n1, n2 - (len(gates) - 1) * n1


def exact_basis_output(circ: Circuit, x: str, s: float) -> dict[str, Fraction]:
    """The noisy output of basis input x, as an exact distribution over bit
    strings, for a circuit of I, X, Z, CNOT and CZ gates, each followed by
    depolarizing noise of strength Fraction(s) on its targets.

    A diagonal state stays diagonal, so the evolution is a Markov chain over
    bit strings: X and CNOT permute them, Z and CZ leave a diagonal state as
    it is, and the noise replaces the targets' bits with uniform ones with
    probability s.  The weights are integers over one common denominator,
    which each noisy gate multiplies by den * 2**k for s = num / den and k
    targets.  Any other gate raises ValueError.
    """
    num, den = Fraction(s).as_integer_ratio()
    dist, scale = {x: 1}, 1
    for gate in circ.gates:
        name, targets = gate_name(gate), gate.targets
        if name not in ("I", "X", "Z", "CNOT", "CZ"):
            raise ValueError(f"not a permutation or diagonal gate: {name or 'explicit matrix'}")
        if name in ("X", "CNOT"):  # flip the last target, under CNOT where the control is 1
            q = targets[-1]
            dist = {bits[:q] + "10"[int(bits[q])] + bits[q + 1:] if name == "X" or bits[targets[0]] == "1"
                    else bits: w for bits, w in dist.items()}
        if num:
            k, mixed = len(targets), {}
            for bits, w in dist.items():
                mixed[bits] = mixed.get(bits, 0) + (den - num) * 2 ** k * w
                for fill in product("01", repeat=k):
                    chars = list(bits)
                    for q, c in zip(targets, fill):
                        chars[q] = c
                    key = "".join(chars)
                    mixed[key] = mixed.get(key, 0) + num * w
            dist, scale = mixed, scale * den * 2 ** k
    return {bits: Fraction(w, scale) for bits, w in dist.items()}


def exact_basis_records(circ: Circuit, comp: OverallComputation, s: float) -> list[tuple[Fraction, ...]]:
    """Each input's exact (ideal_success, actual_success, inaccuracy_x), from
    exact_basis_output at strengths 0 and s, for a computation of basis
    inputs read out by diagonal effects; inaccuracy_x is the l1 distance of
    the two distributions, the trace norm of their diagonal difference."""
    diagonals = np.einsum("yii->yi", comp.povm)
    assert np.array_equal(comp.povm, diagonals[:, :, np.newaxis] * np.eye(comp.povm.shape[1]))
    records = []
    for x, y in zip(comp.inputs, comp.truth_table):
        effect = [Fraction(v) for v in diagonals[comp.outputs.index(y)].real]
        ideal, actual = exact_basis_output(circ, x, 0.0), exact_basis_output(circ, x, s)
        success = [sum(w * effect[int(bits, 2)] for bits, w in dist.items()) for dist in (ideal, actual)]
        gap = sum(abs(actual.get(bits, 0) - ideal.get(bits, 0)) for bits in actual.keys() | ideal.keys())
        records.append((*success, gap))
    return records


def _conjugate_paulis(gate: Gate, x: np.ndarray, z: np.ndarray) -> None:
    """Map the Pauli strings with X bits x and Z bits z (bit q for qubit q)
    in place to their conjugates by a Clifford gate, signs dropped."""
    name = gate_name(gate)
    if name == "H":
        flip = (x ^ z) & (1 << gate.targets[0])
        x ^= flip
        z ^= flip
    elif name == "S":
        z ^= x & (1 << gate.targets[0])
    elif name == "CNOT":  # X on the control spreads to the target, Z on the target to the control
        c, t = gate.targets
        x ^= ((x >> c) & 1) << t
        z ^= ((z >> t) & 1) << c
    elif name == "CZ":  # X on either qubit picks up Z on the other
        a, b = gate.targets
        z ^= (((x >> b) & 1) << a) | (((x >> a) & 1) << b)
    elif name not in ("I", "X", "Y", "Z"):
        raise ValueError(f"not a Clifford gate: {name or 'explicit matrix'}")


def clifford_diamond(circ: Circuit, s: float) -> float:
    """||P - G||_diamond exactly, for a circuit of named Clifford gates, each
    followed by depolarizing noise of strength s on its targets.

    P is then a Pauli channel N after the ideal unitary, and the distance is
    2 (1 - q_I), q_I being the weight of N's identity term: the mean over
    the 4**n Pauli strings Q of N's transfer factor, the product over the
    gates g of (1 - s) wherever W_g+ Q W_g acts on g's targets, W_g being
    the gates after g.  Each string is tracked backwards through the gates
    by its X and Z bit masks; no matrix is built.  A T gate or an explicit
    matrix raises ValueError.
    """
    n = circ.num_qubits
    x = np.repeat(np.arange(2 ** n), 2 ** n)
    z = np.tile(np.arange(2 ** n), 2 ** n)
    transfer = np.ones(4 ** n)
    for gate in reversed(circ.gates):
        mask = sum(1 << q for q in gate.targets)
        transfer[((x | z) & mask) != 0] *= 1.0 - s
        _conjugate_paulis(gate, x, z)
    return 2.0 * (1.0 - transfer.mean())


def diamond_bound(circ: Circuit, noise: NoiseModel) -> float:
    """An upper bound on alpha over all inputs: min(2, sum over the gates of
    ||id - Phi_s||_diamond = 2 s (1 - 4**-|T|)), Phi_s being depolarizing
    noise of strength s on the gate's targets T.  The diamond norm is
    unitarily invariant and contracts under channels, so the per-gate
    distances add up along the circuit (Watrous, arXiv:1207.5726)."""
    s = noise.strength
    return min(2.0, sum(2.0 * s * (1.0 - 4.0 ** -len(g.targets)) for g in circ.gates))
