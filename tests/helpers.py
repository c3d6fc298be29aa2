"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the implementation's code paths: embedding
by explicit bit manipulation instead of tensordot, noise by Pauli twirl
instead of partial trace, norms by SVD instead of eigvalsh, channel
application by plain Python loops instead of einsum.
"""

from __future__ import annotations

import numpy as np

from ftqc import (
    Circuit,
    Gate,
    NoiseModel,
    OverallComputation,
    basis_encoding,
    basis_readout,
)

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


def haar_pure_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


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


def random_search_oracle(circ: Circuit, noise: NoiseModel, trials: int, seed: int) -> float:
    """alpha_random_search one trial at a time: the same Philox draw keyed by
    (seed, trial), the ideal output through the product of embed_oracle
    unitaries, the noisy one through sequential_noisy_oracle, and the gap
    measured by the SVD trace norm."""
    dim = circ.dim
    u = np.eye(dim, dtype=complex)
    for gate in circ.gates:
        u = embed_oracle(gate.unitary(), gate.targets, circ.num_qubits) @ u
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
        u = embed_oracle(gate.unitary(), gate.targets, circ.num_qubits)
        state = u @ state @ u.conj().T
        if lam > 0.0:
            state = depolarize_oracle(state, gate.targets, circ.num_qubits, lam)
    return state
