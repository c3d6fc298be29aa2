"""Reference results the benchmark checks the program's outputs against.

Nothing here imports ftqc.  The simulation references evolve one density
matrix at a time with local tensor contractions and apply depolarizing
noise as a Pauli twirl; the library instead compiles a Kraus channel from
the Choi matrix.  Trace norms come from singular values, not eigenvalues.
The planner references use the level recurrence eps_{N+1} = eps_N**2 / eps_th
in log-space and a log-space binomial tail built on math.lgamma.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

_S2 = 1.0 / math.sqrt(2.0)
GATES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "H": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, complex(_S2, _S2)]], dtype=complex),
    "CNOT": np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    "CZ": np.diag([1, 1, 1, -1]).astype(complex),
}
_PAULIS = [GATES[c] for c in "IXYZ"]


# --- density-matrix simulation ------------------------------------------------

def conjugate(rho: np.ndarray, m: np.ndarray, targets, n: int) -> np.ndarray:
    """rho -> M rho M+ with the k-qubit operator M acting on `targets`."""
    k = len(targets)
    d = 2 ** n
    mt = m.reshape((2,) * (2 * k))
    t = rho.reshape((2,) * (2 * n))
    t = np.tensordot(mt, t, axes=(list(range(k, 2 * k)), list(targets)))
    t = np.moveaxis(t, list(range(k)), list(targets))
    cols = [n + q for q in targets]
    t = np.tensordot(t, mt.conj(), axes=(cols, list(range(k, 2 * k))))
    t = np.moveaxis(t, list(range(2 * n - k, 2 * n)), cols)
    return t.reshape(d, d)


def depolarize(rho: np.ndarray, targets, n: int, strength: float) -> np.ndarray:
    """(1-s) rho + s * (Pauli twirl of rho on `targets`)."""
    if strength == 0.0:
        return rho
    k = len(targets)
    twirl = np.zeros_like(rho)
    for labels in itertools.product(range(4), repeat=k):
        p = _PAULIS[labels[0]]
        for j in labels[1:]:
            p = np.kron(p, _PAULIS[j])
        twirl += conjugate(rho, p, targets, n)
    return (1.0 - strength) * rho + (strength / 4 ** k) * twirl


def evolve(rho: np.ndarray, n: int, gates, strength: float) -> np.ndarray:
    """Run the gates in order, each followed by depolarizing noise on its targets."""
    for name, targets in gates:
        rho = conjugate(rho, GATES[name], targets, n)
        rho = depolarize(rho, targets, n, strength)
    return rho


def trace_norm(m: np.ndarray) -> float:
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))


def basis_state(index: int, d: int) -> np.ndarray:
    rho = np.zeros((d, d), dtype=complex)
    rho[index, index] = 1.0
    return rho


def certification(inst: dict) -> dict:
    """Expected QccReport fields for a basis-input, qubit-0-readout instance.

    inst: {"n", "gates": [[name, [targets]]], "strength", "truth_table"}.
    """
    n = inst["n"]
    d = 2 ** n
    gates = [(name, tuple(t)) for name, t in inst["gates"]]
    records = []
    for x, y in inst["truth_table"].items():
        rho = basis_state(int(x, 2), d)
        ideal = evolve(rho, n, gates, 0.0)
        actual = evolve(rho, n, gates, inst["strength"])
        # qubit 0 is the most significant bit of the basis index
        keep = [b for b in range(d) if (b >> (n - 1)) & 1 == int(y)]
        records.append(
            {
                "x": x,
                "ideal_success": min(1.0, max(0.0, float(np.real(ideal[keep, keep].sum())))),
                "actual_success": min(1.0, max(0.0, float(np.real(actual[keep, keep].sum())))),
                "inaccuracy_x": trace_norm(actual - ideal),
            }
        )
    p = max(1.0 - r["ideal_success"] for r in records)
    alpha = max(r["inaccuracy_x"] for r in records)
    return {
        "per_input": records,
        "alpha": alpha,
        "p": p,
        "bound_holds": True,
        "worst_margin": min(p + alpha - (1.0 - r["actual_success"]) for r in records),
    }


def random_search_alpha(inst: dict, trials: int, seed: int) -> float:
    """Largest inaccuracy over the Haar-random pure states of the documented
    sampling protocol: trial t draws from Philox keyed by (seed, t)."""
    n = inst["n"]
    d = 2 ** n
    gates = [(name, tuple(t)) for name, t in inst["gates"]]
    worst = 0.0
    for t in range(trials):
        gen = np.random.Generator(
            np.random.Philox(key=np.array([int(seed) % 2 ** 64, t], dtype=np.uint64))
        )
        v = gen.standard_normal(d) + 1j * gen.standard_normal(d)
        v = v / np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        gap = evolve(rho, n, gates, inst["strength"]) - evolve(rho, n, gates, 0.0)
        worst = max(worst, trace_norm(gap))
    return worst


# --- planner ---------------------------------------------------------------------

FEASIBILITY_SLACK = 1e-9  # documented relative slack of the level search


def log_level_error(eps0: float, eps_th: float, levels: int) -> float:
    """log eps_N by the recurrence eps_{N+1} = eps_N**2 / eps_th."""
    log_e, log_th = math.log(eps0), math.log(eps_th)
    for _ in range(levels):
        log_e = 2.0 * log_e - log_th
    return log_e


def level_margin(eps0, eps_th, gate_count, budget, levels) -> float:
    """log(circuit failure at `levels`) - log(budget * (1 + slack)); <= 0 fits."""
    log_fail = min(0.0, math.log(gate_count) + log_level_error(eps0, eps_th, levels))
    return log_fail - math.log(budget * (1.0 + FEASIBILITY_SLACK))


def level_is_minimal(eps0, eps_th, gate_count, budget, levels, tol=1e-9) -> bool:
    """N fits the budget and N-1 does not; a margin within tol counts either way."""
    if level_margin(eps0, eps_th, gate_count, budget, levels) > tol:
        return False
    return levels == 0 or level_margin(eps0, eps_th, gate_count, budget, levels - 1) > -tol


def majority_success(p_prime: float, k: int) -> float:
    """Binomial tail P[at least (k+1)/2 of k runs succeed], summed in log-space."""
    m = (k + 1) // 2
    lq, lp = math.log1p(-p_prime), math.log(p_prime)
    lk = math.lgamma(k + 1)
    logs = [
        lk - math.lgamma(j + 1) - math.lgamma(k - j + 1) + j * lq + (k - j) * lp
        for j in range(m, k + 1)
    ]
    top = max(logs)
    return math.exp(top) * math.fsum(math.exp(v - top) for v in logs)
