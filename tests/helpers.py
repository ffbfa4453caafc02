"""Test-only helpers that no production path calls."""

import numpy as np

from qchanc.circuits import Circuit, apply_circuit
from qchanc.ir import ChannelExpr, eval_kraus
from qchanc.pauli import weight
from qchanc.select_opt import Gf2Span, SelectTable


def simulate_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary of a circuit: apply_circuit on the identity."""
    return apply_circuit(c, np.eye(1 << c.total_qubits, dtype=complex))


def select_cost(t: SelectTable) -> int:
    """Weighted control cost: sum of hw(address) * weight(g)."""
    return sum(a.bit_count() * weight(p) for a, p in t.factors.items())


def decode(span: Gf2Span, vec: int) -> int:
    """The combination of inserted tags that gives vec, which must be in the span."""
    red, comb = span.reduce(vec)
    if red:
        raise ValueError("vector is not in the span")
    return comb


def apply_channel_loop(c: ChannelExpr, states) -> list:
    """ir.apply_channel's former per-state, per-Kraus loop: one
    sum_i K_i rho K_i^dag array per state."""
    mats = [(m, m.conj().T) for m in (eval_kraus(k) for k in c.kraus)]
    outs = []
    for rho in states:
        out = np.zeros((1 << c.n, 1 << c.n), dtype=complex)
        for m, m_dag in mats:
            out += m @ rho @ m_dag
        outs.append(out)
    return outs


def probe_states_list(n: int, samples: int = 32, seed: int = 7) -> list:
    """ir.probe_states' former list form: one array per computational basis
    state, then one per Haar-random pure state."""
    dim = 1 << n
    basis = []
    for i in range(dim):
        rho = np.zeros((dim, dim), dtype=complex)
        rho[i, i] = 1.0
        basis.append(rho)
    rng = np.random.default_rng(seed)
    haar = []
    for _ in range(samples):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        haar.append(np.outer(v, v.conj()))
    return basis + haar
