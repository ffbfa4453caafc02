"""Test-only helpers that no production path calls."""

import numpy as np

from qchanc.circuits import Circuit, apply_circuit
from qchanc.pauli import weight
from qchanc.select_opt import Gf2Span, SelectTable


def simulate_unitary(c: Circuit, cap: int | None = None) -> np.ndarray:
    """Dense unitary of a circuit: apply_circuit on the identity."""
    return apply_circuit(c, np.eye(1 << c.total_qubits, dtype=complex), cap)


def select_cost(t: SelectTable) -> int:
    """Weighted control cost: sum of hw(address) * weight(g)."""
    return sum(a.bit_count() * weight(p) for a, p in t.factors.items())


def decode(span: Gf2Span, vec: int) -> int:
    """The combination of inserted tags that gives vec, which must be in the span."""
    red, comb = span.reduce(vec)
    if red:
        raise ValueError("vector is not in the span")
    return comb
