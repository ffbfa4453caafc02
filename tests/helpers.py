"""Test-only helpers that no production path calls."""

import math

import numpy as np

from qchanc.circuits import (Circuit, Controlled, OpaqueUnitary, PauliGate,
                             StatePrep, StatePrepAdjoint, ToffoliCompute,
                             ToffoliUncompute, apply_circuit, controlled,
                             householder_prep)
from qchanc.ir import ChannelExpr, eval_kraus, matrix_to_json, term_from_json
from qchanc.pauli import ZERO_TOL, PauliString, PauliSum, _bit_reversal, weight
from qchanc.select_opt import (Gf2Span, SelectTable, assign_additional_modes,
                               greedy_basis_selection, invert_modes_with_phases)


def simulate_unitary(c: Circuit) -> np.ndarray:
    """Dense unitary of a circuit: apply_circuit on the identity."""
    return apply_circuit(c, np.eye(1 << c.total_qubits, dtype=complex))


def wrapping(gates):
    """A multiplexor branch of built gates: each wrapped in the branch's
    controls."""
    return lambda controls: [controlled(controls, g) for g in gates]


def per_term_sum(n: int, terms: list, name: str) -> PauliSum:
    """An operator's term list read term by term, as a document reader
    reads an irregular list: a term's error is led by its position ("jump
    0 term 1"), the sum's by the operator's name ("jump 0")."""
    pairs = [term_from_json(t, f"{name} term {i}") for i, t in enumerate(terms)]
    try:
        return PauliSum(n, pairs)
    except ValueError as exc:
        exc.args = (f"{name}: {exc}",)
        raise


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


def pauli_action(p: PauliString, bits=None, dim: int | None = None):
    """Where p sends each basis column: p|j> = i**e * signs[j] |rows[j]>.

    Returns (rows, signs, e).  Site k of p acts on bit bits[k] of the state
    index, in a space of dimension dim; by default on bit n-1-k of an n-bit
    index, so site 0 is the most significant bit.
    """
    if bits is None:
        bits, dim = range(p.n - 1, -1, -1), 1 << p.n
    xs = zs = 0
    for k, b in enumerate(bits):
        xs |= ((p.x_mask >> k) & 1) << b
        zs |= ((p.z_mask >> k) & 1) << b
    cols = np.arange(dim, dtype=np.int64)
    signs = 1 - 2 * (np.bitwise_count(cols & zs) & 1).astype(np.int64)
    return cols ^ xs, signs, (p.phase_exp + (p.x_mask & p.z_mask).bit_count()) % 4


def _apply_dense(state, u, qubits, total):
    cols = state.shape[1]
    j = len(qubits)
    t = state.reshape((2,) * total + (cols,))
    rest = [a for a in range(total) if a not in set(qubits)] + [total]
    perm = list(qubits) + rest
    t = t.transpose(perm).reshape(1 << j, -1)
    t = u @ t
    t = t.reshape([2] * total + [cols]).transpose(np.argsort(perm))
    return t.reshape(1 << total, cols)


def _control_mask(idx, controls, total):
    ok = np.ones(idx.shape, dtype=bool)
    for q, pol in controls:
        ok &= ((idx >> (total - 1 - q)) & 1) == pol
    return ok


def _parent_apply_gate(state, g, total):
    dim = 1 << total
    if isinstance(g, PauliGate):
        # rows is an involution, so gathering by it applies the string
        rows, signs, e = pauli_action(g.string, [total - 1 - q for q in g.qubits], dim)
        return (1j) ** e * (signs[:, None] * state)[rows]
    if isinstance(g, Controlled):
        idx = np.arange(dim)
        ok = _control_mask(idx, g.controls, total)
        full = _parent_apply_gate(state, g.body, total)
        return np.where(ok[:, None], full, state)
    if isinstance(g, (ToffoliCompute, ToffoliUncompute)):
        idx = np.arange(dim)
        ok = _control_mask(idx, ((g.c1, g.p1), (g.c2, g.p2)), total)
        tbit = 1 << (total - 1 - g.target)
        out = state.copy()
        rows = idx[ok]
        out[rows ^ tbit] = state[rows]
        return out
    if isinstance(g, StatePrep):
        return _apply_dense(state, householder_prep(np.array(g.amps)), g.qubits, total)
    if isinstance(g, StatePrepAdjoint):
        u = householder_prep(np.array(g.amps)).conj().T
        return _apply_dense(state, u, g.qubits, total)
    if isinstance(g, OpaqueUnitary):
        return _apply_dense(state, g.matrix, g.qubits, total)
    raise TypeError(f"unknown gate {type(g).__name__}")


def parent_apply_circuit(c: Circuit, state: np.ndarray) -> np.ndarray:
    """circuits.apply_circuit's former full-state path, the oracle for the
    in-place one: every gate gathers, masks and copies all 2^N rows."""
    state = np.asarray(state, dtype=complex)
    for g in c.gates:
        state = _parent_apply_gate(state, g, c.total_qubits)
    return state


def parent_gate_to_json(g) -> dict:
    """circuits.gate_to_json as it was: one dict per gate, nested for a
    controlled body."""
    if isinstance(g, PauliGate):
        return {"kind": "pauli", "pauli": g.string.label(),
                "phase_exp": g.string.phase_exp, "qubits": list(g.qubits)}
    if isinstance(g, Controlled):
        return {"kind": "controlled",
                "controls": [[q, p] for q, p in g.controls],
                "body": parent_gate_to_json(g.body)}
    if isinstance(g, (StatePrep, StatePrepAdjoint)):
        kind = "state_prep" if isinstance(g, StatePrep) else "state_prep_adj"
        return {"kind": kind, "qubits": list(g.qubits),
                "amps": [[float(a.real), float(a.imag)] for a in g.amps]}
    if isinstance(g, (ToffoliCompute, ToffoliUncompute)):
        kind = "toffoli" if isinstance(g, ToffoliCompute) else "toffoli_unc"
        return {"kind": kind, "c1": g.c1, "c2": g.c2, "target": g.target,
                "p1": g.p1, "p2": g.p2}
    return {"kind": "opaque", "handle": g.handle, "qubits": list(g.qubits),
            "matrix": None if g.matrix is None else matrix_to_json(g.matrix)}


def parent_circuit_to_json(c: Circuit) -> dict:
    """circuits.circuit_to_json's former dict path, the oracle for the
    text writer: json.dumps(doc, sort_keys=True, indent=2) + "\n" of this
    dict (with alpha_sq_sum added) is the circuit.json text."""
    return {"registers": [{"name": n, "size": s} for n, s in c.registers],
            "gates": [parent_gate_to_json(g) for g in c.gates]}


def parent_prepare_pair(coeffs):
    """synth.prepare_pair as it was, one vector at a time: the oracle for
    the batched PREPARE vectors."""
    coeffs = list(coeffs)
    if not any(coeffs):
        raise ValueError("prepare_pair needs at least one nonzero coefficient")
    width = 1 << max(0, math.ceil(math.log2(len(coeffs))))
    y = np.zeros(width, dtype=complex)
    y[:len(coeffs)] = coeffs
    with np.errstate(over="ignore"):
        mags = np.abs(y)
        beta = float(mags.sum())
    if not math.isfinite(beta):
        raise ValueError("the coefficients' l1 norm overflows")
    c = np.sqrt(mags / beta)
    phases = np.ones(width, dtype=complex)
    nz = mags > 0
    phases[nz] = y[nz] / mags[nz]
    return beta, c, c * phases


def parent_select_tables(n: int, keys: list[PauliString]) -> SelectTable:
    """select_opt._select_tables as it was: both greedies always run, and
    the x-sorted one is taken when it covers strictly more rows."""
    s = max(1, math.ceil(math.log2(len(keys))))
    base = next((p for p in keys if p.is_identity()), None)
    targets = [p for p in keys if p is not base]
    if base is None and len(targets) >= 2:
        base = min(targets, key=lambda p: (weight(p), p.z_mask, p.x_mask))
        targets = [p for p in targets if p is not base]
    ax, az = (0, 0) if base is None else (base.x_mask, base.z_mask)
    recs = [(p.x_mask ^ ax, p.z_mask ^ az, p) for p in targets]
    rows_z = sorted(recs, key=lambda r: ((r[0] | r[1]).bit_count(), r[1], r[0]))
    rows_x = sorted(recs, key=lambda r: ((r[0] | r[1]).bit_count(), r[0], r[1]))
    sel_on_x, cov_on_x = greedy_basis_selection([(r[0], r[1]) for r in rows_x], s, n)
    sel_on_z, cov_on_z = greedy_basis_selection([(r[0], r[1]) for r in rows_z], s, n)
    if len(cov_on_x) > len(cov_on_z):
        rows, sel, cov = rows_x, sel_on_x, cov_on_x
    else:
        rows, sel, cov = rows_z, sel_on_z, cov_on_z
    entries = {addr: rows[j] for j, addr in cov.items()}
    generators = [(rows[i][0], rows[i][1]) for i in sel]
    remaining = [rows[j] for j in range(len(rows)) if j not in cov]
    assign_additional_modes(entries, generators, remaining, s)
    placed = {} if base is None else {0: base}
    placed.update((addr, p) for addr, (_, _, p) in entries.items())
    return SelectTable(s, placed, *invert_modes_with_phases(placed))


def parent_pauli_decompose(m: np.ndarray, n: int, tol: float = ZERO_TOL) -> PauliSum:
    """pauli.pauli_decompose as it was, one matrix at a time: the oracle for
    the stacked decomposition."""
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    g = np.empty((dim, dim), dtype=complex)
    for x in range(dim):
        g[x] = m[idx ^ x, idx]
    half = 1
    while half < dim:
        view = g.reshape(dim, dim // (2 * half), 2, half)
        lo, hi = view[:, :, 0, :], view[:, :, 1, :]
        diff = lo - hi
        lo += hi
        hi[...] = diff
        half *= 2
    g /= dim
    xs, zs = np.nonzero(np.abs(g) > tol)
    powers = np.array((1 + 0j, 1j, -1 + 0j, -1j))
    coeffs = g[xs, zs] * powers[-np.bitwise_count(xs & zs).astype(np.int64) % 4]
    rev = _bit_reversal(n)
    x_masks, z_masks = rev[xs], rev[zs]
    order = np.lexsort((x_masks, z_masks))
    strings = [PauliString(n, x, z)
               for x, z in zip(x_masks[order].tolist(), z_masks[order].tolist())]
    return PauliSum(n, list(zip(coeffs[order].tolist(), strings)))
