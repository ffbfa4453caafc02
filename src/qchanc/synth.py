"""Circuit synthesis: LCU block encodings and the channel-LCU wrapper.

Each Pauli-sum Kraus operator K = sum_j y_j P_j becomes PREP_R, SELECT,
PREP_L-adjoint on a be_anc register, encoding K/alpha with alpha = sum|y_j|.
encode_kraus decides that encoding once per select mode as a qubit-free
KrausEncoding record; circuits, alphas and SELECT audits all read it.  Both
modes prepare the coefficient vector y the same way: the terms in order
(naive, full-address SELECT), or the PREPARE vector that comes with the
operator's SelectTable (optimized, monotone SELECT).
A channel is lowered by preparing kraus_sel amplitudes alpha_j/sqrt(sum a^2)
and multiplexing the per-Kraus encodings; the preparation is deliberately not
undone, since kraus_sel is traced out while be_anc is postselected to zero.
cost_cells prices that circuit from the records alone, without building it,
by the one cost model in the circuits module docstring: one listing of the
record shapes per select mode serves both the plain and the flattened
multiplexor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuits import (
    Circuit,
    CostReport,
    Gate,
    OpaqueUnitary,
    PauliGate,
    StatePrep,
    StatePrepAdjoint,
    cost_from_shapes,
)
from .ir import BlockEncRef, ChannelExpr, TypecheckError, typecheck
from .pauli import PauliString, PauliSum, canonicalize_sum, weight
from .select_opt import (
    SelectTable,
    build_monotone_select,
    flatten_select,
    naive_select,
    optimize_pauli_select,
)

SELECT_MODES = ("naive", "optimized")


def prepare_pair(coeffs):
    """Split coefficients into preparation vectors.

    Returns (beta, c, d) with beta = sum|y_j|, c real and d complex unit
    vectors, beta * conj(c_j) * d_j = y_j, zero-padded to a power of two.
    """
    y = np.asarray(list(coeffs), dtype=complex)
    if y.size == 0 or not np.any(y):
        raise ValueError("prepare_pair needs at least one nonzero coefficient")
    width = 1 << max(0, math.ceil(math.log2(y.size)))
    y = np.pad(y, (0, width - y.size))
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


def _dilation_unitary(ref: BlockEncRef) -> np.ndarray | None:
    """Unitary completion of matrix/alpha; None when no matrix is attached."""
    if ref.matrix is None:
        return None
    ahat = ref.matrix / ref.alpha
    u, sv, vh = np.linalg.svd(ahat)
    if sv.max(initial=0.0) > 1.0 + 1e-9:
        raise ValueError(
            f"block encoding {ref.handle!r}: alpha is below the spectral norm")
    sv = np.clip(sv, 0.0, 1.0)
    comp = np.sqrt(1.0 - sv ** 2)
    if ref.anc == 0:
        if comp.max(initial=0.0) > 1e-6:
            raise ValueError(
                f"block encoding {ref.handle!r}: zero ancillas but the block "
                "is not unitary")
        return ahat
    dim = ahat.shape[0]
    left = np.zeros((2 * dim, 2 * dim), dtype=complex)
    left[:dim, :dim] = u
    left[dim:, dim:] = vh.conj().T
    right = np.zeros_like(left)
    right[:dim, :dim] = vh
    right[dim:, dim:] = u.conj().T
    mid = np.block([[np.diag(sv), np.diag(comp)],
                    [np.diag(comp), -np.diag(sv)]])
    return left @ mid @ right


@dataclass(frozen=True, slots=True)
class KrausEncoding:
    """Qubit-free LCU encoding of one Kraus operator in one select mode.

    `terms` are the canonical (coeff, primitive) pairs and `width` the be_anc
    qubits used.  One payload is set: an opaque `ref` with its dilation
    `unitary`, a lone positive `pauli`, or the PREPARE pair `prep` = (c, d),
    with the SELECT `table` in optimized mode.
    """

    terms: tuple
    alpha: float
    width: int
    ref: BlockEncRef | None = None
    unitary: np.ndarray | None = None
    pauli: PauliString | None = None
    prep: tuple | None = None
    table: SelectTable | None = None


def encode_kraus(k: PauliSum, select_mode: str = "naive",
                 tables: dict | None = None) -> KrausEncoding:
    """Build the encoding record; every validity check happens here.
    `tables` shares SelectTables between operators (see
    optimize_pauli_select)."""
    if select_mode not in SELECT_MODES:
        raise ValueError(f"unknown select mode {select_mode!r}")
    terms = tuple(canonicalize_sum(k).terms)
    paulis = [(c, p) for c, p in terms if isinstance(p, PauliString)]
    blocks = [(c, p) for c, p in terms if not isinstance(p, PauliString)]
    if blocks and paulis:
        raise TypecheckError("Kraus mixes Pauli and opaque primitives")
    if len(blocks) > 1:
        raise TypecheckError("LCU over multiple opaque encodings is not supported")
    if blocks:
        coeff, ref = blocks[0]
        if abs(coeff.imag) > 1e-15 or coeff.real <= 0:
            raise ValueError(
                "opaque block encodings take real positive coefficients; "
                "strip the phase with rule K2 first")
        return KrausEncoding(terms, float(coeff.real) * ref.alpha, ref.anc, ref=ref,
                             unitary=_dilation_unitary(ref))
    if not paulis:
        raise ValueError("cannot block-encode a zero Kraus operator")
    if len(paulis) == 1 and paulis[0][0].imag == 0 and paulis[0][0].real > 0:
        coeff, p = paulis[0]
        return KrausEncoding(terms, float(coeff.real), 0, pauli=p)

    if select_mode == "optimized":
        table, y = optimize_pauli_select(paulis, tables)
    else:
        table, y = None, [cc for cc, _ in paulis]
        y += [0j] * (len(y) == 1)  # a lone complex term still takes one selector qubit
    beta, c, d = prepare_pair(y)
    return KrausEncoding(terms, beta, int(math.log2(len(c))),
                         prep=(tuple(c), tuple(d)), table=table)


def encode_channel(c: ChannelExpr, select_mode: str = "naive") -> list[KrausEncoding]:
    """One encoding record per Kraus operator; operators with the same
    canonical Pauli keys share one SelectTable."""
    typecheck(c)
    tables: dict = {}
    return [encode_kraus(k, select_mode, tables) for k in c.kraus]


def encode_kraus_gates(enc: KrausEncoding, anc_qubits, sys_qubits) -> list[Gate]:
    """Block-encoding gates of a record on the given qubits."""
    if enc.width > len(anc_qubits):
        raise ValueError("not enough ancilla qubits for the encoding")
    sys_qubits = tuple(sys_qubits)
    if enc.ref is not None:
        # The dilation acts on one ancilla (its block index) plus the system;
        # any further declared ancillas idle at zero.
        qubits = sys_qubits if enc.ref.anc == 0 else (anc_qubits[0],) + sys_qubits
        return [OpaqueUnitary(enc.ref.handle, qubits, enc.unitary)]
    if enc.pauli is not None:
        return [PauliGate(enc.pauli, sys_qubits)]
    c, d = enc.prep
    sel = tuple(anc_qubits[:enc.width])
    if enc.table is not None:
        body = build_monotone_select(enc.table, sel, sys_qubits)
    else:
        body = naive_select([(j, [PauliGate(p, sys_qubits)])
                             for j, (_, p) in enumerate(enc.terms)], sel)
    return [StatePrep(sel, d), *body, StatePrepAdjoint(sel, c)]


def block_encode(k: PauliSum, select_mode: str = "naive"):
    """Standalone block encoding: (Circuit, alpha).

    The top-left 2^n x 2^n block of the circuit unitary is eval_kraus/alpha.
    """
    n = typecheck(k)
    enc = encode_kraus(k, select_mode)
    circ = Circuit((("be_anc", enc.width), ("system", n)))
    circ.extend(encode_kraus_gates(
        enc, circ.reg_qubits("be_anc"), circ.reg_qubits("system")))
    return circ, enc.alpha


def channel_alphas(c: ChannelExpr, select_mode: str = "naive",
                   encodings: list[KrausEncoding] | None = None) -> list[float]:
    """Per-Kraus block-encoding normalizations."""
    if encodings is None:
        encodings = encode_channel(c, select_mode)
    return [enc.alpha for enc in encodings]


def channel_lcu(c: ChannelExpr, select_mode: str = "naive",
                flatten: bool = False,
                encodings: list[KrausEncoding] | None = None) -> Circuit:
    """Channel-LCU circuit, from `encodings` when the caller has them.

    run_channel(circuit, states) (be_anc postselected, kraus_sel and flat_anc
    traced) maps each state rho to (1/sum alpha_j^2) * [C](rho); the success
    probability is 1/sum alpha_j^2 for a trace-preserving channel.
    """
    n = typecheck(c)
    if encodings is None:
        encodings = encode_channel(c, select_mode)
    ell, flat_width, be_width = _register_widths(encodings, flatten)
    circ = Circuit((("kraus_sel", ell), ("flat_anc", flat_width),
                    ("be_anc", be_width), ("system", n)))
    kq = circ.reg_qubits("kraus_sel")
    fq = circ.reg_qubits("flat_anc")
    aq = circ.reg_qubits("be_anc")
    sq = circ.reg_qubits("system")

    branches = [(j, encode_kraus_gates(enc, aq, sq))
                for j, enc in enumerate(encodings)]
    alphas = [enc.alpha for enc in encodings]
    norm = math.sqrt(sum(a * a for a in alphas))
    if not math.isfinite(norm):
        raise ValueError("the sum of the squared alphas overflows")

    if ell:
        amps = np.zeros(1 << ell, dtype=complex)
        amps[:len(alphas)] = np.asarray(alphas) / norm
        circ.add(StatePrep(kq, tuple(amps)))
        if flatten:
            circ.extend(flatten_select(branches, kq, fq))
        else:
            circ.extend(naive_select(branches, kq))
    else:
        circ.extend(branches[0][1])
    return circ


def _register_widths(encodings: list[KrausEncoding],
                     flatten: bool) -> tuple[int, int, int]:
    """Widths of the channel-LCU registers kraus_sel, flat_anc and be_anc."""
    m = len(encodings)
    if m == 0:
        raise ValueError("channel has no Kraus operators")
    ell = math.ceil(math.log2(m)) if m > 1 else 0
    return ell, ell + 1 if (flatten and ell) else 0, max(enc.width for enc in encodings)


def _record_shapes(enc: KrausEncoding) -> list[tuple[int, int | None]]:
    """Cost shape per gate of encode_kraus_gates (see the circuits docstring)."""
    if enc.ref is not None:
        return [(0, None)]
    if enc.pauli is not None:
        return [(0, weight(enc.pauli))]
    if enc.table is not None:
        body = [(addr.bit_count(), weight(g))
                for addr, g in enc.table.factors.items()]
    else:
        body = [(enc.width, weight(p)) for _, p in enc.terms]
    return [(0, None), *body, (0, None)]


def cost_cells(encodings: list[KrausEncoding]) -> dict[bool, CostReport]:
    """cost_report(channel_lcu(c, mode, flatten, encodings)) by flatten, in
    closed form, both from one listing of the record shapes.

    The multiplexor adds ell address controls to every body gate, or one
    flag control when flattened; the flattened unary-iteration tree over
    addresses 0..m-1 adds one Toffoli pair per tree node, two controlled X
    gates per node with two children (m - 1 of them) and two root X gates.
    """
    body = [shape for enc in encodings for shape in _record_shapes(enc)]
    m = len(encodings)
    cells = {}
    for flatten in (False, True):
        ell, flat_width, be_width = _register_widths(encodings, flatten)
        outer = 0 if not ell else 1 if flatten else ell
        shapes = [(0, None)] if ell else []  # the kraus_sel preparation
        shapes += [(c + outer, w) for c, w in body]
        toffolis = 0
        if flat_width:
            toffolis = sum(((m - 1) >> k) + 1 for k in range(1, ell + 1))
            shapes += [(0, 1)] * 2 + [(1, 1)] * (2 * (m - 1))
            shapes += [(2, None), (0, None)] * toffolis  # compute, measured uncompute
        cells[flatten] = cost_from_shapes(shapes, toffolis,
                                          ell + flat_width + be_width)
    return cells
