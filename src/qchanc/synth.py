"""Circuit synthesis: LCU block encodings and the channel-LCU wrapper.

Each Pauli-sum Kraus operator K = sum_j y_j P_j becomes PREP_R, SELECT,
PREP_L-adjoint on a be_anc register, encoding K/alpha with alpha = sum|y_j|.
encode_channel decides that encoding once per operator and select mode as a
qubit-free KrausEncoding record (encode_kraus is a batch of one); circuits,
alphas and SELECT audits all read it.  encode_modes folds and classifies
each operator once for both modes: the emitted mode's records are
encode_channel's, the other mode's only what cost_cells reads.  Both modes
prepare the coefficient vector y the same way: the terms in order (naive,
full-address SELECT), or the PREPARE vector that comes with the operator's
SelectTable (optimized, monotone SELECT).  The PREPARE pairs of all of a
channel's operators are formed together, one numpy pass per padded width,
bit for bit as prepare_pair forms each alone; records hold Python numbers.
A channel is lowered by preparing kraus_sel amplitudes alpha_j/sqrt(sum a^2)
and multiplexing the per-Kraus encodings, each gate built once under its
multiplexor controls; the preparation is deliberately not undone, since
kraus_sel is traced out while be_anc is postselected to zero.
cost_cells prices that circuit from the records alone, without building it,
by the one cost model in the circuits module docstring: one count of the
record shapes per select mode serves both the plain and the flattened
multiplexor.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import partial

import numpy as np

from .circuits import (
    Circuit,
    CostReport,
    Gate,
    OpaqueUnitary,
    PauliGate,
    StatePrep,
    StatePrepAdjoint,
    controlled,
    cost_from_shapes,
)
from .ir import BlockEncRef, ChannelExpr, TypecheckError, typecheck
from .pauli import ZERO_TOL, PauliString, PauliSum, fold_terms, weight
from .select_opt import (
    SelectTable,
    build_monotone_select,
    flatten_select,
    naive_select,
    optimize_pauli_select,
    select_table,
)

SELECT_MODES = ("naive", "optimized")
# the least normal float, and a power of two that lifts a subnormal above it
_TINY = np.finfo(float).tiny
_LIFT = 2.0 ** 1000


def prepare_pair(coeffs):
    """Split coefficients into preparation vectors.

    Returns (beta, c, d) with beta = sum|y_j|, c real and d complex unit
    vectors, beta * conj(c_j) * d_j = y_j, zero-padded to a power of two.
    """
    (beta,), (c,), (d,) = _prepare_rows([list(coeffs)])
    return beta, np.array(c), np.array(d)


def _prepare_rows(ys: list[list]) -> tuple[list[float], list, list]:
    """prepare_pair of each coefficient list, in one numpy pass per padded
    width: (betas, cs, ds), with each c and d as a list of Python numbers.

    Every step is elementwise but the l1 sum, and a row sum of a C-ordered
    2-D array adds in the order the sum of that row alone does, so each
    result is bit for bit the one-vector result.  The first list, in
    order, that is all zero or whose l1 norm overflows raises.
    """
    rows: dict[int, list[int]] = {}  # width -> indices of its lists
    for i, y in enumerate(ys):
        rows.setdefault(1 << (max(len(y), 1) - 1).bit_length(), []).append(i)
    groups = []
    betas = [0.0] * len(ys)
    for width, idx in rows.items():
        flat: list = []
        for i in idx:
            flat += ys[i]
            flat += [0j] * (width - len(ys[i]))
        y = np.array(flat, dtype=complex).reshape(len(idx), width)
        with np.errstate(over="ignore"):
            mags = np.abs(y)
            row_sums = mags.sum(axis=1)
        for i, beta in zip(idx, row_sums.tolist()):
            betas[i] = beta
        groups.append((idx, y, mags, row_sums))
    for beta in betas:
        if beta == 0.0:  # the modulus of a nonzero entry is positive
            raise ValueError("prepare_pair needs at least one nonzero coefficient")
        if not math.isfinite(beta):
            raise ValueError("the coefficients' l1 norm overflows")
    cs, ds = [None] * len(ys), [None] * len(ys)
    for idx, y, mags, row_sums in groups:
        c = np.sqrt(mags / row_sums[:, None])
        phases = np.ones(y.shape, dtype=complex)
        nz = mags >= _TINY
        phases[nz] = y[nz] / mags[nz]
        # y / |y| overflows for a subnormal modulus: an exact power of two
        # lifts those entries first
        sub = (mags > 0) & ~nz
        if sub.any():
            lifted = y[sub] * _LIFT
            phases[sub] = lifted / np.abs(lifted)
        for i, c_row, d_row in zip(idx, c.tolist(), (c * phases).tolist()):
            cs[i], ds[i] = c_row, d_row
    return betas, cs, ds


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
    with the SELECT `table` in optimized mode.  A cost-only record (see
    encode_modes) of a Pauli sum has no `alpha` and no `prep`.
    """

    terms: tuple
    alpha: float | None
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
    optimize_pauli_select).  A batch of one for encode_channel."""
    return _encode_batch([k], select_mode, {} if tables is None else tables)[0]


def encode_channel(c: ChannelExpr, select_mode: str = "naive") -> list[KrausEncoding]:
    """One encoding record per Kraus operator; operators with the same
    canonical Pauli keys share one SelectTable."""
    return _encode_batch(c.kraus, select_mode, {})


def encode_modes(c: ChannelExpr, select_mode: str) -> dict[str, list[KrausEncoding]]:
    """The records of both select modes, from one fold and classification
    of each operator: {mode: records}.  The emitted `select_mode`'s records
    are encode_channel(c, select_mode)'s, errors included; the other mode's
    are what cost_cells reads, with no PREPARE pair formed: an opaque or
    lone-Pauli operator's record, which both modes share, or a Pauli sum's
    cost-only record (terms, width and, optimized, the table)."""
    priced: list = []
    emitted = _encode_batch(c.kraus, select_mode, {}, priced)
    other = next(m for m in SELECT_MODES if m != select_mode)
    return {select_mode: emitted, other: priced}


def _encode_batch(kraus, select_mode: str, tables: dict,
                  priced: list | None = None) -> list[KrausEncoding]:
    """The records of a list of operators, with the PREPARE vectors of all
    the Pauli-sum ones formed in one batch (_prepare_rows).  Errors are
    those of encoding each operator in turn: when an operator fails, the
    PREPARE vectors of the ones before it are formed first.  A `priced`
    list receives each operator's record in the other select mode (see
    encode_modes)."""
    if select_mode not in SELECT_MODES:
        raise ValueError(f"unknown select mode {select_mode!r}")
    other = next(m for m in SELECT_MODES if m != select_mode)
    out: list = []  # a record, or (terms, table, y) waiting for its PREPARE
    try:
        for k in kraus:
            terms, rec = _classify(k)
            if rec is None:
                rec = (terms, *_select(terms, select_mode, tables))
                if priced is not None:  # no PREPARE vector: the width, and the table
                    table = select_table(terms, tables) if other == "optimized" else None
                    # naive, the width of _select's y, which pads a lone term
                    width = table.s if table else max(len(terms) - 1, 1).bit_length()
                    priced.append(KrausEncoding(terms, None, width, table=table))
            elif priced is not None:
                priced.append(rec)
            out.append(rec)
    except Exception:
        # an earlier operator's PREPARE error comes first
        _prepare_rows([rec[2] for rec in out if type(rec) is tuple])
        raise
    waiting = [j for j, rec in enumerate(out) if type(rec) is tuple]
    betas, cs, ds = _prepare_rows([out[j][2] for j in waiting])
    for j, beta, c, d in zip(waiting, betas, cs, ds):
        terms, table, _ = out[j]
        out[j] = KrausEncoding(terms, beta, (len(c) - 1).bit_length(),
                               prep=(tuple(c), tuple(d)), table=table)
    return out


def _select(terms: tuple, select_mode: str, tables: dict) -> tuple:
    """(table, y) of a Pauli sum's canonical terms: the SelectTable
    (optimized mode) and the coefficients to prepare, whose padded length
    sets the record's width."""
    if select_mode == "optimized":
        return optimize_pauli_select(terms, tables)
    y = [c for c, _ in terms]
    # a lone complex term still takes one selector qubit
    return None, y + [0j] * (len(y) == 1)


def _classify(k: PauliSum):
    """(terms, record): the canonical terms and, for an opaque or lone
    positive Pauli operator, its record, the same in both select modes;
    None for a Pauli sum, whose records need its PREPARE vector."""
    terms = tuple(fold_terms(k.terms, ZERO_TOL).values())  # canonicalize_sum's terms
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
        return terms, KrausEncoding(terms, float(coeff.real) * ref.alpha, ref.anc,
                                    ref=ref, unitary=_dilation_unitary(ref))
    if not paulis:
        raise ValueError("cannot block-encode a zero Kraus operator")
    if len(paulis) == 1 and paulis[0][0].imag == 0 and paulis[0][0].real > 0:
        coeff, p = paulis[0]
        return terms, KrausEncoding(terms, float(coeff.real), 0, pauli=p)
    return terms, None


def encode_kraus_gates(enc: KrausEncoding, anc_qubits, sys_qubits,
                       controls=()) -> list[Gate]:
    """Block-encoding gates of a record on the given qubits, each built
    once under `controls` (a multiplexor's branch controls)."""
    if enc.width > len(anc_qubits):
        raise ValueError("not enough ancilla qubits for the encoding")
    sys_qubits, controls = tuple(sys_qubits), tuple(controls)
    if enc.ref is not None:
        # The dilation acts on one ancilla (its block index) plus the system;
        # any further declared ancillas idle at zero.
        qubits = sys_qubits if enc.ref.anc == 0 else (anc_qubits[0],) + sys_qubits
        return [controlled(controls, OpaqueUnitary(enc.ref.handle, qubits, enc.unitary))]
    if enc.pauli is not None:
        return [controlled(controls, PauliGate(enc.pauli, sys_qubits))]
    c, d = enc.prep
    sel = tuple(anc_qubits[:enc.width])
    if enc.table is not None:
        body = build_monotone_select(enc.table, sel, sys_qubits, controls)
    else:
        body = naive_select([(j, partial(_controlled_list, PauliGate(p, sys_qubits)))
                             for j, (_, p) in enumerate(enc.terms)], sel, controls)
    return [controlled(controls, StatePrep(sel, d)), *body,
            controlled(controls, StatePrepAdjoint(sel, c))]


def _controlled_list(gate: Gate, controls: tuple) -> list[Gate]:
    """A multiplexor branch of one gate: the gate under `controls`."""
    return [controlled(controls, gate)]


def block_encode(k: PauliSum, select_mode: str = "naive"):
    """Standalone block encoding: (Circuit, alpha).

    The top-left 2^n x 2^n block of the circuit unitary is eval_kraus/alpha.
    """
    n = typecheck(k)
    enc = encode_kraus(k, select_mode)
    registers = (("be_anc", enc.width), ("system", n))
    layout = Circuit(registers)  # the qubits of each register
    aq, sq = (layout.reg_qubits(name) for name, _ in registers)
    return Circuit(registers, encode_kraus_gates(enc, aq, sq)), enc.alpha


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

    run_channel(circuit, rhos) (be_anc postselected, kraus_sel and flat_anc
    traced) maps each state rho to (1/sum alpha_j^2) * [C](rho); the success
    probability is 1/sum alpha_j^2 for a trace-preserving channel.
    """
    n = c.n
    if encodings is None:
        encodings = encode_channel(c, select_mode)
    ell, flat_width, be_width = _register_widths(encodings, flatten)
    registers = (("kraus_sel", ell), ("flat_anc", flat_width),
                 ("be_anc", be_width), ("system", n))
    layout = Circuit(registers)  # the qubits of each register
    kq, fq, aq, sq = (layout.reg_qubits(name) for name, _ in registers)

    alphas = [enc.alpha for enc in encodings]
    norm = math.sqrt(sum(a * a for a in alphas))
    if not math.isfinite(norm):
        raise ValueError("the sum of the squared alphas overflows")

    if not ell:
        return Circuit(registers, encode_kraus_gates(encodings[0], aq, sq))
    # each branch builds its gates under the multiplexor's controls
    branches = [(j, partial(encode_kraus_gates, enc, aq, sq))
                for j, enc in enumerate(encodings)]
    amps = np.zeros(1 << ell, dtype=complex)
    amps[:len(alphas)] = np.asarray(alphas) / norm
    select = flatten_select(branches, kq, fq) if flatten else naive_select(branches, kq)
    return Circuit(registers, [StatePrep(kq, tuple(amps.tolist())), *select])


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
    closed form, both from one count of the record shapes.

    The multiplexor adds ell address controls to every body gate, or one
    flag control when flattened; the flattened unary-iteration tree over
    addresses 0..m-1 adds one Toffoli pair per tree node, two controlled X
    gates per node with two children (m - 1 of them) and two root X gates.
    """
    body = Counter(shape for enc in encodings for shape in _record_shapes(enc))
    m = len(encodings)
    cells = {}
    for flatten in (False, True):
        ell, flat_width, be_width = _register_widths(encodings, flatten)
        outer = 0 if not ell else 1 if flatten else ell
        shapes = Counter({(c + outer, w): k for (c, w), k in body.items()})
        if ell:
            shapes[0, None] += 1  # the kraus_sel preparation
        toffolis = 0
        if flat_width:
            toffolis = sum(((m - 1) >> k) + 1 for k in range(1, ell + 1))
            shapes[0, 1] += 2
            shapes[1, 1] += 2 * (m - 1)
            shapes[2, None] += toffolis  # computes
            shapes[0, None] += toffolis  # measured uncomputes
        cells[flatten] = cost_from_shapes(shapes, toffolis,
                                          ell + flat_width + be_width)
    return cells
