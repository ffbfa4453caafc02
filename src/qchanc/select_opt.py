"""SELECT optimizations.

Technique I: conditional flattening.  Exact-address multiplexors are lowered
to a rooted unary-iteration walk (one flag ancilla per tree level plus a root
flag, N-1 Toffoli pairs for N branches, each body fired by a single control).

Technique II: monotone-control decomposition.  Pauli targets are assigned
addresses so that the product of the gates g_c over the set bits c of an
address reproduces the target there; generators of a well-chosen subspace sit
at one-hot addresses and products come for free.  The address assignment is
the greedy heuristic over symplectic (x|z) vectors, on the rows sorted by
(weight, z, x) and, only when that leaves a row uncovered, by (weight, x,
z), taken when it covers strictly more; phase corrections from reordered
Pauli products are folded into the prepared coefficients.  One
SelectTable (see select_table) holds the result for a set of canonical keys;
optimize_pauli_select pairs it with the PREPARE vector of one operator's
coefficients.

The builders take an outer control list, and a multiplexor branch is a
function of its controls, so each gate is built once under every control
it ends up with.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable
from dataclasses import dataclass

from .circuits import (
    Controlled,
    Gate,
    PauliGate,
    ToffoliCompute,
    ToffoliUncompute,
)
from .pauli import ZERO_TOL, PauliString, fold_terms, weight


@dataclass(frozen=True, slots=True)
class SelectTable:
    """The SELECT of one canonical key set, on s address bits.

    `targets` maps each used address to its Pauli, `factors` each address
    whose monotone factor g is not the identity to g (gates fire on set
    bits), and `phases` each used address to the exponent of i folded into
    its prepared coefficient.  Shared between operators; nothing may change it.
    """

    s: int
    targets: dict[int, PauliString]
    factors: dict[int, PauliString]
    phases: dict[int, int]


# the audit keys "phase_exp" and "theta" are always 0: phases live in the
# prepared coefficients
def mode_table_json(t: SelectTable) -> list:
    spec = f"0{t.s}b"
    return [{"address": format(a, spec), "target": p.label(), "phase_exp": 0}
            for a, p in sorted(t.targets.items())]


def g_table_json(t: SelectTable) -> list:
    spec = f"0{t.s}b"
    return [{"address": format(a, spec), "g": p.label(), "theta": 0}
            for a, p in sorted(t.factors.items())]


class Gf2Span:
    """Row space over F2 with pivot elimination and combination tracking.

    `pivots` maps each pivot bit, highest first, to (row with that top bit,
    XOR of the inserted tags the row combines).  The greedy keeps its
    residuals current itself; this is the reference it is tested against.
    """

    def __init__(self):
        self.pivots: dict[int, tuple[int, int]] = {}

    def reduce(self, vec: int) -> tuple[int, int]:
        """Clear every pivot bit of vec, high to low: (residual, combination).

        The residual names vec's coset: it is shared exactly by the vectors
        whose sum with vec lies in the span.
        """
        comb = 0
        for bit, (row, tag) in self.pivots.items():
            if vec >> bit & 1:
                vec ^= row
                comb ^= tag
        return vec, comb

    def contains(self, vec: int) -> bool:
        return self.reduce(vec)[0] == 0

    def insert(self, vec: int, tag: int) -> bool:
        red, comb = self.reduce(vec)
        if red == 0:
            return False
        self.pivots[red.bit_length() - 1] = (red, comb ^ tag)
        self.pivots = dict(sorted(self.pivots.items(), reverse=True))
        return True


def greedy_basis_selection(rows: list[tuple[int, int]], s: int, n: int):
    """Pick generator rows maximizing covered targets per Pauli weight.

    Rows must be distinct and nonzero (`optimize_pauli_select` passes
    distinct canonical keys, anchor or identity removed).  Then no uncovered
    row is in the span, adding row v covers exactly the uncovered rows that
    share v's residual, and one count of residuals scores every candidate.
    Returns (selected row indices, {covered row index: address}), generator
    k at address 1 << k.  Stops at s generators, full coverage, or when
    accepting the best candidate would leave more uncovered rows than free
    non-subspace addresses.

    Each uncovered row keeps (residual, combination) modulo the generators
    chosen so far, with every pivot bit clear.  Such a residual is unique,
    so XORing each new pivot into the rows that have its top bit gives what
    a fresh reduction would.
    """
    weights = [(x | z).bit_count() for x, z in rows]
    chosen: list[int] = []
    covered: dict[int, int] = {}
    reduced = {j: ((x << n) | z, 0) for j, (x, z) in enumerate(rows)}
    while len(chosen) < s and reduced:
        counts: dict[int, int] = {}
        for red, _ in reduced.values():
            counts[red] = counts.get(red, 0) + 1
        # a candidate must leave no more rows than free non-subspace addresses
        need = len(reduced) - ((1 << s) - (1 << (len(chosen) + 1)))
        best = None
        best_score = 0.0
        for i, (red, _) in reduced.items():
            newly = counts[red]
            if newly < need:
                continue
            score = newly / weights[i]
            if best is None or score > best_score + 1e-12:
                best, best_score = i, score
        if best is None:
            break
        red, comb = reduced[best]
        tag = 1 << len(chosen)
        chosen.append(best)
        # same residual: row j = row best + the span rows of comb ^ comb_j
        for j in [j for j, (red_j, _) in reduced.items() if red_j == red]:
            covered[j] = tag ^ comb ^ reduced.pop(j)[1]
        top = red.bit_length() - 1
        for j, (red_j, comb_j) in reduced.items():
            if red_j >> top & 1:
                reduced[j] = (red_j ^ red, comb_j ^ comb ^ tag)
    return chosen, covered


def _weight_of(rec) -> int:
    """The Pauli weight of a record (x, z, payload)."""
    return (rec[0] | rec[1]).bit_count()


def assign_additional_modes(entries: dict, generators: list[tuple[int, int]],
                            remaining: list, s: int) -> None:
    """Place uncovered rows at free addresses, minimizing weight mismatch.

    `entries` maps address -> record (x, z, payload); the records of
    `remaining`, in sorted order, are added in place.  span[u] is the XOR of
    the generators at the set bits of u.  Block mp (addresses mp << d | u)
    may take the lightest row v0 at u = 0 as its base; then each u takes the
    row nearest base ^ span[u].  A greedy placing the least (mismatch, u,
    row position) pair each time makes the choices of one walk down the
    sorted pairs that skips used rows and addresses, since a placement only
    removes pairs.  Leftover rows fill the other free addresses, fewest set
    bits first, then lowest.
    """
    d = len(generators)
    r = s - d
    span = [(0, 0)]
    for gx, gz in generators:
        span += [(x ^ gx, z ^ gz) for x, z in span]
    rem = list(remaining)
    for mp in range(1, 1 << r):
        if not rem:
            break
        bx = bz = 0
        if len(rem) > ((1 << r) - mp + 1) * (len(span) - 1):
            v0 = min(rem, key=_weight_of)
            entries[mp << d] = v0
            rem.remove(v0)
            bx, bz = v0[0], v0[1]
        refs = [(u, bx ^ sx, bz ^ sz) for u, (sx, sz) in enumerate(span) if u]
        pairs = sorted([(((x ^ rx) | (z ^ rz)).bit_count(), u, i)
                        for i, (x, z, _) in enumerate(rem) for u, rx, rz in refs])
        placed, used = set(), set()
        for _, u, i in pairs:
            if i not in placed and u not in used:
                entries[(mp << d) | u] = rem[i]
                placed.add(i)
                used.add(u)
        rem = [rec for i, rec in enumerate(rem) if i not in placed]

    free = sorted((c for c in range(1, 1 << s) if c not in entries),
                  key=lambda c: (c.bit_count(), c))
    for c in free[:len(rem)]:
        sx, sz = span[c & ((1 << d) - 1)]
        rec = min(rem, key=lambda rec: ((rec[0] ^ sx) | (rec[1] ^ sz)).bit_count())
        entries[c] = rec
        rem.remove(rec)
    if rem:
        raise RuntimeError("ran out of control addresses")


def invert_modes_with_phases(targets: dict[int, PauliString]):
    """Peel assigned targets into monotone factors (Alg: subset-XOR).

    Returns (factors, phases) where phases[b] is the exponent of i to fold
    into the prepared coefficient at address b so that the ordered product of
    the factors over the set bits of b reproduces i^{phases[b]} P_b exactly.
    Ascending addresses: the factors at b's strict subsets are all placed,
    their product (taken in address order) fixes g_b, and g_b times it the
    phase.  Each partial product is kept as integers (x, z, i-power, and
    its Y count |x & z|), with pauli.multiply's phase rule; only a placed
    factor becomes a PauliString.
    """
    g: dict[int, PauliString] = {}
    placed: dict[int, tuple[int, int, int]] = {}  # address -> (x, z, |x & z|)
    phases: dict[int, int] = {}
    for b in sorted(targets):
        p = targets[b]
        ax = az = ay = e = 0  # the product q * acc, over the factors so far
        for c, (qx, qz, qy) in placed.items():
            if (c & b) != c:
                continue
            x, z = qx ^ ax, qz ^ az
            y = (x & z).bit_count()
            e += qy + ay + 2 * (qz & ax).bit_count() - y
            ax, az, ay = x, z, y
        gx, gz = p.x_mask ^ ax, p.z_mask ^ az
        if gx or gz:
            g[b] = PauliString(p.n, gx, gz)
            gy = (gx & gz).bit_count()
            placed[b] = (gx, gz, gy)
            e += gy + ay + 2 * (gz & ax).bit_count() - (p.x_mask & p.z_mask).bit_count()
        # the product now has p's masks: g_b was chosen so
        phases[b] = -e % 4
    return g, phases


def _select_tables(n: int, keys: list[PauliString]) -> SelectTable:
    """The SelectTable of distinct canonical Pauli keys.

    Every step orders the keys totally (the anchor, both row sorts, the
    greedy, the fallback and the inversion), so the table depends on the
    set of keys only, never on their order or coefficients.
    """
    s = max(1, math.ceil(math.log2(len(keys))))
    # address 0 holds the identity, else (with two or more keys) an anchor
    base = next((p for p in keys if p.is_identity()), None)
    targets = [p for p in keys if p is not base]
    if base is None and len(targets) >= 2:
        base = min(targets, key=lambda p: (weight(p), p.z_mask, p.x_mask))
        targets = [p for p in targets if p is not base]

    # records: (vec_x, vec_z, target), the vector shifted by the base
    ax, az = (0, 0) if base is None else (base.x_mask, base.z_mask)
    recs = [(p.x_mask ^ ax, p.z_mask ^ az, p) for p in targets]
    # the z-sorted greedy, unless the x-sorted one covers strictly more;
    # which can only be so when z leaves a row uncovered
    rows = sorted(recs, key=lambda r: ((r[0] | r[1]).bit_count(), r[1], r[0]))
    sel, cov = greedy_basis_selection([(r[0], r[1]) for r in rows], s, n)
    if len(cov) < len(rows):
        rows_x = sorted(recs, key=lambda r: ((r[0] | r[1]).bit_count(), r[0], r[1]))
        sel_x, cov_x = greedy_basis_selection([(r[0], r[1]) for r in rows_x], s, n)
        if len(cov_x) > len(cov):
            rows, sel, cov = rows_x, sel_x, cov_x

    entries = {addr: rows[j] for j, addr in cov.items()}
    generators = [(rows[i][0], rows[i][1]) for i in sel]
    remaining = [rows[j] for j in range(len(rows)) if j not in cov]
    assign_additional_modes(entries, generators, remaining, s)

    placed = {} if base is None else {0: base}
    placed.update((addr, p) for addr, (_, _, p) in entries.items())
    return SelectTable(s, placed, *invert_modes_with_phases(placed))


def select_table(terms, tables: dict) -> SelectTable:
    """The SelectTable of canonical Pauli terms (fold_terms's (coeff, bare
    string) pairs): from `tables`, which keeps each table by its set of
    fold_terms keys (which hold n), or built and kept there."""
    strings = [p for _, p in terms]
    keyset = frozenset([(p.n, p.x_mask, p.z_mask) for p in strings])
    if (table := tables.get(keyset)) is None:
        table = tables[keyset] = _select_tables(strings[0].n, strings)
    return table


def optimize_pauli_select(terms: list[tuple[complex, PauliString]],
                          tables: dict | None = None):
    """Assign addresses and monotone factors for a Pauli-sum SELECT.

    Returns (SelectTable, y) where y is the 2^s PREPARE vector: the
    phase-corrected coefficient at each used address, zero elsewhere.  Only
    y reads the coefficients: the table is select_table's for the folded
    terms, shared through `tables` when given.
    """
    if not terms:
        raise ValueError("empty term list")
    folded = fold_terms(terms, ZERO_TOL)
    if not folded:
        raise ValueError("all coefficients vanish")
    table = select_table(folded.values(), {} if tables is None else tables)
    y = [0j] * (1 << table.s)
    for addr, p in table.targets.items():
        y[addr] = folded[p.n, p.x_mask, p.z_mask][0] * (1j) ** table.phases[addr]
    return table, y


# --- circuit builders -------------------------------------------------------


def _addr_controls(addr: int, sel_qubits, polarity_for_zero: bool):
    s = len(sel_qubits)
    ctrls = []
    for k in range(s):
        bit = (addr >> (s - 1 - k)) & 1
        if bit:
            ctrls.append((sel_qubits[k], 1))
        elif polarity_for_zero:
            ctrls.append((sel_qubits[k], 0))
    return tuple(ctrls)


def build_monotone_select(t: SelectTable, sel_qubits, sys_qubits,
                          controls=()) -> list[Gate]:
    """One positively controlled Pauli per factor, ascending addresses,
    each built once under `controls` then its address bits."""
    gates: list[Gate] = []
    sys_qubits, controls = tuple(sys_qubits), tuple(controls)
    for addr, p in sorted(t.factors.items()):
        ctrls = controls + _addr_controls(addr, sel_qubits, False)
        body = PauliGate(p, sys_qubits)
        gates.append(Controlled(ctrls, body) if ctrls else body)
    return gates


def naive_select(branches: list[tuple[int, Callable[[tuple], list[Gate]]]],
                 sel_qubits, controls=()) -> list[Gate]:
    """Full-address (mixed polarity) controls, after `controls`, for each
    branch: a function that builds its gates under a control list."""
    gates: list[Gate] = []
    controls = tuple(controls)
    for addr, build in branches:
        gates += build(controls + _addr_controls(addr, sel_qubits, True))
    return gates


def flatten_select(branches: list[tuple[int, Callable[[tuple], list[Gate]]]],
                   sel_qubits, anc_qubits) -> list[Gate]:
    """Unary-iteration walk; each branch (see naive_select) builds its gates
    under one flag control, anc_qubits[len(sel_qubits)] for every leaf.

    Needs len(sel_qubits) + 1 ancillas: a root flag plus one per tree level.
    A full N-branch multiplexor costs exactly N-1 Toffoli pairs.
    """
    b = len(sel_qubits)
    if len(anc_qubits) < b + 1:
        raise ValueError("flattening needs one ancilla per level plus a root flag")
    by_addr = dict(branches)
    if any(not 0 <= a < (1 << b) for a in by_addr):
        raise ValueError("branch address out of range for the selector width")
    if b == 0:
        return [g for _, build in branches for g in build(())]
    gates: list[Gate] = []
    root = anc_qubits[0]
    x = PauliString(1, 1, 0)  # flips a flag; one string for every such gate
    leaf = ((anc_qubits[b], 1),)  # the flag of the last level
    gates.append(PauliGate(x, (root,)))

    addrs = sorted(by_addr)

    def used(start: int, stop: int) -> bool:
        """Whether some branch address lies in [start, stop)."""
        i = bisect_left(addrs, start)
        return i < len(addrs) and addrs[i] < stop

    def descend(flag: int, level: int, prefix: int) -> None:
        if level == b:
            if prefix in by_addr:
                gates.extend(by_addr[prefix](leaf))
            return
        shift = b - 1 - level
        # the addresses under this node, split by the bit at this level
        mid = ((prefix << 1) | 1) << shift
        lo, hi = used(mid - (1 << shift), mid), used(mid, mid + (1 << shift))
        if not (lo or hi):
            return
        bit_q = sel_qubits[level]
        child = anc_qubits[level + 1]
        if hi and lo:
            gates.append(ToffoliCompute(flag, bit_q, child))
            descend(child, level + 1, (prefix << 1) | 1)
            gates.append(Controlled(((flag, 1),), PauliGate(x, (child,))))
            descend(child, level + 1, prefix << 1)
            gates.append(Controlled(((flag, 1),), PauliGate(x, (child,))))
            gates.append(ToffoliUncompute(flag, bit_q, child))
        else:
            pol = 1 if hi else 0
            gates.append(ToffoliCompute(flag, bit_q, child, p2=pol))
            descend(child, level + 1, (prefix << 1) | pol)
            gates.append(ToffoliUncompute(flag, bit_q, child, p2=pol))

    descend(root, 0, 0)
    # descend's closure holds descend: emptying its cell breaks that cycle,
    # so the branches (and the records they build from) go with this call
    del descend
    gates.append(PauliGate(x, (root,)))
    return gates
