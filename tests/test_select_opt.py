import math
from collections import Counter

import numpy as np
import pytest

from qchanc.circuits import (
    Circuit,
    Controlled,
    PauliGate,
    cost_report,
)
from qchanc.pauli import (PauliString, PauliSum, canonicalize_sum, from_label,
                          multiply, to_matrix, weight)
from qchanc import select_opt
from qchanc.select_opt import (
    Gf2Span,
    assign_additional_modes,
    build_monotone_select,
    flatten_select,
    greedy_basis_selection,
    g_table_json,
    invert_modes_with_phases,
    mode_table_json,
    naive_select,
    optimize_pauli_select,
)

from helpers import (decode, parent_select_tables, select_cost, simulate_unitary,
                     wrapping)

RNG = np.random.default_rng


def ps(label):
    return from_label(label)


def tfim3_terms():
    labels = ["III", "ZZI", "IZZ", "ZIZ", "XII", "IXI", "IIX", "ZII", "IZI", "IIZ"]
    coeffs = [0.9, 0.1j, 0.1j, 0.1j, 0.1j, 0.1j, 0.1j, -0.05, -0.05, -0.05]
    return [(c, ps(l)) for c, l in zip(coeffs, labels)]


def reconstruct(table, y, coeff_map):
    """Exact integer identity: ordered product of g over set bits of each
    address, phase-corrected coefficient equals the original coefficient;
    y is zero at every unused address."""
    n = next(iter(table.targets.values())).n
    assert len(y) == 1 << table.s
    assert all(y[a] == 0 for a in range(len(y)) if a not in table.targets)
    for addr, p in table.targets.items():
        acc = PauliString(n, 0, 0, 0)
        for c in sorted(table.factors):
            if (c & addr) == c:
                acc = multiply(table.factors[c], acc)
        assert (acc.x_mask, acc.z_mask) == (p.x_mask, p.z_mask)
        assert table.phases[addr] == -acc.phase_exp % 4
        want = coeff_map[(p.x_mask, p.z_mask)]
        assert y[addr] * (1j) ** acc.phase_exp == want


def coeffs_of(terms):
    n = terms[0][1].n
    canon = canonicalize_sum(PauliSum(n, list(terms)))
    return {(p.x_mask, p.z_mask): c for c, p in canon.terms}


class TestGf2Span:
    def test_insert_contains_decode(self):
        sp = Gf2Span()
        assert sp.insert(0b0101, 1)
        assert sp.insert(0b0011, 2)
        assert not sp.insert(0b0110, 4)
        assert sp.contains(0b0110)
        assert decode(sp, 0b0110) == 3
        with pytest.raises(ValueError):
            decode(sp, 0b1000)

    def test_residual_names_the_coset(self):
        rng = RNG(5)
        for _ in range(50):
            sp = Gf2Span()
            for k in range(int(rng.integers(1, 5))):
                sp.insert(int(rng.integers(1, 1 << 8)), 1 << k)
            span = [0]
            for row, _ in sp.pivots.values():
                span += [v ^ row for v in span]
            vec = int(rng.integers(0, 1 << 8))
            red, comb = sp.reduce(vec)
            assert all(red >> bit & 1 == 0 for bit in sp.pivots)
            assert {sp.reduce(vec ^ w)[0] for w in span} == {red}
            # the residual differs from vec by the span vector of comb
            assert decode(sp, vec ^ red) == comb


def probe_span_greedy(rows, s, n):
    """Reference greedy: one probe span per candidate, every row re-tested.

    Returns (selected row indices, set of covered row indices).
    """
    total = len(rows)
    span = Gf2Span()
    chosen, covered = [], set()
    while len(chosen) < s and len(covered) < total:
        best = None
        best_score = 0.0
        for i, (x, z) in enumerate(rows):
            if i in covered or span.contains((x << n) | z):
                continue
            probe = Gf2Span()
            probe.pivots = dict(span.pivots)
            probe.insert((x << n) | z, 0)
            newly = [j for j in range(total) if j not in covered
                     and probe.contains((rows[j][0] << n) | rows[j][1])]
            free_after = (1 << s) - (1 << (len(chosen) + 1))
            if free_after < total - len(covered) - len(newly):
                continue
            score = len(newly) / weight(PauliString(n, x, z))
            if best is None or score > best_score + 1e-12:
                best, best_score = (i, newly), score
        if best is None:
            break
        i, newly = best
        span.insert((rows[i][0] << n) | rows[i][1], 1 << len(chosen))
        chosen.append(i)
        covered.update(newly)
    return chosen, covered


def random_rows(rng, n, m):
    """m distinct nonzero (x, z) rows, as optimize_pauli_select passes them."""
    keys = rng.choice(np.arange(1, 4 ** n), size=m, replace=False)
    return [(int(k) >> n, int(k) & ((1 << n) - 1)) for k in keys]


class TestGreedy:
    @pytest.mark.parametrize("order", ["x", "z"])
    def test_matches_probe_span_greedy(self, order):
        rng = RNG(17)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            rows = random_rows(rng, n, int(rng.integers(1, min(4 ** n, 40))))
            # the two row orders optimize_pauli_select tries
            rows.sort(key=lambda r: ((r[0] | r[1]).bit_count(),
                                     *(r if order == "x" else r[::-1])))
            s = max(1, math.ceil(math.log2(len(rows) + 1)))
            sel, cov = greedy_basis_selection(rows, s, n)
            want_sel, want_cov = probe_span_greedy(rows, s, n)
            assert sel == want_sel
            assert set(cov) == want_cov
            fresh = Gf2Span()
            for k, i in enumerate(sel):
                fresh.insert((rows[i][0] << n) | rows[i][1], 1 << k)
            assert cov == {j: decode(fresh, (rows[j][0] << n) | rows[j][1])
                           for j in cov}

    def test_matches_parent_greedy_without_a_span(self, monkeypatch):
        rng = RNG(23)
        cases = []
        for _ in range(150):
            n = int(rng.integers(1, 6))
            rows = random_rows(rng, n, int(rng.integers(1, min(4 ** n, 80))))
            s = max(1, math.ceil(math.log2(len(rows) + 1)))
            cases.append((rows, s, n, parent_greedy_basis_selection(rows, s, n)))

        class NoSpan:
            def __init__(self):
                raise AssertionError("the greedy built a Gf2Span")

        monkeypatch.setattr(select_opt, "Gf2Span", NoSpan)
        steps = set()
        for rows, s, n, (want_sel, want_cov) in cases:
            sel, cov = greedy_basis_selection(rows, s, n)
            assert sel == want_sel
            # same covered rows, same addresses, inserted in the same order
            assert list(cov.items()) == list(want_cov.items())
            steps.add(len(sel))
        assert max(steps) >= 4

    def test_pair_product_coverage(self):
        # {X1, X2, X1X2}: two generators cover all three.
        rows = [(0b01, 0), (0b10, 0), (0b11, 0)]
        sel, cov = greedy_basis_selection(rows, 2, 2)
        assert len(sel) == 2
        assert set(cov) == {0, 1, 2}
        # Brute-force oracle over generator subsets: no single row covers all
        # three, some pair does.
        best = 0
        for pick in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
            sp = Gf2Span()
            for i in pick:
                sp.insert((rows[i][0] << 2) | rows[i][1], 0)
            best = max(best, sum(sp.contains((x << 2) | z) for x, z in rows))
        assert best == 3

    def test_capacity_early_stop(self):
        # n=2, s=2, targets X1, X2, Z1Z2: after one generator the remaining
        # two rows cannot fit in 4 - 4 = 0 free addresses, so greedy stops.
        rows = [(0b01, 0), (0b10, 0), (0, 0b11)]
        sel, cov = greedy_basis_selection(rows, 2, 2)
        assert len(sel) == 1
        assert set(cov) == {sel[0]}


class TestInvert:
    def test_one_hot_and_product_address(self):
        g, phases = invert_modes_with_phases({
            1: ps("ZI"),
            2: ps("IX"),
            3: PauliString(2, 0b10, 0b01),  # Z1 X2
        })
        assert g[1] == ps("ZI")
        assert g[2] == ps("IX")
        assert 3 not in g  # product of subsets, g = I
        assert phases == {1: 0, 2: 0, 3: 0}

    def test_anticommuting_product_phase(self):
        # Address 3 holds X1 while address 1 holds Z1: g_3 = Y1 and the
        # ordered product Y1 * Z1 = i X1 needs a compensating i^3.
        g, phases = invert_modes_with_phases({1: ps("ZI"), 3: ps("XI")})
        assert g[3] == PauliString(2, 0b01, 0b01)
        assert phases[1] == 0
        assert phases[3] == 3

    def test_matches_parent_two_walks(self):
        rng = RNG(31)
        phases = set()
        for _ in range(200):
            n = int(rng.integers(1, 4))
            s = int(rng.integers(1, 5))
            addrs = rng.choice(1 << s, size=int(rng.integers(1, (1 << s) + 1)),
                               replace=False)
            targets = {int(a): PauliString(n, int(rng.integers(1 << n)),
                                           int(rng.integers(1 << n)))
                       for a in addrs}
            g, phi = invert_modes_with_phases(targets)
            want_g, want_phi = parent_invert_modes_with_phases(targets)
            assert list(g.items()) == list(want_g.items())
            assert list(phi.items()) == list(want_phi.items())
            phases.update(phi.values())
        assert phases == {0, 1, 2, 3}

    def test_empty_table(self):
        assert invert_modes_with_phases({}) == ({}, {})


class TestOptimize:
    def test_tfim3_frozen_tables(self):
        terms = tfim3_terms()
        table, y = optimize_pauli_select(terms)
        assert table.s == 4
        want_modes = {
            0b0000: "III", 0b0001: "ZII", 0b0010: "IZI", 0b0011: "ZZI",
            0b0100: "IIZ", 0b0101: "ZIZ", 0b0110: "IZZ",
            0b1001: "XII", 0b1010: "IXI", 0b1100: "IIX",
        }
        assert {a: p.label() for a, p in table.targets.items()} == want_modes
        want_g = {
            0b0001: "ZII", 0b0010: "IZI", 0b0100: "IIZ",
            0b1001: "YII", 0b1010: "IYI", 0b1100: "IIY",
        }
        assert {a: p.label() for a, p in table.factors.items()} == want_g
        assert all(e["theta"] == 0 for e in g_table_json(table))
        assert all(e["phase_exp"] == 0 for e in mode_table_json(table))
        assert select_cost(table) == 9
        reconstruct(table, y, coeffs_of(terms))

    def test_tfim3_weighted_cost_optimal_by_exhaustion(self):
        terms = tfim3_terms()
        targets = [(p.x_mask, p.z_mask) for _, p in terms if p.x_mask or p.z_mask]
        assert select_cost(optimize_pauli_select(terms)[0]) == 9
        assert best_assignment_cost(targets, 4, ub=9) == 9

    def test_all_pauli_n2_one_hot(self):
        terms = []
        for x in range(4):
            for z in range(4):
                terms.append((1.0 + 0j, PauliString(2, x, z)))
        table, y = optimize_pauli_select(terms)
        assert table.s == 4
        want_g = {0b0001: PauliString(2, 0b01, 0), 0b0010: PauliString(2, 0b10, 0),
                  0b0100: PauliString(2, 0, 0b01), 0b1000: PauliString(2, 0, 0b10)}
        assert table.factors == want_g
        assert select_cost(table) == 4
        assert len(table.targets) == 16
        reconstruct(table, y, coeffs_of(terms))
        # Lower bound: four independent one-hot generators of weight 1 are
        # unbeatable, confirmed by the exhaustive search as well.
        targets = [(x, z) for x in range(4) for z in range(4) if x or z]
        assert best_assignment_cost(targets, 4, ub=4) == 4

    def test_single_term(self):
        table, y = optimize_pauli_select([(0.7 + 0j, ps("X"))])
        assert table.s == 1
        assert list(table.targets) == [1]
        assert table.factors[1] == ps("X")
        assert y == [0j, 0.7 + 0j]
        assert select_cost(table) == 1

    def test_anchor_without_identity(self):
        # {X, iY} on one qubit: X unconditional, Z on the address-1 control.
        terms = [(1.0 + 0j, ps("X")), (1j, ps("Y"))]
        table, y = optimize_pauli_select(terms)
        assert table.s == 1
        assert table.targets == {0: ps("X"), 1: ps("Y")}
        assert table.factors == {0: ps("X"), 1: ps("Z")}
        reconstruct(table, y, coeffs_of(terms))
        assert y[0] == 1.0 + 0j
        assert y[1] == 1.0 + 0j  # i from the coefficient cancels Z.X

    def test_v0_branch(self):
        labels = ["XII", "IXI", "IIX", "ZII", "IZI", "IIZ", "XXX"]
        terms = [(1.0 + 0j, ps(l)) for l in labels] + [(0.5 + 0j, ps("III"))]
        table, y = optimize_pauli_select(terms)
        assert table.s == 3
        # Greedy keeps only X1 (capacity), prefix loop then packs overflow
        # rows two per prefix via the v0 branch.
        assert table.targets[0b001] == ps("XII")
        assert table.targets[0b010] == ps("IXI")
        assert table.targets[0b011] == ps("XXX")
        assert table.targets[0b100] == ps("IIX")
        assert len(table.targets) == 8
        reconstruct(table, y, coeffs_of(terms))

    def test_reconstruction_fuzz(self):
        rng = RNG(11)
        for trial in range(40):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, min(16, 4 ** n) + 1))
            seen = set()
            terms = []
            while len(terms) < m:
                x = int(rng.integers(0, 1 << n))
                z = int(rng.integers(0, 1 << n))
                if (x, z) in seen:
                    continue
                seen.add((x, z))
                c = complex(rng.normal(), rng.normal())
                terms.append((c, PauliString(n, x, z)))
            table, y = optimize_pauli_select(terms)
            s = table.s
            assert s == max(1, int(np.ceil(np.log2(m))))
            assert len(table.targets) == m
            assert all(0 <= a < (1 << s) for a in table.targets)
            assert {(p.x_mask, p.z_mask) for p in table.targets.values()} == seen
            reconstruct(table, y, coeffs_of(terms))
            # Never worse than the naive select baseline (every target under
            # full-width address controls).
            naive = s * sum(weight(p) for _, p in terms if p.x_mask or p.z_mask)
            assert select_cost(table) <= naive

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            optimize_pauli_select([])
        with pytest.raises(ValueError):
            optimize_pauli_select([(0.0 + 0j, ps("X"))])

    def test_json_helpers(self):
        table, _ = optimize_pauli_select(tfim3_terms())
        mj = mode_table_json(table)
        gj = g_table_json(table)
        assert {"address": "0001", "target": "ZII", "phase_exp": 0} in mj
        assert {"address": "1001", "g": "YII", "theta": 0} in gj


def best_assignment_cost(targets, s, ub):
    """Exhaustive branch-and-bound optimality oracle.

    Searches every placement of the targets at distinct nonzero s-bit
    addresses, with the gate at each assigned address fixed by subset-XOR
    peeling (the same decomposition space the optimizer draws from), and
    returns the minimum weighted control cost found below ub, else ub.
    Prunes on the running cost and on the rank deficit: the gates must span
    the targets, so at least (full_rank - rank) more nontrivial gates are
    needed, each costing at least the Hamming weight of a free address.
    """
    addrs = sorted(range(1, 1 << s), key=lambda a: (a.bit_count(), a))
    best = ub
    full = Gf2Span()
    full_rank = sum(full.insert((x << 8) | z, 0) for x, z in targets)

    def dfs(i, rem, gates, cost, rank):
        nonlocal best
        if cost >= best:
            return
        if not rem:
            best = cost
            return
        if i == len(addrs) or len(rem) > len(addrs) - i:
            return
        deficit = full_rank - rank
        if deficit > 0:
            cheapest = sorted(a.bit_count() for a in addrs[i:])[:deficit]
            if cost + sum(cheapest) >= best:
                return
        a = addrs[i]
        dfs(i + 1, rem, gates, cost, rank)
        gx0 = gz0 = 0
        for c, (gx, gz) in gates.items():
            if (c & a) == c:
                gx0 ^= gx
                gz0 ^= gz
        for t in sorted(rem):
            x, z = targets[t]
            hx, hz = x ^ gx0, z ^ gz0
            w = (hx | hz).bit_count()
            g2 = dict(gates)
            g2[a] = (hx, hz)
            r2 = rank
            if w:
                sp = Gf2Span()
                for gx, gz in gates.values():
                    sp.insert((gx << 8) | gz, 0)
                if sp.insert((hx << 8) | hz, 0):
                    r2 += 1
            dfs(i + 1, rem - {t}, g2, cost + a.bit_count() * w, r2)

    dfs(0, frozenset(range(len(targets))), {}, 0, 0)
    return best


def parent_assign_additional_modes(entries, generators, remaining, s, n,
                                   assigned_weights, ran):
    """Oracle: the rescanning greedy the sorted walk replaced, as it was
    (entries map address -> payload, weights kept alongside), plus the two
    `ran.add` lines that record which branches ran."""
    d = len(generators)
    r = s - d

    def bofu(u):
        x = z = 0
        for i in range(d):
            if (u >> i) & 1:
                x ^= generators[i][0]
                z ^= generators[i][1]
        return x, z

    def vw(x, z):
        return (x | z).bit_count()

    rem = list(remaining)

    def place(addr, rec):
        entries[addr] = rec[2]
        assigned_weights[addr] = vw(rec[0], rec[1])

    for mp in range(1, 1 << r):
        if not rem:
            break
        avail = list(range(1, 1 << d))
        if len(rem) > ((1 << r) - mp + 1) * ((1 << d) - 1):
            ran.add("v0")
            v0 = min(rem, key=lambda rec: vw(rec[0], rec[1]))
            place(mp << d, v0)
            rem.remove(v0)
            base = (v0[0], v0[1])
        else:
            base = (0, 0)
        refs = {u: (base[0] ^ bofu(u)[0], base[1] ^ bofu(u)[1]) for u in avail}
        while rem and avail:
            best = None
            for rec in rem:
                for u in avail:
                    mm = vw(rec[0] ^ refs[u][0], rec[1] ^ refs[u][1])
                    if best is None or mm < best[0] or (mm == best[0]
                                                        and u < best[1]):
                        best = (mm, u, rec)
            _, u, rec = best
            place((mp << d) | u, rec)
            rem.remove(rec)
            avail.remove(u)

    if rem:
        ran.add("fallback")
        free = [c for c in range(1, 1 << s) if c not in entries]
        while rem and free:
            free.sort(key=lambda c: (c.bit_count(),
                                     sum(w for a, w in assigned_weights.items()
                                         if a < c), c))
            c = free.pop(0)
            u = c & ((1 << d) - 1)
            bx, bz = bofu(u)
            rec = min(rem, key=lambda rec: vw(rec[0] ^ bx, rec[1] ^ bz))
            place(c, rec)
            rem.remove(rec)
    if rem:
        raise RuntimeError("ran out of control addresses")


def parent_invert_modes_with_phases(targets):
    """Oracle: invert_modes_with_phases as it was, one walk for the factors
    and a second, re-sorting g per address, for the phases.  Returns
    ({address: g}, phi_ad)."""
    if not targets:
        return {}, {}
    n = next(iter(targets.values())).n
    g = {}
    for b in sorted(targets):
        p = targets[b]
        gx, gz = p.x_mask, p.z_mask
        for c, q in g.items():
            if (c & b) == c:
                gx ^= q.x_mask
                gz ^= q.z_mask
        if gx or gz:
            g[b] = PauliString(n, gx, gz)
    phi_ad = {}
    for b in sorted(targets):
        p = targets[b]
        acc = PauliString(n, 0, 0, 0)
        for c in sorted(g):
            if (c & b) == c:
                acc = multiply(g[c], acc)
        assert (acc.x_mask, acc.z_mask) == (p.x_mask, p.z_mask)
        phi_ad[b] = -acc.phase_exp % 4
    return g, phi_ad


def parent_greedy_basis_selection(rows, s, n):
    """Oracle: greedy_basis_selection as it was, every uncovered row
    reduced afresh through a Gf2Span at every step."""
    total = len(rows)
    span = Gf2Span()
    chosen, covered = [], {}
    while len(chosen) < s and len(covered) < total:
        reduced = {j: span.reduce((x << n) | z)
                   for j, (x, z) in enumerate(rows) if j not in covered}
        counts = Counter(red for red, _ in reduced.values())
        free_after = (1 << s) - (1 << (len(chosen) + 1))
        best = None
        best_score = 0.0
        for i, (red, _) in reduced.items():
            newly = counts[red]
            if free_after < total - len(covered) - newly:
                continue
            score = newly / (rows[i][0] | rows[i][1]).bit_count()
            if best is None or score > best_score + 1e-12:
                best, best_score = i, score
        if best is None:
            break
        red, comb = reduced[best]
        tag = 1 << len(chosen)
        span.insert((rows[best][0] << n) | rows[best][1], tag)
        chosen.append(best)
        for j, (red_j, comb_j) in reduced.items():
            if red_j == red:
                covered[j] = tag ^ comb ^ comb_j
    return chosen, covered


def parent_assign(ran):
    """assign_additional_modes' signature over the oracle: records in,
    records out, the oracle's payload map and weights in between."""
    def assign(entries, generators, remaining, s):
        payloads = {a: rec[2] for a, rec in entries.items()}
        weights = {a: (rec[0] | rec[1]).bit_count() for a, rec in entries.items()}
        parent_assign_additional_modes(payloads, generators, remaining, s, 0,
                                       weights, ran)
        by_payload = {id(rec[2]): rec for rec in remaining}
        for a, payload in payloads.items():
            if a not in entries:
                entries[a] = by_payload[id(payload)]
    return assign


def tie_heavy_case(rng):
    """(entries, generators, remaining, s): rows of two or three weights,
    d from 0 to s generators at one-hot addresses, some other addresses
    below 2^d taken, and up to every free address's worth of rows left."""
    n = int(rng.integers(2, 5))
    s = int(rng.integers(2, 5))
    d = int(rng.integers(0, s + 1))
    weights = rng.choice([1, 2, 3], size=int(rng.integers(2, 4)), replace=False)
    pool = [(x, z) for x in range(1 << n) for z in range(1 << n)
            if (x | z).bit_count() in weights]
    order = rng.permutation(len(pool))
    rows = [(*pool[k], f"r{k}") for k in order]
    gens, rows = rows[:d], rows[d:]
    entries = {1 << k: rec for k, rec in enumerate(gens)}
    for a in range(3, 1 << d):
        if a.bit_count() > 1 and rows and rng.random() < 0.3:
            entries[a] = rows.pop()
    room = (1 << s) - 1 - len(entries)
    remaining = rows[:int(rng.integers(1, room + 1))] if room and rows else []
    remaining.sort(key=lambda r: ((r[0] | r[1]).bit_count(), r[1], r[0]))
    return entries, [(x, z) for x, z, _ in gens], remaining, s


def random_pauli_sum(rng):
    n = int(rng.integers(2, 6))
    m = int(rng.integers(2, min(40, 4 ** n) + 1))
    keys = rng.choice(4 ** n, size=m, replace=False)
    # few distinct magnitudes: ties in the anchor and weight orders
    return [(complex(rng.choice([0.5, 1.0, -1.0]), rng.choice([0.0, 0.25])),
             PauliString(n, int(k) >> n, int(k) & ((1 << n) - 1))) for k in keys]


class TestAssignFallback:
    def test_fallback_uses_free_subspace_address(self):
        # One generator X1 on two qubits, three leftover rows, s = 2: the
        # prefix pass places two, the fallback sweeps up the last one.
        entries = {}
        gens = [(0b01, 0)]
        remaining = [(0b10, 0, "a"), (0b11, 0, "b"), (0, 0b01, "c")]
        assign_additional_modes(entries, gens, remaining, 2)
        # v0 branch puts "a" at prefix||0, "b" matches the generator reference
        # exactly, and the fallback sweeps "c" into the free address 1.
        assert {a: rec[2] for a, rec in entries.items()} == {2: "a", 3: "b", 1: "c"}

    def test_overflow_raises(self):
        with pytest.raises(RuntimeError):
            assign_additional_modes({}, [], [(1, 0, "a"), (2, 0, "b")], 1)


class TestParentLoops:
    def test_walk_matches_rescanning_greedy(self):
        rng = RNG(23)
        ran = set()
        for _ in range(400):
            entries, gens, remaining, s = tie_heavy_case(rng)
            want = {a: rec[2] for a, rec in entries.items()}
            weights = {a: (rec[0] | rec[1]).bit_count() for a, rec in entries.items()}
            parent_assign_additional_modes(want, gens, remaining, s, 0, weights, ran)
            assign_additional_modes(entries, gens, remaining, s)
            # same addresses, same rows, placed in the same order
            assert [(a, rec[2]) for a, rec in entries.items()] == list(want.items())
        assert ran == {"v0", "fallback"}

    def test_optimize_matches_parent_loops(self, monkeypatch):
        rng = RNG(29)
        ran = set()
        for _ in range(150):
            terms = random_pauli_sum(rng)
            table, y = optimize_pauli_select(terms)
            g, phi_ad = parent_invert_modes_with_phases(table.targets)
            assert list(table.factors.items()) == list(g.items())
            assert list(table.phases.items()) == list(phi_ad.items())
            with monkeypatch.context() as mp:
                mp.setattr(select_opt, "assign_additional_modes", parent_assign(ran))
                mp.setattr(select_opt, "greedy_basis_selection",
                           parent_greedy_basis_selection)
                mp.setattr(select_opt, "invert_modes_with_phases",
                           parent_invert_modes_with_phases)
                want, want_y = optimize_pauli_select(terms)
            assert list(table.targets.items()) == list(want.targets.items())
            assert list(table.factors.items()) == list(want.factors.items())
            assert table.s == want.s
            assert y == want_y
        assert ran == {"v0", "fallback"}


class TestGreedyOrder:
    """_select_tables runs the x-sorted greedy only when the z-sorted one
    leaves a row uncovered, and takes the same table as when both ran."""

    @staticmethod
    def tables(n, keys, monkeypatch):
        calls = []

        def counted(rows, s, n):
            sel, cov = greedy_basis_selection(rows, s, n)
            calls.append((len(rows), len(cov)))  # rows in, rows covered
            return sel, cov

        with monkeypatch.context() as mp:
            mp.setattr(select_opt, "greedy_basis_selection", counted)
            table = select_opt._select_tables(n, keys)
        return table, calls

    @staticmethod
    def assert_same(table, want):
        assert table.s == want.s
        assert list(table.targets.items()) == list(want.targets.items())
        assert list(table.factors.items()) == list(want.factors.items())
        assert list(table.phases.items()) == list(want.phases.items())

    def test_matches_parent_on_random_keys(self, monkeypatch):
        rng = RNG(61)
        runs = Counter()
        for _ in range(300):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, min(4 ** n, 40) + 1))
            keys = [PauliString(n, int(k) >> n, int(k) & ((1 << n) - 1))
                    for k in rng.choice(4 ** n, size=m, replace=False)]
            table, calls = self.tables(n, keys, monkeypatch)
            self.assert_same(table, parent_select_tables(n, keys))
            # the x-sorted greedy runs when the z-sorted one leaves a row
            assert len(calls) == 1 + (calls[0][1] < calls[0][0])
            runs[len(calls)] += 1
        assert runs[1] and runs[2]

    def test_takes_x_when_it_covers_strictly_more(self, monkeypatch):
        # found by search: the z-sorted greedy covers 2 of the 5 rows, the
        # x-sorted one 3
        keys = [ps(label) for label in ("II", "IX", "IZ", "XI", "ZI", "ZX")]
        table, calls = self.tables(2, keys, monkeypatch)
        assert calls == [(5, 2), (5, 3)]
        self.assert_same(table, parent_select_tables(2, keys))


class TestLargeTables:
    """The integer inversion, the greedy and the assignment against the
    parent oracles on tables of up to s = 8 address bits."""

    def test_invert_matches_parent(self):
        rng = RNG(41)
        for s in range(5, 9):
            for _ in range(5):
                n = int(rng.integers(2, 7))
                addrs = rng.choice(1 << s, size=int(rng.integers(1, (1 << s) + 1)),
                                   replace=False)
                targets = {int(a): PauliString(n, int(rng.integers(1 << n)),
                                               int(rng.integers(1 << n)),
                                               int(rng.integers(4)))
                           for a in addrs}
                g, phi = invert_modes_with_phases(targets)
                want_g, want_phi = parent_invert_modes_with_phases(targets)
                assert list(g.items()) == list(want_g.items())
                assert list(phi.items()) == list(want_phi.items())

    def test_greedy_matches_parent(self):
        rng = RNG(43)
        steps = set()
        for _ in range(24):
            n = int(rng.integers(4, 7))
            rows = random_rows(rng, n, int(rng.integers(33, 256)))
            s = math.ceil(math.log2(len(rows) + 1))
            sel, cov = greedy_basis_selection(rows, s, n)
            want_sel, want_cov = parent_greedy_basis_selection(rows, s, n)
            assert sel == want_sel
            assert list(cov.items()) == list(want_cov.items())
            steps.add(s)
        assert steps == {6, 7, 8}

    def test_assignment_matches_parent(self):
        rng = RNG(47)
        ran = set()
        for _ in range(40):
            n = int(rng.integers(3, 6))
            s = int(rng.integers(5, 9))
            d = int(rng.integers(0, min(s, 5) + 1))
            pool = rng.permutation(np.arange(1, 4 ** n))
            rows = [(int(k) >> n, int(k) & ((1 << n) - 1), f"r{i}")
                    for i, k in enumerate(pool[:(1 << s) - 1])]
            gens, rows = rows[:d], rows[d:]
            entries = {1 << k: rec for k, rec in enumerate(gens)}
            room = (1 << s) - 1 - len(entries)
            remaining = rows[:int(rng.integers(1, min(room, 48) + 1))]
            remaining.sort(key=lambda r: ((r[0] | r[1]).bit_count(), r[1], r[0]))
            want = {a: rec[2] for a, rec in entries.items()}
            weights = {a: (rec[0] | rec[1]).bit_count() for a, rec in entries.items()}
            generators = [(x, z) for x, z, _ in gens]
            parent_assign_additional_modes(want, generators, remaining, s, 0,
                                           weights, ran)
            assign_additional_modes(entries, generators, remaining, s)
            assert [(a, rec[2]) for a, rec in entries.items()] == list(want.items())
        assert ran == {"v0", "fallback"}

    def test_optimize_matches_parent(self, monkeypatch):
        rng = RNG(53)
        sizes = set()
        for _ in range(8):
            n = int(rng.integers(4, 6))
            keys = rng.choice(4 ** n, size=int(rng.integers(129, 256)), replace=False)
            terms = [(complex(rng.choice([0.5, 1.0, -1.0]), rng.choice([0.0, 0.25])),
                      PauliString(n, int(k) >> n, int(k) & ((1 << n) - 1)))
                     for k in keys]
            table, y = optimize_pauli_select(terms)
            with monkeypatch.context() as mp:
                mp.setattr(select_opt, "assign_additional_modes", parent_assign(set()))
                mp.setattr(select_opt, "greedy_basis_selection",
                           parent_greedy_basis_selection)
                mp.setattr(select_opt, "invert_modes_with_phases",
                           parent_invert_modes_with_phases)
                want, want_y = optimize_pauli_select(terms)
            assert list(table.targets.items()) == list(want.targets.items())
            assert list(table.factors.items()) == list(want.factors.items())
            assert list(table.phases.items()) == list(want.phases.items())
            assert y == want_y
            sizes.add(table.s)
        assert sizes == {8}


def walk_registers(b, n_sys):
    return (("flat_anc", b + 1), ("sel", b), ("system", n_sys))


def branch_bodies(n_branches, b, n_sys):
    """One distinct Pauli body per branch on absolute system qubits."""
    sys0 = (b + 1) + b
    labels = ["X", "Y", "Z", "XX", "XY", "ZX", "YY", "ZZ"]
    out = []
    for a in range(n_branches):
        lab = labels[a % len(labels)].ljust(n_sys, "I")[:n_sys]
        out.append((a, wrapping([PauliGate(from_label(lab),
                                           tuple(range(sys0, sys0 + n_sys)))])))
    return out


class TestFlatten:
    @pytest.mark.parametrize("n_branches", [2, 4, 8])
    def test_walk_matches_naive_and_t_count(self, n_branches):
        b = int(np.log2(n_branches))
        n_sys = 2
        regs = walk_registers(b, n_sys)
        sel = tuple(range(b + 1, b + 1 + b))
        anc = tuple(range(b + 1))
        branches = branch_bodies(n_branches, b, n_sys)

        flat = Circuit(regs, flatten_select(branches, sel, anc))
        naive = Circuit(regs, naive_select(branches, sel))
        u_flat = simulate_unitary(flat)
        u_naive = simulate_unitary(naive)
        d = 1 << (b + n_sys)
        assert np.max(np.abs(u_flat[:d, :d] - u_naive[:d, :d])) <= 1e-10
        assert np.max(np.abs(u_flat[d:, :d])) <= 1e-12  # flags restored

        rep = cost_report(flat)
        assert rep.t_count == 4 * n_branches - 4
        assert rep.toffoli_count == n_branches - 1

    def test_sparse_walk(self):
        b, n_sys = 2, 1
        regs = walk_registers(b, n_sys)
        sel = (b + 1, b + 2)
        anc = tuple(range(b + 1))
        branches = branch_bodies(3, b, n_sys)  # addresses 0, 1, 2 only
        flat = Circuit(regs, flatten_select(branches, sel, anc))
        naive = Circuit(regs, naive_select(branches, sel))
        u_flat = simulate_unitary(flat)
        u_naive = simulate_unitary(naive)
        d = 1 << (b + n_sys)
        assert np.max(np.abs(u_flat[:d, :d] - u_naive[:d, :d])) <= 1e-10
        assert np.max(np.abs(u_flat[d:, :d])) <= 1e-12

    def test_zero_width(self):
        body = PauliGate(ps("X"), (0,))
        assert flatten_select([(0, wrapping([body]))], (), (5,)) == [body]

    def test_needs_ancillas(self):
        with pytest.raises(ValueError):
            flatten_select([(0, wrapping([]))], (0, 1), (2,))


class TestMonotoneBuilder:
    def test_tfim3_select_semantics(self):
        terms = tfim3_terms()
        table, y = optimize_pauli_select(terms)
        s = table.s
        regs = (("sel", s), ("system", 3))
        sel = tuple(range(s))
        sysq = (s, s + 1, s + 2)
        circ = Circuit(regs, build_monotone_select(table, sel, sysq))
        u = simulate_unitary(circ)
        dim = 8
        coeff = coeffs_of(terms)
        rng = RNG(3)
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        for addr, p in table.targets.items():
            block = u[addr * dim:(addr + 1) * dim, addr * dim:(addr + 1) * dim]
            out = y[addr] * (block @ psi)
            want = coeff[(p.x_mask, p.z_mask)] * (to_matrix(p) @ psi)
            assert np.max(np.abs(out - want)) <= 1e-12

    def test_anchor_circuit_is_x_then_cz(self):
        terms = [(1.0 + 0j, ps("X")), (1j, ps("Y"))]
        table, _ = optimize_pauli_select(terms)
        gates = build_monotone_select(table, (0,), (1,))
        assert isinstance(gates[0], PauliGate) and gates[0].string == ps("X")
        assert isinstance(gates[1], Controlled)
        assert gates[1].controls == ((0, 1),)
        assert gates[1].body.string == ps("Z")

    def test_wcc_matches_select_cost(self):
        terms = tfim3_terms()
        table, _ = optimize_pauli_select(terms)
        s = table.s
        regs = (("sel", s), ("system", 3))
        circ = Circuit(regs, build_monotone_select(table, tuple(range(s)),
                                                   (s, s + 1, s + 2)))
        assert cost_report(circ).weighted_control_cost == select_cost(table) == 9
