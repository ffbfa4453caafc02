"""Semantics-preserving rewrite rules over channel expressions.

Rule set: PS1 (term merging), PS2 (zero-term elimination), K1 (zero Kraus
elimination), K2 (global phase elimination), C1 (Kraus permutation), C2
(Kraus unitary transform), C2p (two-Kraus unitary transform), C3 (Kraus
merging), C3p (two-Kraus merging).  minimize_kraus_rank drives the channel
to the minimal Kraus count via C3 merges, one C2 and K1 eliminations.  The
C2 unitary comes from one eigh of the m x m Gram matrix of the operators'
coefficient rows; inside a degenerate eigenspace its basis is the one
Gram-Schmidt builds from the projected row axes, in order.
"""

from __future__ import annotations

import cmath
import operator

import numpy as np

from .ir import (
    ChannelExpr,
    KrausExpr,
    PauliUnitary,
    eval_kraus,
    matrix_to_json,
    typecheck,
)
from .pauli import PauliString, fold_terms

# rule -> the argument keys it reads; any other key is rejected
RULES = {
    "PS1": ("kraus",),
    "PS2": ("kraus", "tol"),
    "K1": ("kraus", "tol"),
    "K2": ("kraus", "theta"),
    "C1": ("perm",),
    "C2": ("unitary",),
    "C2p": ("i", "j", "a", "b"),
    "C3": ("indices",),
    "C3p": ("i", "j"),
}

UNITARY_TOL = 1e-10
PROP_TOL = 1e-10
ZERO_TOL = 1e-12
# largest `tol` PS2 and K1 accept: a larger one could drop a term or an
# operator that changes the channel
MAX_RULE_TOL = 1e-6


class RewriteError(ValueError):
    pass


class InvalidRuleArgs(RewriteError):
    pass


class RuleNotApplicable(RewriteError):
    pass


def merge_terms(k: KrausExpr) -> KrausExpr:
    """PS1: fold Pauli phases into coefficients and merge duplicate terms."""
    return KrausExpr(k.n, list(fold_terms(k.terms).values()))


def drop_zero_terms(k: KrausExpr, tol: float = ZERO_TOL) -> KrausExpr:
    """PS2."""
    return KrausExpr(k.n, [(c, p) for c, p in k.terms if abs(c) > tol])


def canonical_kraus(k: KrausExpr, tol: float = ZERO_TOL) -> KrausExpr:
    """PS1 then PS2."""
    return KrausExpr(k.n, list(fold_terms(k.terms, tol).values()))


def scale_kraus(k: KrausExpr, c: complex) -> KrausExpr:
    return KrausExpr(k.n, [(c * a, p) for a, p in k.terms])


def combine_kraus(n: int, pairs) -> KrausExpr:
    """Canonical form of sum_i c_i K_i."""
    terms = []
    for c, k in pairs:
        terms.extend((c * a, p) for a, p in k.terms)
    return canonical_kraus(KrausExpr(n, terms))


def proportionality(a: KrausExpr, b: KrausExpr, tol: float = PROP_TOL):
    """Ratio r with b = r*a in canonical form, or None."""
    return _folded_ratio(fold_terms(a.terms, ZERO_TOL),
                         fold_terms(b.terms, ZERO_TOL), tol)


def _folded_ratio(da: dict, db: dict, tol: float = PROP_TOL):
    """proportionality of two fold_terms results."""
    if set(da) != set(db):
        return None
    if not da:
        return 1.0 + 0j
    anchor, (ca, _) = max(da.items(), key=lambda item: abs(item[1][0]))
    r = db[anchor][0] / ca
    scale = max(1.0, max(abs(c) for c, _ in db.values()))
    if all(abs(db[key][0] - r * c) <= tol * scale for key, (c, _) in da.items()):
        return r
    return None


def is_zero_kraus(k: KrausExpr, tol: float = 1e-8, cap: int | None = None) -> bool:
    kc = canonical_kraus(k, tol=0.0)
    if not kc.terms:
        return True
    if all(isinstance(p, PauliUnitary) for _, p in kc.terms):
        # bare Pauli strings are orthogonal, so coefficients tell the norm
        return max(abs(c) for c, _ in kc.terms) <= tol
    return float(np.max(np.abs(eval_kraus(kc, cap)))) <= tol


def _index_list(v) -> list[int]:
    return [operator.index(j) for j in v]


def apply_rule(c: ChannelExpr, rule: str, args: dict | None = None,
               cap: int | None = None) -> ChannelExpr:
    typecheck(c)
    if not isinstance(args, (dict, type(None))):
        raise InvalidRuleArgs(f"rule arguments must be an object, got {args!r}")
    args = dict(args or {})
    if rule not in RULES:
        raise InvalidRuleArgs(f"unknown rule {rule!r}")
    unknown = [key for key in args if key not in RULES[rule]]
    if unknown:
        raise InvalidRuleArgs(f"rule {rule}: unknown argument {unknown[0]!r}")
    m = len(c.kraus)

    def need(key, kind=None, default=None):
        """args[key] converted by kind; a bad or non-finite value is InvalidRuleArgs."""
        if key not in args:
            if default is None:
                raise InvalidRuleArgs(f"rule {rule} needs argument {key!r}")
            return default
        try:
            val = args[key] if kind is None else kind(args[key])
            if isinstance(val, (float, complex)) and not cmath.isfinite(val):
                raise ValueError("not finite")
            return val
        except (TypeError, ValueError) as exc:
            raise InvalidRuleArgs(f"rule {rule}: bad argument {key}={args[key]!r}") from exc

    def tol(default):
        t = need("tol", float, default)
        if t > MAX_RULE_TOL:
            raise InvalidRuleArgs(
                f"rule {rule}: tol {t!r} exceeds {MAX_RULE_TOL} and could change the channel")
        return t

    def index(key):
        j = need(key)
        if not isinstance(j, (int, np.integer)) or not 0 <= j < m:
            raise InvalidRuleArgs(f"rule {rule}: bad Kraus index {j!r}")
        return int(j)

    if rule == "PS1":
        j = index("kraus")
        out = list(c.kraus)
        out[j] = merge_terms(out[j])
        return ChannelExpr(c.n, out)

    if rule == "PS2":
        j = index("kraus")
        out = list(c.kraus)
        out[j] = drop_zero_terms(out[j], tol(ZERO_TOL))
        return ChannelExpr(c.n, out)

    if rule == "K1":
        j = index("kraus")
        if not is_zero_kraus(c.kraus[j], tol(1e-8), cap):
            raise RuleNotApplicable(f"K1: Kraus {j} is not zero")
        return ChannelExpr(c.n, c.kraus[:j] + c.kraus[j + 1:])

    if rule == "K2":
        j = index("kraus")
        theta = need("theta", float)
        out = list(c.kraus)
        out[j] = scale_kraus(out[j], np.exp(-1j * theta))
        return ChannelExpr(c.n, out)

    if rule == "C1":
        perm = need("perm", _index_list)
        if sorted(perm) != list(range(m)):
            raise InvalidRuleArgs("C1: not a permutation of the Kraus indices")
        return ChannelExpr(c.n, [c.kraus[p] for p in perm])

    if rule == "C2":
        u = need("unitary", lambda v: np.asarray(v, dtype=complex))
        if u.shape != (m, m):
            raise InvalidRuleArgs(f"C2: matrix must be {m}x{m}")
        if not np.max(np.abs(u.conj().T @ u - np.eye(m))) <= UNITARY_TOL:
            raise InvalidRuleArgs("C2: matrix is not unitary")
        return ChannelExpr(
            c.n,
            [combine_kraus(c.n, [(u[j, k], c.kraus[k]) for k in range(m)])
             for j in range(m)],
        )

    if rule == "C2p":
        i, j = index("i"), index("j")
        if i == j:
            raise InvalidRuleArgs("C2p: indices must differ")
        a, b = need("a", complex), need("b", complex)
        if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > UNITARY_TOL:
            raise InvalidRuleArgs("C2p: |a|^2 + |b|^2 must be 1")
        out = list(c.kraus)
        ki, kj = out[i], out[j]
        out[i] = combine_kraus(c.n, [(a, ki), (b, kj)])
        out[j] = combine_kraus(c.n, [(-np.conj(b), ki), (np.conj(a), kj)])
        return ChannelExpr(c.n, out)

    if rule in ("C3", "C3p"):
        if rule == "C3p":
            idxs = sorted({index("i"), index("j")})
        else:
            idxs = sorted(set(need("indices", _index_list)))
        if len(idxs) < 2 or not all(0 <= j < m for j in idxs):
            raise InvalidRuleArgs(f"{rule}: need two or more distinct Kraus indices")
        lead = idxs[0]
        ratios = []
        for j in idxs[1:]:
            r = proportionality(c.kraus[lead], c.kraus[j])
            if r is None:
                raise RuleNotApplicable(
                    f"{rule}: Kraus {j} is not proportional to Kraus {lead}")
            ratios.append(r)
        factor = np.sqrt(1.0 + sum(abs(r) ** 2 for r in ratios))
        out = list(c.kraus)
        out[lead] = scale_kraus(out[lead], factor)
        for j in reversed(idxs[1:]):
            del out[j]
        return ChannelExpr(c.n, out)


RANK_RTOL = 1e-9
# Gram eigenvalues this close, relative to the largest, share one eigenspace
DEGEN_RTOL = 1e-12


def _axis_basis(y: np.ndarray, floor: float) -> np.ndarray:
    """Unitary whose columns Gram-Schmidt builds from the columns of y (g x K)
    in order, skipping a column whose residual squared norm is <= floor."""
    g = y.shape[0]
    res = y.copy()
    basis = np.zeros((g, 0), dtype=complex)
    a = 0
    while basis.shape[1] < g:
        mass = np.sum(np.abs(res[:, a:]) ** 2, axis=0)
        a += int(np.argmax(mass > floor))
        v = res[:, a] - basis @ (basis.conj().T @ res[:, a])  # re-orthogonalized
        v /= np.linalg.norm(v)
        res -= np.outer(v, v.conj() @ res)
        basis = np.column_stack([basis, v])
        a += 1
    return basis


def _merge_proportional(kraus: list[KrausExpr], n: int, trace: list) -> list[KrausExpr]:
    # operators with different canonical key sets are never proportional, so
    # each one is folded once and compared only with the groups of its key set
    folds = [fold_terms(k.terms, ZERO_TOL) for k in kraus]
    groups: list[list[int]] = []
    buckets: dict[frozenset, list[list[int]]] = {}
    for j, fold in enumerate(folds):
        bucket = buckets.setdefault(frozenset(fold), [])
        for g in bucket:
            if _folded_ratio(folds[g[0]], fold) is not None:
                g.append(j)
                break
        else:
            bucket.append([j])
            groups.append(bucket[-1])
    work = ChannelExpr(n, list(kraus))
    tags = list(range(len(kraus)))  # original index of each remaining operator
    for g in groups:
        if len(g) < 2:
            continue
        pos = [tags.index(t) for t in g]
        work = apply_rule(work, "C3", {"indices": pos})
        for p in reversed(pos[1:]):
            del tags[p]
        trace.append({"rule": "C3", "args": {"indices": pos},
                      "kraus_count_after": len(work.kraus)})
    return work.kraus


def minimize_kraus_rank(c: ChannelExpr, cap: int | None = None):
    """Rewrite to the minimal Kraus count (Gram-matrix rank).

    Returns (channel, trace).  The trace lists the applied rules as
    {rule, args, kraus_count_after}: C3 merges of proportional operators,
    one C2 whose unitary's rows are the phase-fixed eigenvectors of the m x m
    Gram matrix, and one K1 per eliminated zero operator.
    """
    typecheck(c)
    n = c.n
    trace: list[dict] = []
    work = [canonical_kraus(k) for k in c.kraus]
    work = _merge_proportional(work, n, trace)
    m = len(work)
    if m == 0:
        return ChannelExpr(n, []), trace

    # one coefficient row per operator over the keys: Pauli strings by
    # (z_mask, x_mask), then opaque references in first-appearance order
    prims: dict = {}
    for k in work:
        for _, p in k.terms:
            prims.setdefault(getattr(p, "string", p), p)
    keys = sorted((key for key in prims if isinstance(key, PauliString)),
                  key=lambda s: (s.z_mask, s.x_mask))
    pauli_only = len(keys) == len(prims)
    keys += [key for key in prims if not isinstance(key, PauliString)]
    col = {key: i for i, key in enumerate(keys)}
    w = np.zeros((m, len(keys)), dtype=complex)
    for j, k in enumerate(work):
        for coeff, p in k.terms:
            w[j, col[getattr(p, "string", p)]] = coeff
    # bare Pauli strings are orthogonal, so their coefficients are the rows
    rows = w if pauli_only else w @ np.array(
        [eval_kraus(KrausExpr(n, [(1.0, prims[key])]), cap).ravel() for key in keys])

    lam, vec = np.linalg.eigh(rows.conj() @ rows.T)
    order = np.argsort(-lam, kind="stable")
    lam, vec = lam[order], vec[:, order]
    lam_max = max(lam[0], 0.0)
    r = int(np.sum(lam > RANK_RTOL * lam_max))
    # a degenerate eigenspace gets the basis Gram-Schmidt builds from the
    # projections of the row axes onto it, so no eigh pick leaks out
    bounds = [0, *(np.flatnonzero(-np.diff(lam[:r]) > DEGEN_RTOL * lam_max) + 1), r]
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo > 1:
            block = vec[:, lo:hi]
            vec[:, lo:hi] = block @ _axis_basis((block.T @ rows).conj(), RANK_RTOL * lam[lo])

    new_kraus = []
    for j in range(r):
        row = vec[:, j] @ w
        keep = np.flatnonzero(np.abs(row) > ZERO_TOL)
        if keep.size:  # anchor phase: the first kept coefficient is positive
            phase = np.conj(row[keep[0]]) / abs(row[keep[0]])
            row *= phase
            vec[:, j] *= phase
        new_kraus.append(KrausExpr(n, [(row[a], prims[keys[a]]) for a in keep.tolist()]))
    trace.append({"rule": "C2", "args": {"unitary": vec.T}, "kraus_count_after": m})
    for j in range(m - r):
        trace.append({"rule": "K1", "args": {"kraus": r},
                      "kraus_count_after": m - 1 - j})
    return ChannelExpr(n, new_kraus), trace


def simplify(c: ChannelExpr) -> ChannelExpr:
    """Fixed pipeline: canonicalize terms, drop zero Kraus, strip global
    phases.  Idempotent."""
    typecheck(c)
    out = []
    for k in c.kraus:
        kc = canonical_kraus(k)
        if not kc.terms:
            continue
        lead = kc.terms[0][0]
        out.append(scale_kraus(kc, np.conj(lead / abs(lead))) if lead != abs(lead) else kc)
    return ChannelExpr(c.n, out)


def trace_to_json(trace: list[dict]) -> list[dict]:
    out = []
    for entry in trace:
        args = {}
        for key, val in entry["args"].items():
            if isinstance(val, np.ndarray):
                args[key] = matrix_to_json(val)
            elif isinstance(val, (list, tuple)):
                args[key] = [int(x) for x in val]
            elif isinstance(val, (int, np.integer)):
                args[key] = int(val)
            else:
                args[key] = float(val)
        out.append({"rule": entry["rule"], "args": args,
                    "kraus_count_after": int(entry["kraus_count_after"])})
    return out
