"""Semantics-preserving rewrite rules over channel expressions.

Rule set: PS1 (term merging), PS2 (zero-term elimination), K1 (zero Kraus
elimination), K2 (global phase elimination), C1 (Kraus permutation), C2
(Kraus unitary transform), C2p (two-Kraus unitary transform), C3 (Kraus
merging), C3p (two-Kraus merging).  The canonical form they rest on is
`pauli.fold_terms` with its one zero tolerance `pauli.ZERO_TOL`: PS1 is the
fold, PS2 the drop.

minimize_kraus_rank drives the channel to the minimal Kraus count via C3
merges, one C2 and K1 eliminations.  It folds each operator once, groups
proportional operators by their folds and merges each group with the C3
scale, from the ratios it found while grouping.  The C2 unitary comes from
one eigh of the m x m Gram matrix of the operators' coefficient rows, over
the fold keys; inside a degenerate eigenspace its basis is the one
Gram-Schmidt builds from the projected row axes, in order.
"""

from __future__ import annotations

import cmath
import operator

import numpy as np

from .ir import (ChannelExpr, eval_kraus, matrix_from_json, matrix_to_json,
                 typecheck)
from .pauli import ZERO_TOL, PauliString, PauliSum, canonicalize_sum, fold_terms

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
# largest `tol` PS2 and K1 accept: a larger one could drop a term or an
# operator that changes the channel
MAX_RULE_TOL = 1e-6


class RewriteError(ValueError):
    pass


class InvalidRuleArgs(RewriteError):
    pass


class RuleNotApplicable(RewriteError):
    pass


# PS1 then PS2, kept as a name: perfbench/tracing.py counts calls through it
canonical_kraus = canonicalize_sum


def combine_kraus(n: int, pairs) -> PauliSum:
    """Canonical form of sum_i c_i K_i."""
    terms = []
    for c, k in pairs:
        terms.extend((c * a, p) for a, p in k.terms)
    return canonicalize_sum(PauliSum(n, terms))


def proportionality(a: PauliSum, b: PauliSum):
    """Ratio r with b = r*a in canonical form, or None."""
    return _folded_ratio(fold_terms(a.terms, ZERO_TOL), fold_terms(b.terms, ZERO_TOL))


def _folded_ratio(da: dict, db: dict):
    """proportionality of two fold_terms results."""
    if set(da) != set(db):
        return None
    if not da:
        return 1.0 + 0j
    anchor, (ca, _) = max(da.items(), key=lambda item: abs(item[1][0]))
    r = db[anchor][0] / ca
    scale = max(1.0, max(abs(c) for c, _ in db.values()))
    if all(abs(db[key][0] - r * c) <= PROP_TOL * scale for key, (c, _) in da.items()):
        return r
    return None


def _c3_scale(ratios):
    """C3's factor sqrt(1 + sum |r_i|^2) on a lead whose members are r_i times it."""
    return np.sqrt(1.0 + sum(abs(r) ** 2 for r in ratios))


def is_zero_kraus(k: PauliSum, tol: float = 1e-8, cap: int | None = None) -> bool:
    kc = canonicalize_sum(k, tol=0.0)
    if not kc.terms:
        return True
    if all(isinstance(p, PauliString) for _, p in kc.terms):
        # bare Pauli strings are orthogonal, so coefficients tell the norm
        return max(abs(c) for c, _ in kc.terms) <= tol
    return float(np.max(np.abs(eval_kraus(kc, cap)))) <= tol


def _has_bool(v) -> bool:
    """True if v, or an entry of v at any depth of nesting, is a bool."""
    if isinstance(v, (list, tuple)) or np.ndim(v):
        return any(_has_bool(e) for e in v)
    return isinstance(v, (bool, np.bool_))


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
        """args[key] converted by kind; a bool anywhere in it, or a bad or
        non-finite value, is InvalidRuleArgs."""
        if key not in args:
            if default is None:
                raise InvalidRuleArgs(f"rule {rule} needs argument {key!r}")
            return default
        try:
            if _has_bool(args[key]):
                raise TypeError("bool")
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
        out[j] = PauliSum(c.n, list(fold_terms(out[j].terms).values()))
        return ChannelExpr(c.n, out)

    if rule == "PS2":
        j = index("kraus")
        t = tol(ZERO_TOL)
        out = list(c.kraus)
        out[j] = PauliSum(c.n, [(a, p) for a, p in out[j].terms if abs(a) > t])
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
        out[j] = out[j].scaled(np.exp(-1j * theta))
        return ChannelExpr(c.n, out)

    if rule == "C1":
        perm = need("perm", _index_list)
        if sorted(perm) != list(range(m)):
            raise InvalidRuleArgs("C1: not a permutation of the Kraus indices")
        return ChannelExpr(c.n, [c.kraus[p] for p in perm])

    if rule == "C2":
        # real entries, or the [re, im] pairs that trace_to_json writes
        u = need("unitary", lambda v: matrix_from_json(v) if np.ndim(v) == 3
                 else np.asarray(v, dtype=complex))
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
        out = list(c.kraus)
        out[lead] = out[lead].scaled(_c3_scale(ratios))
        for j in reversed(idxs[1:]):
            del out[j]
        return ChannelExpr(c.n, out)


RANK_RTOL = 1e-9
# Gram eigenvalues this close, relative to the largest, share one eigenspace
DEGEN_RTOL = 1e-12
# a new operator's phase anchor is its first coefficient above this share of
# its largest, far from the rounding that moves coefficients near ZERO_TOL
ANCHOR_RTOL = 1e-6


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


def _merge_proportional(kraus: list[PauliSum], trace: list) -> list[dict]:
    """The canonical forms, as fold_terms dicts, of the operators after one C3
    per group of proportional operators, each recorded in trace."""
    # operators with different canonical key sets are never proportional, so
    # each one is folded once and compared only with the groups of its key set
    folds = [fold_terms(k.terms, ZERO_TOL) for k in kraus]
    groups: list[tuple[int, list]] = []  # (lead, [(member, ratio), ...])
    buckets: dict[frozenset, list[tuple[int, list]]] = {}
    for j, fold in enumerate(folds):
        bucket = buckets.setdefault(frozenset(fold), [])
        for lead, members in bucket:
            if (r := _folded_ratio(folds[lead], fold)) is not None:
                members.append((j, r))
                break
        else:
            bucket.append((j, []))
            groups.append(bucket[-1])
    tags = list(range(len(kraus)))  # original index of each remaining operator
    for lead, members in groups:
        if not members:
            continue
        pos = [tags.index(t) for t in (lead, *(j for j, _ in members))]
        for p in reversed(pos[1:]):
            del tags[p]
        scale = _c3_scale([r for _, r in members])
        folds[lead] = {key: (scale * c, p) for key, (c, p) in folds[lead].items()}
        trace.append({"rule": "C3", "args": {"indices": pos},
                      "kraus_count_after": len(tags)})
    return [folds[t] for t in tags]


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
    work = _merge_proportional(c.kraus, trace)
    m = len(work)
    if m == 0:
        return ChannelExpr(n, []), trace

    # one coefficient row per operator over the fold keys (the canonical,
    # bare primitives): Pauli strings by (z_mask, x_mask), then opaque
    # references in first-appearance order
    seen: dict = {}  # fold key -> the first primitive with it
    for fold in work:
        for key, (_, p) in fold.items():
            seen.setdefault(key, p)
    order = sorted((key for key, p in seen.items() if type(p) is PauliString),
                   key=lambda key: (key[2], key[1]))
    pauli_only = len(order) == len(seen)
    order += [key for key, p in seen.items() if type(p) is not PauliString]
    keys = [seen[key] for key in order]
    col = {key: i for i, key in enumerate(order)}
    w = np.zeros((m, len(keys)), dtype=complex)
    for j, fold in enumerate(work):
        for key, (coeff, _) in fold.items():
            w[j, col[key]] = coeff
    with np.errstate(over="ignore", invalid="ignore"):
        # bare Pauli strings are orthogonal, so their coefficients are the rows
        rows = w if pauli_only else w @ np.array(
            [eval_kraus(PauliSum(n, [(1.0, key)]), cap).ravel() for key in keys])
        gram = rows.conj() @ rows.T
    if not np.isfinite(gram).all():
        raise RewriteError("the Kraus coefficients overflow: their Gram matrix "
                           "is not finite")

    lam, vec = np.linalg.eigh(gram)
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
        mags = np.abs(row)
        keep = np.flatnonzero(mags > ZERO_TOL)
        if keep.size:  # anchor phase: the first large coefficient is positive
            lead = row[np.argmax(mags > max(ZERO_TOL, ANCHOR_RTOL * mags.max()))]
            phase = np.conj(lead) / abs(lead)
            row *= phase
            vec[:, j] *= phase
        new_kraus.append(PauliSum(n, [(row[a], keys[a]) for a in keep.tolist()]))
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
        kc = canonicalize_sum(k)
        if not kc.terms:
            continue
        lead = kc.terms[0][0]
        out.append(kc.scaled(np.conj(lead / abs(lead))) if lead != abs(lead) else kc)
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
