"""Kraus-form channel IR.

A channel is a tuple of Kraus operators; each Kraus operator is a
`pauli.PauliSum`, a complex combination of primitives.  Primitives are
either Pauli strings (phases restricted to powers of i; any other phase
belongs in the coefficient) or opaque references to externally supplied
block encodings.  Dense semantics: apply_channel(C, rhos) = [sum_i K_i rho
K_i^dag for each rho of a stack], with each K_i from eval_kraus (the one dense
evaluator of a term list) and the sum from kraus_action (the one kernel).

`ChannelExpr` and `LindbladSpec` are frozen and check themselves when
built (site counts, primitive kinds, one matrix per block-encoding
reference; a spec's Hermitian, all-Pauli Hamiltonian and Pauli jumps), so
code that holds one never checks it again.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from .pauli import (
    PauliString,
    PauliSum,
    TypecheckError,  # re-exported: pauli cannot import ir
    dense_sum,
    from_label,
    is_hermitian_sum,
    pauli_decompose,
)


@dataclass(frozen=True, slots=True)
class BlockEncRef:
    """Reference to an externally supplied block encoding.

    `alpha` is the declared scale factor and `anc` the ancilla count of the
    encoding unitary.  `matrix` is the encoded operator itself (2^n square),
    optional for costing but required for any dense evaluation.
    """

    handle: str
    n: int
    alpha: float
    anc: int
    matrix: np.ndarray | None = field(default=None, compare=False)
    phase_exp = 0  # an opaque encoding carries no i-power of its own

    def __post_init__(self):
        if type(self.handle) is not str:
            raise ValueError(f"blockenc handle must be a string, got {self.handle!r}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha!r}")
        if not isinstance(self.anc, (int, np.integer)) or self.anc < 0:
            raise ValueError(f"anc must be a nonnegative integer, got {self.anc!r}")
        if self.matrix is not None:
            m = np.asarray(self.matrix, dtype=complex)
            if m.shape != (1 << self.n, 1 << self.n):
                raise ValueError("matrix shape does not match n")
            object.__setattr__(self, "matrix", m)


Primitive = PauliString | BlockEncRef


@dataclass(frozen=True, slots=True)
class ChannelExpr:
    """A channel: its Kraus operators, checked when it is built (site
    counts, primitive kinds, one matrix per block-encoding reference)."""

    n: int
    kraus: tuple[PauliSum, ...]

    def __post_init__(self):
        object.__setattr__(self, "kraus", tuple(self.kraus))
        refs: dict[BlockEncRef, BlockEncRef] = {}
        for i, k in enumerate(self.kraus):
            if k.n != self.n:
                raise TypecheckError(f"Kraus {i}: size {k.n} != channel size {self.n}")
            _check_terms(k, refs)


def _require_pauli(s: PauliSum, what: str) -> None:
    for t, (_, p) in enumerate(s.terms):
        if not isinstance(p, PauliString):
            raise TypecheckError(f"{what} term {t} is not a Pauli string")


@dataclass(frozen=True, slots=True)
class LindbladSpec:
    """drho/dt = -i[H, rho] + sum_j (L rho L^dag - {L^dag L, rho}/2)."""

    n: int
    hamiltonian: PauliSum
    jumps: tuple[PauliSum, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "jumps", tuple(self.jumps))
        if self.hamiltonian.n != self.n:
            raise TypecheckError("Hamiltonian site count differs from n")
        _require_pauli(self.hamiltonian, "Hamiltonian")
        if not is_hermitian_sum(self.hamiltonian):
            raise TypecheckError("Hamiltonian must be Hermitian")
        for k, j in enumerate(self.jumps):
            if j.n != self.n:
                raise TypecheckError(f"jump {k} site count differs from n")
            _require_pauli(j, f"jump {k}")


def _check_terms(k: PauliSum, refs: dict) -> None:
    """Primitive kinds, and one matrix per reference: equal references
    compare without their matrices, so merging terms would keep only one."""
    for t, (_, prim) in enumerate(k.terms):
        if isinstance(prim, PauliString):
            continue
        if not isinstance(prim, BlockEncRef):
            raise TypecheckError(f"term {t}: unknown primitive {type(prim).__name__}")
        a, b = refs.setdefault(prim, prim).matrix, prim.matrix
        if a is not b and not np.array_equal(a, b):  # None matches only None
            raise TypecheckError(
                f"block encoding {prim.handle!r} is given two different matrices")


def typecheck(expr) -> int:
    """The system size n of a channel or spec, which check themselves when
    built, or of a lone term list after its primitive checks.  A term's
    site count is checked where its PauliSum is built."""
    if isinstance(expr, (ChannelExpr, LindbladSpec)):
        return expr.n
    if isinstance(expr, PauliSum):
        _check_terms(expr, {})
        return expr.n
    raise TypecheckError(f"not an IR node: {type(expr).__name__}")


def eval_kraus(k: PauliSum) -> np.ndarray:
    """Dense matrix of one term list (Kraus operator, H or jump)."""
    return dense_sum(k.n, ((c, _dense_operand(p)) for c, p in k.terms), "eval_kraus")


def _dense_operand(prim: Primitive):
    if isinstance(prim, PauliString):
        return prim
    if prim.matrix is None:
        raise TypecheckError(f"block encoding {prim.handle!r} has no matrix to evaluate")
    return prim.matrix


def validate_density(rhos, n: int, tol: float = 1e-9) -> np.ndarray:
    """A 2^n x 2^n density matrix, or a stack of them, as complex."""
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.shape[-2:] != (1 << n, 1 << n):
        raise ValueError("density matrix has the wrong shape")
    if not np.isfinite(rhos).all():
        raise ValueError("density matrix has non-finite entries")
    # |rho^dag - rho| in one stack-sized buffer: abs writes into its input
    diff = rhos.conj().swapaxes(-1, -2)
    diff -= rhos
    if np.any(np.abs(diff, out=diff).real > tol):
        raise ValueError("density matrix is not Hermitian")
    del diff  # freed before eigvalsh allocates
    if np.any(np.abs(np.trace(rhos, axis1=-2, axis2=-1) - 1.0) > tol):
        raise ValueError("density matrix trace is not 1")
    if np.any(np.linalg.eigvalsh(rhos) < -1e-10):
        raise ValueError("density matrix is not positive semidefinite")
    return rhos


def kraus_action(ks: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """sum_a K_a rho K_a^dag for a d x d rho or each rho of a stack, from an
    (a, d, d) Kraus stack: per state, (K_1 rho, ..., K_a rho) side by side
    times the stacked K_a^dag, so memory is O(a d^2) whatever the count."""
    dim = rhos.shape[-1]
    v = ks.reshape(-1, dim)
    right = ks.conj().transpose(1, 0, 2).reshape(dim, -1).T
    outs = np.empty(rhos.shape, dtype=complex)
    for i in np.ndindex(rhos.shape[:-2]):
        left = (v @ rhos[i]).reshape(-1, dim, dim).transpose(1, 0, 2).reshape(dim, -1)
        outs[i] = left @ right
    return outs


def apply_channel(c: ChannelExpr, rhos) -> np.ndarray:
    """The channel on a validated density matrix or on each of a stack;
    each Kraus operator is evaluated once for all the states."""
    rhos = validate_density(rhos, c.n)
    ks = np.array([eval_kraus(k) for k in c.kraus], dtype=complex)
    return kraus_action(ks.reshape(-1, 1 << c.n, 1 << c.n), rhos)


# entries of a - b per trace_distance eigvalsh call: bounds its scratch
_DISTANCE_ENTRIES = 1 << 14


def trace_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(1/2)||a - b||_1 for Hermitian a, b, or one per matrix of two stacks,
    one eigvalsh per chunk of pairs, so no a - b of more than
    _DISTANCE_ENTRIES entries (or one pair) is formed."""
    shape, dim = a.shape[:-2], a.shape[-1]
    a, b = a.reshape(-1, dim, dim), b.reshape(-1, dim, dim)
    out = np.empty(len(a))
    step = max(1, _DISTANCE_ENTRIES // (dim * dim))
    for s in range(0, len(a), step):
        diff = a[s:s + step] - b[s:s + step]
        out[s:s + step] = 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)
    return out.reshape(shape)[()]  # a scalar for one pair


def haar_states(n: int, count: int, seed: int = 7) -> np.ndarray:
    """A (count, 2^n, 2^n) stack of Haar-random pure states."""
    rng = np.random.default_rng(seed)
    dim = 1 << n
    out = np.empty((count, dim, dim), dtype=complex)
    for rho in out:
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        rho[...] = np.outer(v, v.conj())
    return out


def probe_states(n: int, samples: int = 32, seed: int = 7) -> np.ndarray:
    """The (2^n + samples, 2^n, 2^n) probe stack: computational basis
    states, then Haar-random pure states."""
    eye = np.eye(1 << n, dtype=complex)
    return np.concatenate([eye[:, :, None] * eye[:, None], haar_states(n, samples, seed)])


def channel_distance(a: ChannelExpr, b: ChannelExpr, samples: int = 32,
                     seed: int = 7) -> float:
    """Max sampled trace distance between two channels (diamond-norm proxy)."""
    if a.n != b.n:
        raise TypecheckError("channel sizes differ")
    states = probe_states(a.n, samples, seed)
    return float(trace_distance(apply_channel(a, states), apply_channel(b, states)).max())


# --- JSON forms ------------------------------------------------------------
#
# Term: {"coeff": [re, im], "pauli": "XIZYI", "phase_exp": 0}
#   or  {"coeff": [re, im], "blockenc": {"handle", "n", "alpha", "anc", "matrix"}}
# Channel: {"n": n, "kraus": [[term, ...], ...]}
# Lindblad: {"n": n, "H": [term, ...], "jumps": [[term, ...] | {"matrix": m}, ...]}


# A document's Pauli term lists are read in one bulk pass and written in one
# label pass: labels through byte tables, coefficients as one float array.
# Masks of up to _BULK_SITES sites fit the uint64 arrays; other documents,
# with an irregular term or an opaque primitive, go term by term.
_BULK_SITES = 64
_CODE_LETTERS = np.frombuffer(b"IXZY", dtype=np.uint8)  # x bit | z bit << 1
_LETTER_CODES = np.full(256, 4, dtype=np.uint8)  # label byte -> code, 4 if bad
_LETTER_CODES[_CODE_LETTERS] = np.arange(4)


def _c2pair(c: complex) -> list[float]:
    return [float(np.real(c)), float(np.imag(c))]


def _pairs(a: np.ndarray) -> list:
    """[re, im] float pairs of a complex array, nested as the array is."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def require_int(value, what: str) -> int:
    """Integer fields are Python ints: a bool, float or string is rejected."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def require_list(value, what: str) -> list:
    """List fields are JSON arrays: an object, string or number is rejected."""
    if type(value) is not list:
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


def require_dict(value, what: str) -> dict:
    """Record fields are JSON objects: a list, string or number is rejected."""
    if type(value) is not dict:
        raise ValueError(f"{what} must be an object, got {type(value).__name__}")
    return value


def require_keys(value, what: str, *keys: str) -> dict:
    """A record (see require_dict) with each of keys: the first one missing
    is named."""
    d = require_dict(value, what)
    for key in keys:
        if key not in d:
            raise ValueError(f"{what} has no {key!r}")
    return d


def require_number(value, what: str) -> float:
    """Real fields are JSON numbers: a bool, string or null is rejected."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return value


def _pair2c(p) -> complex:
    if type(p) is not list or len(p) != 2:
        raise ValueError(f"complex numbers are [re, im] pairs, got {p!r}")
    c = complex(require_number(p[0], "real part"),
                require_number(p[1], "imaginary part"))
    if not cmath.isfinite(c):
        raise ValueError(f"non-finite coefficient {p!r}")
    return c


def matrix_to_json(m: np.ndarray) -> list:
    return _pairs(np.asarray(m, dtype=complex))


def matrix_from_json(rows, what: str = "matrix") -> np.ndarray:
    """A complex matrix from a list of equal-length lists of [re, im] pairs;
    a wrong container names the matrix, as `what`, or its row."""
    for i, row in enumerate(require_list(rows, what)):
        if len(require_list(row, f"{what} row {i}")) != len(rows[0]):
            raise ValueError(f"{what} row {i} has {len(row)} entries, not {len(rows[0])}")
    return np.array([[_pair2c(x) for x in row] for row in rows], dtype=complex)


# The JSON text layout has one owner, _array and _object, which _encode and
# the circuit and report writers fill with encoded values.  _encode writes
# exactly the bytes of json.dumps(o, sort_keys=True, indent=2), without the
# stdlib's pure-Python encoder that indent=2 selects.  A uniform list (see
# _uniform_items: cells of one kind, such as qubits and amplitudes, or
# records sharing one key set, such as registers and Pauli term lists) is
# written in one pass; any other list goes value by value, same bytes.


def _array(items: list[str], nl: str) -> str:
    """The JSON array of already-encoded items, opened at the indentation
    `nl` (a newline and the current indent) opens."""
    if not items:
        return "[]"
    item = nl + "  "
    return "[" + item + ("," + item).join(items) + nl + "]"


@lru_cache(maxsize=1024)
def _object(keys: tuple[str, ...], nl: str) -> str:
    """The %-template of a JSON object with these str keys, sorted, at the
    indentation `nl` opens: one %s per encoded value, in sorted key order.
    A % in a key is escaped; a key that is not a str raises TypeError."""
    if not keys:
        return "{}"
    key = nl + "  "
    return "{" + key + ("," + key).join([
        encode_basestring_ascii(k).replace("%", "%%") + ": %s"
        for k in sorted(keys)]) + nl + "}"


def _cells(col, nl: str) -> list | None:
    """_encode of each value of col at the indentation `nl` opens, or None
    unless the values share one cell kind: all str, all int (never bool),
    all finite float, or all [a, b] lists of two int or two finite float
    parts."""
    kinds = set(map(type, col))
    if len(kinds) != 1:
        return None
    kind = kinds.pop()
    if kind is str:
        return list(map(encode_basestring_ascii, col))
    # repr writes int.__repr__ and float.__repr__ of these exact types
    if kind is int or kind is float and all(map(math.isfinite, col)):
        return list(map(repr, col))
    if kind is not list or set(map(len, col)) != {2}:
        return None
    parts = list(chain.from_iterable(col))
    kinds = set(map(type, parts))
    if not (kinds == {int} or kinds == {float} and all(map(math.isfinite, parts))):
        return None
    template = _array(["%r", "%r"], nl)
    return [template % (a, b) for a, b in col]


def _uniform_items(o, item: str) -> list | None:
    """_encode of each item of a non-empty list at the indentation `item`
    opens, or None unless it is a list of cells (see _cells) or of records:
    dicts with one shared, non-empty set of str keys, each key's values one
    cell kind, written from one %-template."""
    if type(o[0]) is not dict:
        return _cells(o, item)
    keys = o[0].keys()
    # {} has no key types, so [{}] is no record list
    if (set(map(type, keys)) != {str} or set(map(type, o)) != {dict}
            or set(map(len, o)) != {len(keys)}):
        return None
    keys = tuple(sorted(keys))
    try:
        # each dict has len(keys) keys and all of these, so exactly these
        cols = [_cells(list(map(itemgetter(k), o)), item + "  ") for k in keys]
    except KeyError:
        return None
    if None in cols:
        return None
    template = _object(keys, item)
    return [template % row for row in zip(*cols)]


def _encode(o, nl: str) -> str:
    """o as json.dumps(sort_keys=True, indent=2) writes it, at the
    indentation that `nl` (a newline and the current indent) opens.

    Takes the exact types qchanc emits; any other value, subclasses such as
    numpy scalars included, raises TypeError.
    """
    t = type(o)
    if t is list or t is tuple:
        inner = nl + "  "
        items = _uniform_items(o, inner) if o else []
        if items is None:
            items = [_encode(v, inner) for v in o]
        return _array(items, nl)
    if t is float:
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is int:
        return int.__repr__(o)
    if t is dict:
        # a key that is not a str fails in sorted() or in _object
        keys = tuple(sorted(o))
        inner = nl + "  "
        return _object(keys, nl) % tuple([_encode(o[k], inner) for k in keys])
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def term_to_json(coeff: complex, prim: Primitive) -> dict:
    if isinstance(prim, PauliString):
        return {
            "coeff": _c2pair(coeff),
            "pauli": prim.label(),
            "phase_exp": prim.phase_exp,
        }
    return {
        "coeff": _c2pair(coeff),
        "blockenc": {
            "handle": prim.handle,
            "n": prim.n,
            "alpha": prim.alpha,
            "anc": prim.anc,
            "matrix": None if prim.matrix is None else matrix_to_json(prim.matrix),
        },
    }


def _led_by(name: str, exc: Exception) -> Exception:
    """exc, its message led by the name of the record that caused it."""
    exc.args = (f"{name}: {exc}",)
    return exc


def term_from_json(d: dict, name: str | None = None) -> tuple[complex, Primitive]:
    """A (coeff, primitive) pair from a term record.  A list reader passes
    the term's position as `name` ("Kraus operator 1 term 0"), which then
    leads each error; a record that is no object names itself."""
    d = require_dict(d, name or "term")
    try:
        return _term_from_json(d)
    except (ValueError, TypeError, OverflowError) as exc:
        if name is not None:
            _led_by(name, exc)
        raise


def _term_from_json(d: dict) -> tuple[complex, Primitive]:
    coeff = _pair2c(require_keys(d, "term", "coeff")["coeff"])
    if "pauli" in d:
        phase_exp = require_int(d.get("phase_exp", 0), "phase_exp")
        return coeff, from_label(d["pauli"], phase_exp)
    if "blockenc" not in d:
        raise ValueError("term has no 'pauli' or 'blockenc'")
    be = require_keys(d["blockenc"], "blockenc", "handle", "n", "alpha", "anc")
    matrix = (None if be.get("matrix") is None
              else matrix_from_json(be["matrix"], "blockenc matrix"))
    return coeff, BlockEncRef(be["handle"], require_int(be["n"], "blockenc n"),
                              require_number(be["alpha"], "blockenc alpha"),
                              require_int(be["anc"], "blockenc anc"),
                              matrix)


def _term_lists_to_json(sums: list[PauliSum]) -> list:
    """The term lists of a document's operators (Kraus operators, or H and
    jumps), with the labels of all their Pauli strings in one pass."""
    prims = [p for s in sums for _, p in s.terms]
    ns = {s.n for s in sums}
    if set(map(type, prims)) != {PauliString} or len(ns) != 1 or max(ns) > _BULK_SITES:
        return [[term_to_json(c, p) for c, p in s.terms] for s in sums]
    n = ns.pop()
    sites = np.arange(n, dtype=np.uint64)
    x = np.array([p.x_mask for p in prims], dtype=np.uint64)[:, None] >> sites
    z = np.array([p.z_mask for p in prims], dtype=np.uint64)[:, None] >> sites
    text = _CODE_LETTERS[(x & 1) | (z & 1) << 1].tobytes().decode("ascii")
    coeffs = _pairs(np.array([c for s in sums for c, _ in s.terms], dtype=complex))
    terms = [{"coeff": c, "pauli": text[i:i + n], "phase_exp": p.phase_exp}
             for c, i, p in zip(coeffs, range(0, len(text), n), prims)]
    ends = list(accumulate(len(s.terms) for s in sums))
    return [terms[a:b] for a, b in zip([0, *ends], ends)]


def _pauli_terms_in_bulk(terms, n: int) -> list | None:
    """The (coeff, PauliString) pairs of a regular all-Pauli term list, or
    None if some term is irregular, for the per-term path to read (or reject
    with its own message).  Regular means exact dict, list, str, int and
    float types (so no bools), [re, im] pairs of finite numbers, IXYZ labels
    of length n, and int phase_exps."""
    if not 1 <= n <= _BULK_SITES:
        return None
    if set(map(type, terms)) != {dict}:
        return None
    get = dict.get
    cs = list(map(get, terms, repeat("coeff")))
    labels = list(map(get, terms, repeat("pauli")))
    phases = list(map(get, terms, repeat("phase_exp"), repeat(0)))
    if (set(map(type, cs)) != {list} or set(map(len, cs)) != {2}
            or set(map(type, labels)) != {str} or set(map(len, labels)) != {n}
            or set(map(type, phases)) != {int}):
        return None
    parts = list(chain.from_iterable(cs))
    if not set(map(type, parts)) <= {int, float}:
        return None
    try:
        re_im = np.array(parts, dtype=float)
    except OverflowError:  # an int beyond the float range
        return None
    text = "".join(labels)
    if not (np.isfinite(re_im).all() and text.isascii()):
        return None
    codes = _LETTER_CODES[np.frombuffer(text.encode("ascii"), dtype=np.uint8)]
    if (codes > 3).any():
        return None
    codes = codes.reshape(len(terms), n).astype(np.uint64)
    sites = np.arange(n, dtype=np.uint64)
    x = ((codes & 1) << sites).sum(axis=1, dtype=np.uint64)
    z = ((codes >> 1) << sites).sum(axis=1, dtype=np.uint64)
    # a view keeps each part as given; re + 1j*im can drop a zero's sign
    coeffs = re_im.view(complex).tolist()
    # one shared string per distinct (x, z, i-power): operators reuse few
    keys = list(zip(x.tolist(), z.tolist(), [e % 4 for e in phases]))
    strings = {key: PauliString(n, *key) for key in dict.fromkeys(keys)}
    return list(zip(coeffs, map(strings.__getitem__, keys)))


def _term_lists_from_json(items: dict, n: int) -> list[PauliSum]:
    """A document's operators, named by key ("H", "jump 0", "Kraus operator
    0"), from their term lists, read in one bulk pass (or term by term, in
    order, if one term is irregular), and its dense jumps ({"matrix": m}),
    decomposed where they stand."""
    lists = (x for x in items.values() if type(x) is list)
    pairs = _pauli_terms_in_bulk(list(chain.from_iterable(lists)), n)
    out, start = [], 0
    for name, x in items.items():
        if type(x) is dict:
            try:
                out.append(pauli_decompose(matrix_from_json(x["matrix"]), n))
            except ValueError as exc:
                raise _led_by(name, exc)
        elif pairs is None:
            terms = [term_from_json(t, f"{name} term {i}") for i, t in enumerate(x)]
            try:
                out.append(PauliSum(n, terms))
            except ValueError as exc:
                raise _led_by(name, exc)
        else:
            out.append(PauliSum(n, pairs[start:start + len(x)]))
            start += len(x)
    return out


def channel_to_json(c: ChannelExpr) -> dict:
    return {"n": c.n, "kraus": _term_lists_to_json(c.kraus)}


def _sites_from_json(d: dict) -> int:
    n = require_int(d["n"], "n")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return n


def channel_from_json(d: dict) -> ChannelExpr:
    n = _sites_from_json(require_keys(d, "channel", "n", "kraus"))
    kraus = {}
    for i, k in enumerate(require_list(d["kraus"], "kraus")):
        kraus[f"Kraus operator {i}"] = require_list(k, f"Kraus operator {i}")
    return ChannelExpr(n, _term_lists_from_json(kraus, n))


def lindblad_to_json(spec: LindbladSpec) -> dict:
    ham, *jumps = _term_lists_to_json([spec.hamiltonian, *spec.jumps])
    return {"n": spec.n, "H": ham, "jumps": jumps}


def lindblad_from_json(d: dict) -> LindbladSpec:
    n = _sites_from_json(require_keys(d, "spec", "n"))
    ops = {"H": require_list(d.get("H", []), "H")}
    # a dense jump operator is accepted and expanded on ingest
    for k, j in enumerate(require_list(d.get("jumps", []), "jumps")):
        ops[f"jump {k}"] = (j if type(j) is dict and "matrix" in j
                            else require_list(j, f"jump {k}"))
    ham, *jumps = _term_lists_from_json(ops, n)
    return LindbladSpec(n, ham, jumps)
