"""Symplectic Pauli algebra on bit masks.

A Pauli string on n sites is stored as a pair of n-bit masks plus a power
of i.  Site k corresponds to the k-th character of a text label ("XIZYI"
reads site 0 = X, site 3 = Y) and to bit k of each mask, so the label
"XIZYI" has x_mask 0b01001 (sites 0 and 3) and z_mask 0b01100 (sites 2
and 3).  The operator represented is

    i**phase_exp * W(x_0, z_0) (x) W(x_1, z_1) (x) ...

where W(1,0)=X, W(0,1)=Z, W(1,1)=Y, W(0,0)=I.  In matrices, site 0 is
the most significant index bit (first Kronecker factor).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat

import numpy as np

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {v: k for k, v in _LETTER_TO_BITS.items()}
_I_POWERS = np.array((1 + 0j, 1j, -1 + 0j, -1j))

DEFAULT_QUBIT_CAP = 14
# entries per dense_sum scatter: bounds its index and value scratch arrays
_SCATTER_ENTRIES = 1 << 18
_CAP_ENV = "QCHANC_CAP"
# the one zero tolerance: canonical forms and expansions drop |c| <= ZERO_TOL
ZERO_TOL = 1e-12


class TypecheckError(ValueError):
    """An IR node whose parts do not fit together (site counts, primitive
    kinds)."""


def check_cap(n: int, cap: int | None, what: str) -> None:
    """Raise ValueError if `what` needs more than the dense-matrix qubit cap:
    the argument, else the environment variable, else the default."""
    if cap is None:
        env = os.environ.get(_CAP_ENV)
        try:
            cap = int(env) if env else DEFAULT_QUBIT_CAP
            if cap < 1:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"{_CAP_ENV} must be a positive integer, got {env!r}") from None
    if n > cap:
        raise ValueError(f"{what} needs {n} qubits, above the cap of {cap}")


@dataclass(frozen=True, slots=True)
class PauliString:
    """One Pauli string: masks are over sites, phase_exp is a power of i mod 4."""

    n: int
    x_mask: int
    z_mask: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one site")
        full = (1 << self.n) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask exceeds the declared number of sites")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    def bare(self) -> "PauliString":
        """The same string with the i-power stripped."""
        if self.phase_exp == 0:
            return self
        return PauliString(self.n, self.x_mask, self.z_mask, 0)

    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def phase(self) -> complex:
        return complex(_I_POWERS[self.phase_exp])

    def dagger(self) -> "PauliString":
        # the bare string is Hermitian, only the i-power conjugates
        return PauliString(self.n, self.x_mask, self.z_mask, -self.phase_exp)

    def label(self) -> str:
        return "".join(
            _BITS_TO_LETTER[(self.x_mask >> k) & 1, (self.z_mask >> k) & 1]
            for k in range(self.n)
        )

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)


# the slot setters, which skip the frozen __setattr__ and __post_init__
_STRING_SLOTS = tuple(PauliString.__dict__[f].__set__
                      for f in ("n", "x_mask", "z_mask", "phase_exp"))


def _unchecked_strings(n: int, x_masks, z_masks, phases=None) -> list[PauliString]:
    """Strings from masks already known to lie below 2^n (n >= 1), built
    without the __post_init__ checks, which cannot fail for them: bare, or
    with the given integer i-powers, reduced mod 4 as __post_init__ does."""
    new = object.__new__
    set_n, set_x, set_z, set_phase = _STRING_SLOTS
    out = []
    for x, z, e in zip(x_masks, z_masks, repeat(0) if phases is None else phases):
        p = new(PauliString)
        set_n(p, n)
        set_x(p, x)
        set_z(p, z)
        set_phase(p, e % 4)
        out.append(p)
    return out


def from_label(label: str, phase_exp: int = 0) -> PauliString:
    """Build a PauliString from an IXYZ text label (site 0 is the first char)."""
    if not label:
        raise ValueError("empty label")
    x = z = 0
    for k, ch in enumerate(label):
        try:
            xb, zb = _LETTER_TO_BITS[ch]
        except KeyError:
            raise ValueError(f"bad Pauli letter {ch!r} in {label!r}") from None
        x |= xb << k
        z |= zb << k
    return PauliString(len(label), x, z, phase_exp)


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Product a*b with exact phase tracking.

    Per site, with W(x,z) = i**(xz) X**x Z**z, the product picks up
    i**(x1 z1 + x2 z2 + 2 z1 x2 - x3 z3) where (x3, z3) are the XORed bits.
    """
    if a.n != b.n:
        raise ValueError(f"site counts differ: {a.n} vs {b.n}")
    x3 = a.x_mask ^ b.x_mask
    z3 = a.z_mask ^ b.z_mask
    d = (
        (a.x_mask & a.z_mask).bit_count()
        + (b.x_mask & b.z_mask).bit_count()
        + 2 * (a.z_mask & b.x_mask).bit_count()
        - (x3 & z3).bit_count()
    )
    return PauliString(a.n, x3, z3, a.phase_exp + b.phase_exp + d)


def weight(p: PauliString) -> int:
    """Number of non-identity sites."""
    return (p.x_mask | p.z_mask).bit_count()


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


def to_matrix(p: PauliString, cap: int | None = None) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the string (entries are exact units)."""
    return dense_sum(p.n, [(1, p)], cap, "to_matrix")


@lru_cache(maxsize=None)
def _bit_reversal(n: int) -> np.ndarray:
    """rev[mask]: an n-bit site mask as an index mask (site k is bit n-1-k),
    and back (the map is an involution)."""
    masks = np.arange(1 << n, dtype=np.int64)
    rev = np.zeros_like(masks)
    for k in range(n):
        rev |= ((masks >> k) & 1) << (n - 1 - k)
    rev.flags.writeable = False
    return rev


def _scatter_strings(m: np.ndarray, run) -> None:
    """Add sum c*P over a run of (c, PauliString) terms into m with one
    unbuffered scatter, which adds to each entry in term order (so runs
    may be split anywhere without changing a bit)."""
    n = run[0][1].n
    dim = 1 << n
    rev = _bit_reversal(n)
    x = np.array([p.x_mask for _, p in run], dtype=np.int64)
    z = np.array([p.z_mask for _, p in run], dtype=np.int64)
    e = np.array([p.phase_exp for _, p in run]) + np.bitwise_count(x & z)
    # P|c> = i^e (-1)^|c & z| |c ^ x> over index masks
    cols = np.arange(dim, dtype=np.int64)
    powers = e[:, None] + 2 * np.bitwise_count(cols & rev[z][:, None])
    vals = np.array([c for c, _ in run], dtype=complex)[:, None] * _I_POWERS[powers % 4]
    flat = ((cols ^ rev[x][:, None]) << n) | cols
    np.add.at(m.reshape(-1), flat.reshape(-1), vals.reshape(-1))


def dense_sum(n: int, terms, cap: int | None, what: str) -> np.ndarray:
    """Dense matrix of sum c*op over (c, op) terms.  An op is a PauliString,
    whose unit entries are scattered in, or a 2^n x 2^n matrix; every entry
    is summed in term order."""
    check_cap(n, cap, what)
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    run = []
    for c, op in terms:
        if isinstance(op, PauliString):
            run.append((c, op))
            if len(run) << n >= _SCATTER_ENTRIES:
                _scatter_strings(m, run)
                run = []
            continue
        if run:
            _scatter_strings(m, run)
            run = []
        m += c * op
    if run:
        _scatter_strings(m, run)
    return m


@dataclass(slots=True)
class PauliSum:
    """Linear combination of primitives; terms may be non-canonical.

    A primitive is a PauliString or an opaque block-encoding reference
    (`ir.BlockEncRef`), so the same term list is a Hamiltonian, a jump
    operator or a Kraus operator.  Every primitive acts on n sites.  `+`
    and `scaled` take any terms; `*` and `dagger` need Pauli strings only.
    """

    n: int
    terms: list[tuple[complex, PauliString]]

    def __post_init__(self):
        for t, (_, p) in enumerate(self.terms):
            if p.n != self.n:
                raise TypecheckError(
                    f"term {t} ({type(p).__name__}): size {p.n} != {self.n}")

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if other.n != self.n:
            raise ValueError("site counts differ")
        return PauliSum(self.n, list(self.terms) + list(other.terms))

    def scaled(self, c: complex) -> "PauliSum":
        return PauliSum(self.n, [(c * a, p) for a, p in self.terms])

    def __mul__(self, other: "PauliSum") -> "PauliSum":
        if other.n != self.n:
            raise ValueError("site counts differ")
        out = [
            (a * b, multiply(p, q))
            for a, p in self.terms
            for b, q in other.terms
        ]
        return PauliSum(self.n, out)

    def dagger(self) -> "PauliSum":
        return PauliSum(self.n, [(np.conj(a), p.dagger()) for a, p in self.terms])


def identity_sum(n: int, coeff: complex = 1.0) -> PauliSum:
    return PauliSum(n, [(complex(coeff), PauliString(n, 0, 0))])


def fold_terms(pairs, tol: float | None = None) -> dict:
    """The one canonical form of (coeff, primitive) pairs, as
    {key: (coeff, primitive)} in first-appearance order: i-powers folded
    into coefficients (only then is a primitive rebuilt, by bare()), equal
    primitives summed and, given a tol, terms with |c| <= tol dropped.  A
    bare PauliString's key is (n, x_mask, z_mask), whose tuple hash is
    cheaper than the dataclass's, and the one key a string is looked up by;
    an opaque primitive is its own key.  First coefficients are kept as
    given."""
    acc: dict = {}
    for coeff, prim in pairs:
        if prim.phase_exp:
            coeff = coeff * 1j ** prim.phase_exp
            prim = prim.bare()
        key = (prim.n, prim.x_mask, prim.z_mask) if type(prim) is PauliString else prim
        new = (coeff, prim)
        old = acc.setdefault(key, new)
        if old is not new:
            acc[key] = (old[0] + coeff, old[1])
    if tol is not None:
        for key in [key for key, (c, _) in acc.items() if abs(c) <= tol]:
            del acc[key]
    return acc


def canonicalize_sum(s: PauliSum, tol: float = ZERO_TOL) -> PauliSum:
    """fold_terms of the sum: bare strings in first-appearance order, terms
    with |c| <= tol dropped."""
    return PauliSum(s.n, list(fold_terms(s.terms, tol).values()))


def sums_close(a: PauliSum, b: PauliSum, tol: float = 1e-9) -> bool:
    diff = fold_terms(a.terms + [(-c, p) for c, p in b.terms])
    return all(abs(c) <= tol for c, _ in diff.values())


def is_hermitian_sum(s: PauliSum, tol: float = 1e-10) -> bool:
    return sums_close(s, s.dagger(), tol)


def pauli_decompose(m: np.ndarray, n: int | None = None, tol: float = ZERO_TOL,
                    cap: int | None = None) -> PauliSum:
    """Expand a dense matrix over bare Pauli strings, coeff = Tr(P^dag m)/2^n,
    with one Walsh-Hadamard transform (O(n 4^n) work for all 4^n strings).

    Terms below tol are dropped; the kept terms reconstruct m within the
    truncation error.  Output order is by (z_mask, x_mask).
    """
    dim = m.shape[0]
    if m.shape != (dim, dim) or dim & (dim - 1):
        raise ValueError("matrix must be square with power-of-two dimension")
    if n is None:
        n = dim.bit_length() - 1
    if (1 << n) != dim:
        raise ValueError("dimension does not match the site count")
    if n < 1:
        raise ValueError("need at least one site")
    check_cap(n, cap, "pauli_decompose")

    # coeff(X, Z) = i^-|X&Z| sum_c (-1)^|c&Z| m[c^X, c] / dim over index
    # masks: gather g[X, c] = m[c^X, c] row by row, then a Walsh-Hadamard
    # butterfly over c
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
    # the i-power has modulus one: only kept terms take it
    xs, zs = np.nonzero(np.abs(g) > tol)
    coeffs = g[xs, zs] * _I_POWERS[-np.bitwise_count(xs & zs).astype(np.int64) % 4]
    rev = _bit_reversal(n)
    x_masks, z_masks = rev[xs], rev[zs]
    order = np.lexsort((x_masks, z_masks))
    strings = _unchecked_strings(n, x_masks[order].tolist(), z_masks[order].tolist())
    return PauliSum(n, list(zip(coeffs[order].tolist(), strings)))
