"""Kraus-form channel IR.

A channel is a list of Kraus operators; each Kraus operator is a complex
combination of primitives.  Primitives are either Pauli strings (phases
restricted to powers of i; any other phase belongs in the coefficient) or
opaque references to externally supplied block encodings.  Dense semantics:
apply_channel(C, [rho]) = [sum_i K_i rho K_i^dag].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .pauli import (
    PauliString,
    PauliSum,
    dense_sum,
    from_label,
    is_hermitian_sum,
)


class TypecheckError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class PauliUnitary:
    """A Pauli-string primitive; string.phase_exp carries any i-power."""

    string: PauliString

    @property
    def n(self) -> int:
        return self.string.n

    def bare(self) -> "PauliUnitary":
        return PauliUnitary(self.string.bare())


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
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha!r}")
        if not isinstance(self.anc, (int, np.integer)) or self.anc < 0:
            raise ValueError(f"anc must be a nonnegative integer, got {self.anc!r}")
        if self.matrix is not None:
            m = np.asarray(self.matrix, dtype=complex)
            if m.shape != (1 << self.n, 1 << self.n):
                raise ValueError("matrix shape does not match n")
            object.__setattr__(self, "matrix", m)


Primitive = PauliUnitary | BlockEncRef


@dataclass(slots=True)
class KrausExpr:
    n: int
    terms: list[tuple[complex, Primitive]]

    @staticmethod
    def from_pauli_sum(s: PauliSum) -> "KrausExpr":
        return KrausExpr(s.n, [(c, PauliUnitary(p)) for c, p in s.terms])

    def pauli_sum(self) -> PauliSum:
        """View as a PauliSum; rejects opaque primitives."""
        out = []
        for c, prim in self.terms:
            if not isinstance(prim, PauliUnitary):
                raise TypecheckError("Kraus term is not a Pauli primitive")
            out.append((c, prim.string))
        return PauliSum(self.n, out)


@dataclass(slots=True)
class ChannelExpr:
    n: int
    kraus: list[KrausExpr]

    @staticmethod
    def from_pauli_sums(sums: list[PauliSum]) -> "ChannelExpr":
        if not sums:
            raise ValueError("need at least one Kraus operator")
        return ChannelExpr(sums[0].n, [KrausExpr.from_pauli_sum(s) for s in sums])


@dataclass(slots=True)
class LindbladSpec:
    """drho/dt = -i[H, rho] + sum_j (L rho L^dag - {L^dag L, rho}/2)."""

    n: int
    hamiltonian: PauliSum
    jumps: list[PauliSum] = field(default_factory=list)

    def __post_init__(self):
        if self.hamiltonian.n != self.n:
            raise TypecheckError("Hamiltonian site count differs from n")
        if not is_hermitian_sum(self.hamiltonian):
            raise TypecheckError("Hamiltonian must be Hermitian")
        for k, j in enumerate(self.jumps):
            if j.n != self.n:
                raise TypecheckError(f"jump {k} site count differs from n")


def typecheck(expr) -> int:
    """Check dimension consistency; returns the system size n."""
    if isinstance(expr, ChannelExpr):
        for i, k in enumerate(expr.kraus):
            if k.n != expr.n:
                raise TypecheckError(f"Kraus {i}: size {k.n} != channel size {expr.n}")
            typecheck(k)
        return expr.n
    if isinstance(expr, KrausExpr):
        for t, (coeff, prim) in enumerate(expr.terms):
            if not isinstance(prim, (PauliUnitary, BlockEncRef)):
                raise TypecheckError(f"term {t}: unknown primitive {type(prim).__name__}")
            if prim.n != expr.n:
                raise TypecheckError(
                    f"term {t} ({type(prim).__name__}): size {prim.n} != {expr.n}"
                )
        return expr.n
    if isinstance(expr, LindbladSpec):
        return expr.n
    raise TypecheckError(f"not an IR node: {type(expr).__name__}")


def eval_kraus(k: KrausExpr, cap: int | None = None) -> np.ndarray:
    """Dense matrix of one Kraus operator."""
    return dense_sum(k.n, ((c, _dense_operand(p)) for c, p in k.terms), cap,
                     "eval_kraus")


def _dense_operand(prim: Primitive):
    if isinstance(prim, PauliUnitary):
        return prim.string
    if prim.matrix is None:
        raise TypecheckError(f"block encoding {prim.handle!r} has no matrix to evaluate")
    return prim.matrix


def validate_density(rho: np.ndarray, n: int, tol: float = 1e-9) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (1 << n, 1 << n):
        raise ValueError("density matrix has the wrong shape")
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > tol:
        raise ValueError("density matrix trace is not 1")
    if np.linalg.eigvalsh(rho).min() < -1e-10:
        raise ValueError("density matrix is not positive semidefinite")
    return rho


def apply_channel(c: ChannelExpr, states, cap: int | None = None) -> list[np.ndarray]:
    """sum_i K_i rho K_i^dag for each validated density matrix in `states`.

    Each Kraus operator is evaluated once for all the states.
    """
    rhos = [validate_density(rho, c.n) for rho in states]
    mats = [(m, m.conj().T) for m in (eval_kraus(k, cap) for k in c.kraus)]
    outs = []
    for rho in rhos:
        out = np.zeros_like(rho)
        for m, m_dag in mats:
            out += m @ rho @ m_dag
        outs.append(out)
    return outs


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """(1/2)||a - b||_1 for Hermitian a, b."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def haar_states(n: int, count: int, seed: int = 7) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    dim = 1 << n
    out = []
    for _ in range(count):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        v /= np.linalg.norm(v)
        out.append(np.outer(v, v.conj()))
    return out


def probe_states(n: int, samples: int = 32, seed: int = 7) -> list[np.ndarray]:
    """Computational basis states plus Haar-random pure states."""
    dim = 1 << n
    basis = []
    for i in range(dim):
        rho = np.zeros((dim, dim), dtype=complex)
        rho[i, i] = 1.0
        basis.append(rho)
    return basis + haar_states(n, samples, seed)


def channel_distance(a: ChannelExpr, b: ChannelExpr, samples: int = 32,
                     seed: int = 7, cap: int | None = None) -> float:
    """Max sampled trace distance between two channels (diamond-norm proxy)."""
    if a.n != b.n:
        raise TypecheckError("channel sizes differ")
    states = probe_states(a.n, samples, seed)
    worst = 0.0
    for out_a, out_b in zip(apply_channel(a, states, cap),
                            apply_channel(b, states, cap)):
        worst = max(worst, trace_distance(out_a, out_b))
    return worst


# --- JSON forms ------------------------------------------------------------
#
# Term: {"coeff": [re, im], "pauli": "XIZYI", "phase_exp": 0}
#   or  {"coeff": [re, im], "blockenc": {"handle", "n", "alpha", "anc", "matrix"}}
# Channel: {"n": n, "kraus": [[term, ...], ...]}
# Lindblad: {"n": n, "H": [term, ...], "jumps": [[term, ...] | {"matrix": m}, ...]}


def _c2pair(c: complex) -> list[float]:
    return [float(np.real(c)), float(np.imag(c))]


def require_int(value, what: str) -> int:
    """Integer fields are Python ints: a bool, float or string is rejected."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _pair2c(p) -> complex:
    c = complex(p[0], p[1])
    if not cmath.isfinite(c):
        raise ValueError(f"non-finite coefficient {p!r}")
    return c


def matrix_to_json(m: np.ndarray) -> list:
    return [[_c2pair(x) for x in row] for row in np.asarray(m, dtype=complex)]


def matrix_from_json(rows) -> np.ndarray:
    return np.array([[_pair2c(x) for x in row] for row in rows], dtype=complex)


def term_to_json(coeff: complex, prim: Primitive) -> dict:
    if isinstance(prim, PauliUnitary):
        return {
            "coeff": _c2pair(coeff),
            "pauli": prim.string.label(),
            "phase_exp": prim.string.phase_exp,
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


def term_from_json(d: dict) -> tuple[complex, Primitive]:
    coeff = _pair2c(d["coeff"])
    if "pauli" in d:
        phase_exp = require_int(d.get("phase_exp", 0), "phase_exp")
        return coeff, PauliUnitary(from_label(d["pauli"], phase_exp))
    be = d["blockenc"]
    matrix = None if be.get("matrix") is None else matrix_from_json(be["matrix"])
    return coeff, BlockEncRef(be["handle"], require_int(be["n"], "blockenc n"),
                              be["alpha"], require_int(be["anc"], "blockenc anc"),
                              matrix)


def channel_to_json(c: ChannelExpr) -> dict:
    return {
        "n": c.n,
        "kraus": [[term_to_json(a, p) for a, p in k.terms] for k in c.kraus],
    }


def channel_from_json(d: dict) -> ChannelExpr:
    n = require_int(d["n"], "n")
    c = ChannelExpr(n, [KrausExpr(n, [term_from_json(t) for t in terms])
                        for terms in d["kraus"]])
    typecheck(c)
    return c


def pauli_sum_to_json(s: PauliSum) -> list:
    return [term_to_json(c, PauliUnitary(p)) for c, p in s.terms]


def pauli_sum_from_json(terms, n: int) -> PauliSum:
    out = []
    for t in terms:
        coeff, prim = term_from_json(t)
        if not isinstance(prim, PauliUnitary):
            raise TypecheckError("expected a Pauli term")
        out.append((coeff, prim.string))
    return PauliSum(n, out)


def lindblad_to_json(spec: LindbladSpec) -> dict:
    return {
        "n": spec.n,
        "H": pauli_sum_to_json(spec.hamiltonian),
        "jumps": [pauli_sum_to_json(j) for j in spec.jumps],
    }


def lindblad_from_json(d: dict) -> LindbladSpec:
    from .pauli import pauli_decompose

    n = require_int(d["n"], "n")
    ham = pauli_sum_from_json(d.get("H", []), n)
    jumps = []
    for j in d.get("jumps", []):
        if isinstance(j, dict) and "matrix" in j:
            # dense jump operators are accepted and expanded on ingest
            jumps.append(pauli_decompose(matrix_from_json(j["matrix"]), n))
        else:
            jumps.append(pauli_sum_from_json(j, n))
    return LindbladSpec(n, ham, jumps)
