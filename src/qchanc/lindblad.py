"""Short-time lowering of Lindbladian generators to Kraus channels.

Two frontends share the LindbladSpec input: a symbolic first-order
expansion that keeps coefficients exact in the Pauli algebra, and a
Duhamel-series expansion that works densely (matrix exponentials force
that) and converts each Kraus operator back to a Pauli sum afterwards.
"""

from dataclasses import dataclass
from itertools import product
from math import factorial, sqrt

import numpy as np
import scipy.linalg

from .ir import ChannelExpr, KrausExpr, LindbladSpec
from .pauli import (
    PauliSum,
    canonicalize_sum,
    check_cap,
    identity_sum,
    pauli_decompose,
)

DECOMPOSE_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class QuadratureSpec:
    """Gauss-Legendre quadrature plan for the Duhamel expansion.

    expansion_order is the number of nested-integral levels kept,
    drift_taylor_order truncates each drift exponential, and
    nodes_per_level sets the Gauss-Legendre point count per integral.
    """

    expansion_order: int = 1
    drift_taylor_order: int = 1
    nodes_per_level: int = 1

    def __post_init__(self):
        if self.expansion_order < 1:
            raise ValueError("expansion_order must be at least 1")
        if self.drift_taylor_order < 1:
            raise ValueError("drift_taylor_order must be at least 1")
        if self.nodes_per_level < 1:
            raise ValueError("nodes_per_level must be at least 1")


def jump_dissipator(spec: LindbladSpec) -> PauliSum:
    """Symbolic sum_j L_j^dag L_j as a canonical Pauli sum."""
    acc = PauliSum(spec.n, [])
    for jump in spec.jumps:
        acc = acc + (jump.dagger() * jump)
    return canonicalize_sum(acc)


def first_order(spec: LindbladSpec, delta: float) -> ChannelExpr:
    """A_0 = I - i delta H - (delta/2) sum L^dag L; A_j = sqrt(delta) L_j."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    a0 = identity_sum(spec.n)
    a0 = a0 + spec.hamiltonian.scaled(-1j * delta)
    a0 = a0 + jump_dissipator(spec).scaled(-delta / 2)
    sums = [canonicalize_sum(a0)]
    root = sqrt(delta)
    for jump in spec.jumps:
        aj = canonicalize_sum(jump.scaled(root))
        # all-zero jumps contribute nothing; keep the channel literal
        if aj.terms:
            sums.append(aj)
    return ChannelExpr.from_pauli_sums(sums)


def _drift_generator(spec: LindbladSpec, cap: int | None) -> np.ndarray:
    """Dense J = -iH - (1/2) sum L^dag L."""
    check_cap(spec.n, cap, "drift generator")
    h = spec.hamiltonian.to_matrix(cap)
    j = -1j * h
    for jump in spec.jumps:
        l = jump.to_matrix(cap)
        j -= 0.5 * (l.conj().T @ l)
    return j


def _taylor_exp(j: np.ndarray, t: float, order: int) -> np.ndarray:
    """Truncated Taylor series of exp(J t) through (Jt)^order / order!."""
    dim = j.shape[0]
    acc = np.eye(dim, dtype=complex)
    term = np.eye(dim, dtype=complex)
    for p in range(1, order + 1):
        term = term @ (j * t) / p
        acc = acc + term
    return acc


def _unit_legendre(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [0, 1]."""
    xs, ws = np.polynomial.legendre.leggauss(q)
    return (xs + 1.0) / 2.0, ws / 2.0


def higher_order(spec: LindbladSpec, delta: float, quad: QuadratureSpec,
                 cap: int | None = None) -> ChannelExpr:
    """Duhamel expansion of exp(delta L) to quad.expansion_order levels.

    Level k integrates over the ordered simplex 0 <= s_1 <= ... <= s_k
    <= delta via the iterated substitution s_i = s_{i+1} * x_i (s_{k+1}
    = delta), which turns the nested integrals into a q^k tensor grid
    with Jacobian prod_i x_i^(i-1).  Each node/jump tuple yields one
    Kraus operator sqrt(weight) * T(delta - s_k) L ... L T(s_1) with T
    the Taylor-truncated drift, decomposed back into a Pauli sum.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    j = _drift_generator(spec, cap)
    sums = [pauli_decompose(_taylor_exp(j, delta, quad.drift_taylor_order),
                            spec.n, DECOMPOSE_TOL, cap)]
    if spec.jumps:
        jump_mats = [jump.to_matrix(cap) for jump in spec.jumps]
        nodes, weights = _unit_legendre(quad.nodes_per_level)
        for level in range(1, quad.expansion_order + 1):
            for node_idx in product(range(len(nodes)), repeat=level):
                # s_k = delta * x_k, then s_i = s_{i+1} * x_i going down
                times = np.empty(level)
                scalar = float(delta) ** level
                upper = delta
                for i in range(level - 1, -1, -1):
                    x = nodes[node_idx[i]]
                    upper = upper * x
                    times[i] = upper
                    scalar *= weights[node_idx[i]] * x ** i
                # the drift factors depend on the nodes only
                first = _taylor_exp(j, times[0], quad.drift_taylor_order)
                drifts = [
                    _taylor_exp(j, (times[i + 1] if i + 1 < level else delta) - times[i],
                                quad.drift_taylor_order)
                    for i in range(level)
                ]
                for jump_idx in product(range(len(jump_mats)), repeat=level):
                    op = first
                    for i in range(level):
                        op = jump_mats[jump_idx[i]] @ op
                        op = drifts[i] @ op
                    sums.append(pauli_decompose(sqrt(scalar) * op, spec.n,
                                                DECOMPOSE_TOL, cap))
    # pauli_decompose sums are already canonical: distinct bare strings, each
    # with |c| > DECOMPOSE_TOL; the drift Kraus always carries the identity
    return ChannelExpr(spec.n, [KrausExpr.from_pauli_sum(s) for s in sums if s.terms])


def lindblad_opnorm(spec: LindbladSpec, cap: int | None = None) -> float:
    """||H||_2 + sum_j ||L_j||_2^2 via dense singular values."""
    check_cap(spec.n, cap, "lindblad_opnorm")
    total = float(np.linalg.norm(spec.hamiltonian.to_matrix(cap), 2))
    for jump in spec.jumps:
        total += float(np.linalg.norm(jump.to_matrix(cap), 2)) ** 2
    return total


def exact_propagator(spec: LindbladSpec, t: float,
                     cap: int | None = None) -> np.ndarray:
    """Dense superoperator exp(t L) acting on row-major vectorized rho."""
    check_cap(2 * spec.n, cap, "exact_propagator")
    # rho -> J rho + rho J^dag + sum_j L_j rho L_j^dag, with vec(A rho B)
    # = (A kron B^T) vec(rho) in row-major order
    eye = np.eye(1 << spec.n)
    j = _drift_generator(spec, cap)
    lind = np.kron(j, eye) + np.kron(eye, j.conj())
    for jump in spec.jumps:
        l = jump.to_matrix(cap)
        lind += np.kron(l, l.conj())
    return scipy.linalg.expm(t * lind)


def propagate(superop: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Apply a vectorized superoperator to a density matrix."""
    dim = rho.shape[0]
    return (superop @ rho.reshape(-1)).reshape(dim, dim)
