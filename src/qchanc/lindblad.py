"""Short-time lowering of Lindbladian generators to Kraus channels.

Two frontends share the LindbladSpec input: a symbolic first-order
expansion that keeps coefficients exact in the Pauli algebra, and a
Duhamel-series expansion that works densely (matrix exponentials force
that) and converts each Kraus operator back to a Pauli sum afterwards.
Both emit canonical sums, with coefficients at or below `pauli.ZERO_TOL`
dropped.

The exact reference exp(t L) rho that `verify` and `error-sweep` check
against comes from `evolve`, which applies the generator to the probe
states with 2^n x 2^n products and never forms a 4^n object, so it is
capped on n.  `exact_propagator` (the dense 4^n x 4^n superoperator, capped
on 2n) and `propagate` stay as the oracle it is tested against.
"""

from dataclasses import dataclass
from itertools import product
from math import ceil, sqrt

import numpy as np

from .ir import ChannelExpr, LindbladSpec, eval_kraus
from .pauli import (
    PauliSum,
    canonicalize_sum,
    check_cap,
    identity_sum,
    pauli_decompose,
)

# Al-Mohy & Higham, "Computing the action of the matrix exponential" (SIAM
# J. Sci. Comput. 2011): a degree-m Taylor step keeps a 2^-53 backward
# error while ||t A||_1 <= theta_m
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
# the most Taylor steps evolve takes: a larger |t| times norm bound is refused
MAX_TAYLOR_STEPS = 1000


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
    return ChannelExpr(spec.n, sums)


def _drift_generator(spec: LindbladSpec,
                     cap: int | None) -> tuple[np.ndarray, list[np.ndarray]]:
    """Dense J = -iH - (1/2) sum L^dag L, and the jumps' dense matrices."""
    check_cap(spec.n, cap, "drift generator")
    jump_mats = [eval_kraus(jump, cap) for jump in spec.jumps]
    j = -1j * eval_kraus(spec.hamiltonian, cap)
    for l in jump_mats:
        j -= 0.5 * (l.conj().T @ l)
    return j, jump_mats


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
    try:
        with np.errstate(over="raise", invalid="raise"):
            sums = _duhamel_sums(spec, delta, quad, cap)
    except (OverflowError, FloatingPointError) as exc:
        raise ValueError(f"delta = {delta:g} overflows the order-"
                         f"{quad.expansion_order} expansion") from exc
    # pauli_decompose sums are already canonical: distinct bare strings, each
    # with |c| > ZERO_TOL; the drift Kraus always carries the identity
    return ChannelExpr(spec.n, [s for s in sums if s.terms])


def _duhamel_sums(spec: LindbladSpec, delta: float, quad: QuadratureSpec,
                  cap: int | None) -> list[PauliSum]:
    """higher_order's Kraus operators, empty ones included."""
    j, jump_mats = _drift_generator(spec, cap)
    sums = [pauli_decompose(_taylor_exp(j, delta, quad.drift_taylor_order),
                            spec.n, cap=cap)]
    if jump_mats:
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
                    sums.append(pauli_decompose(sqrt(scalar) * op, spec.n, cap=cap))
    return sums


def lindblad_opnorm(spec: LindbladSpec, cap: int | None = None) -> float:
    """||H||_2 + sum_j ||L_j||_2^2 via dense singular values."""
    check_cap(spec.n, cap, "lindblad_opnorm")
    total = float(np.linalg.norm(eval_kraus(spec.hamiltonian, cap), 2))
    for jump in spec.jumps:
        total += float(np.linalg.norm(eval_kraus(jump, cap), 2)) ** 2
    return total


def short_time_bound(delta: float, opnorm: float, order: int) -> float:
    """Short-time error bound 5 (delta ||L||)^(order + 1) of an order-K
    lowering, with ||L|| from lindblad_opnorm."""
    return 5.0 * (delta * opnorm) ** (order + 1)


def exact_propagator(spec: LindbladSpec, t: float,
                     cap: int | None = None) -> np.ndarray:
    """Dense superoperator exp(t L) acting on row-major vectorized rho."""
    import scipy.linalg  # only this test oracle needs scipy: off the CLI's path
    check_cap(2 * spec.n, cap, "exact_propagator")
    # rho -> J rho + rho J^dag + sum_j L_j rho L_j^dag, with vec(A rho B)
    # = (A kron B^T) vec(rho) in row-major order
    eye = np.eye(1 << spec.n)
    j, jump_mats = _drift_generator(spec, cap)
    lind = np.kron(j, eye) + np.kron(eye, j.conj())
    for l in jump_mats:
        lind += np.kron(l, l.conj())
    return scipy.linalg.expm(t * lind)


def _one_norm(a: np.ndarray) -> float:
    """Induced 1-norm: the largest absolute column sum."""
    return float(np.abs(a).sum(axis=0).max())


def evolve(spec: LindbladSpec, t: float, states: list[np.ndarray],
           cap: int | None = None) -> list[np.ndarray]:
    """exp(t L) rho for each state, without forming any 4^n object.

    The states are stacked as one 2^n x (k 2^n) block, so each generator
    application rho -> J rho + rho J^dag + sum_j L_j rho L_j^dag is two
    matrix products per term over all probes.  Following Al-Mohy & Higham,
    exp(t L) is s steps of a degree-m Taylor series, with (m, s) the least
    m s where ||(t/s) L||_1 <= theta_m, for the induced 1-norm bound
    2 ||J||_1 + sum_j ||L_j||_1^2 (||A kron B||_1 = ||A||_1 ||B||_1); each
    step stops early once two terms fall below rounding of the sum.  Every
    choice is deterministic, so equal inputs give bitwise-equal outputs.
    """
    check_cap(spec.n, cap, "evolve")
    if not len(states):
        return []
    dim = 1 << spec.n
    # x[a, i, b] = states[i][a, b]: left and right products are one gemm each
    x = np.stack(states, axis=1).astype(complex)
    if x.shape != (dim, len(states), dim):
        raise ValueError(f"states must be {dim} x {dim} matrices")
    j, jumps = _drift_generator(spec, cap)
    norm = 2 * _one_norm(j) + sum(_one_norm(l) ** 2 for l in jumps)
    tn = abs(t) * norm
    if not tn <= MAX_TAYLOR_STEPS * _THETA[55]:  # also NaN and inf
        raise ValueError(
            f"exp(t L) at t = {t:g} with generator norm bound {norm:.6g} "
            f"needs more than {MAX_TAYLOR_STEPS} Taylor steps")
    if tn == 0:
        return list(np.ascontiguousarray(x.transpose(1, 0, 2)))
    degree, steps = min(((m, ceil(tn / theta)) for m, theta in _THETA.items()),
                        key=lambda ms: ms[0] * ms[1])
    wide, tall = (dim, len(states) * dim), (len(states) * dim, dim)
    jh = j.conj().T
    jump_pairs = [(l, l.conj().T) for l in jumps]

    def generator(b):
        out = (j @ b.reshape(wide)).reshape(b.shape)
        out += (b.reshape(tall) @ jh).reshape(b.shape)
        for l, lh in jump_pairs:
            out += ((l @ b.reshape(wide)).reshape(tall) @ lh).reshape(b.shape)
        return out

    h = t / steps
    tol = 2.0 ** -53
    for _ in range(steps):
        term = x
        c1 = np.abs(term).max()
        for k in range(1, degree + 1):
            term = generator(term)
            term *= h / k
            c2 = np.abs(term).max()
            x += term
            if c1 + c2 <= tol * np.abs(x).max():
                break
            c1 = c2
    return list(np.ascontiguousarray(x.transpose(1, 0, 2)))


def propagate(superop: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Apply a vectorized superoperator to a density matrix."""
    dim = rho.shape[0]
    return (superop @ rho.reshape(-1)).reshape(dim, dim)
