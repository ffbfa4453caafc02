"""Deterministic generators for the benchmark families.

Every generator is a pure function of its parameters (and seed where
one is taken), so repeated calls reproduce identical instances.
"""

from math import sqrt

import numpy as np

from .ir import ChannelExpr, LindbladSpec
from .pauli import PauliString, PauliSum, canonicalize_sum, multiply


def gen_decay(gamma: float, nbar: float) -> LindbladSpec:
    """Single qubit coupled to a thermal bath: two jumps, no drive.

    L1 = sqrt(gamma (nbar+1)) (X - iY)/2 pumps into the low state,
    L2 = sqrt(gamma nbar) (X + iY)/2 pumps back out.
    """
    if gamma < 0 or nbar < 0:
        raise ValueError("gamma and nbar must be nonnegative")
    x = PauliString(1, 1, 0)
    y = PauliString(1, 1, 1)
    down = sqrt(gamma * (nbar + 1))
    up = sqrt(gamma * nbar)
    l1 = canonicalize_sum(PauliSum(1, [(down / 2, x), (-1j * down / 2, y)]))
    l2 = canonicalize_sum(PauliSum(1, [(up / 2, x), (1j * up / 2, y)]))
    return LindbladSpec(1, PauliSum(1, []), [l1, l2])


def gen_tfim(n: int, gamma: float) -> LindbladSpec:
    """Transverse-field Ising ring with uniform per-site damping.

    H = -(sum Z_i Z_{i+1} + Z_n Z_1) - sum X_i; the n=2 ring doubles
    its single bond.  Jumps are sqrt(gamma) (X_i - iY_i)/2.
    """
    if n < 2:
        raise ValueError("need at least two sites")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    terms = []
    for a in range(n):
        zz = (1 << a) | (1 << ((a + 1) % n))
        terms.append((-1.0 + 0j, PauliString(n, 0, zz)))
    for a in range(n):
        terms.append((-1.0 + 0j, PauliString(n, 1 << a, 0)))
    root = sqrt(gamma)
    jumps = []
    for a in range(n):
        bit = 1 << a
        jumps.append(canonicalize_sum(PauliSum(n, [
            (root / 2, PauliString(n, bit, 0)),
            (-1j * root / 2, PauliString(n, bit, bit)),
        ])))
    return LindbladSpec(n, PauliSum(n, terms), jumps)


def gen_random_pauli(n: int, m: int, seed: int) -> PauliSum:
    """m distinct non-identity strings with Gaussian complex coefficients."""
    if n < 1:
        raise ValueError("need at least one site")
    if not 1 <= m <= (1 << (2 * n)) - 1:
        raise ValueError("m must fit the non-identity string count")
    rng = np.random.default_rng(seed)
    seen = set()
    terms = []
    while len(terms) < m:
        x = int(rng.integers(0, 1 << n))
        z = int(rng.integers(0, 1 << n))
        if (x == 0 and z == 0) or (x, z) in seen:
            continue
        seen.add((x, z))
        coeff = complex(rng.normal(), rng.normal())
        terms.append((coeff, PauliString(n, x, z)))
    return PauliSum(n, terms)


def gen_hypercube_like(n_vertices: int, seed: int = 0) -> ChannelExpr:
    """Structured walk-flavored family: 2N Kraus, 4 Pauli terms each.

    Each Kraus is (1/sqrt(2N)) P exp(i pi X_a / 4) exp(i pi Z_b / 4)
    on ceil(log2 N) + 1 qubits with P a seeded random string, so every
    operator is a scaled unitary and sum K^dag K = I exactly.
    """
    if n_vertices < 2:
        raise ValueError("need at least two vertices")
    nq = (n_vertices - 1).bit_length() + 1
    m = 2 * n_vertices
    scale = 1.0 / sqrt(m)
    half = 0.5
    rng = np.random.default_rng(seed)
    kraus = []
    for j in range(m):
        a = j % nq
        b = (j // nq) % nq
        p = PauliString(nq, int(rng.integers(0, 1 << nq)),
                        int(rng.integers(0, 1 << nq)))
        xa = PauliString(nq, 1 << a, 0)
        zb = PauliString(nq, 0, 1 << b)
        base = [
            (half, PauliString(nq, 0, 0)),
            (1j * half, xa),
            (1j * half, zb),
            (-half, multiply(xa, zb)),
        ]
        terms = []
        for coeff, q in base:
            r = multiply(p, q)
            terms.append((scale * coeff * r.phase(), r.bare()))
        kraus.append(PauliSum(nq, terms))
    return ChannelExpr(nq, kraus)
