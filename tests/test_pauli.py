import math

import numpy as np
import pytest

from qchanc.ir import KrausExpr
from qchanc.pauli import (
    PauliString,
    PauliSum,
    canonicalize_sum,
    from_label,
    identity_sum,
    is_hermitian_sum,
    multiply,
    pauli_decompose,
    sums_close,
    to_matrix,
    weight,
)
from qchanc.rewrite import canonical_kraus

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.array([[1, 0], [0, -1]], dtype=complex)
MATS = {"I": I2, "X": X, "Y": Y, "Z": Z}


def dense(label, phase_exp=0):
    m = np.array([[1]], dtype=complex)
    for ch in label:
        m = np.kron(m, MATS[ch])
    return (1j ** phase_exp) * m


def all_strings(n):
    out = []
    for x in range(1 << n):
        for z in range(1 << n):
            out.append(PauliString(n, x, z))
    return out


def test_label_masks():
    p = from_label("XIZYI")
    assert p.x_mask == 0b01001
    assert p.z_mask == 0b01100
    assert p.phase_exp == 0
    assert p.label() == "XIZYI"


def test_label_round_trip_exhaustive_n2():
    for p in all_strings(2):
        assert from_label(p.label()) == p


def test_bad_label():
    with pytest.raises(ValueError):
        from_label("XQ")
    with pytest.raises(ValueError):
        from_label("")


def test_to_matrix_matches_kron():
    for p in all_strings(2):
        for phase in range(4):
            q = PauliString(2, p.x_mask, p.z_mask, phase)
            assert np.array_equal(to_matrix(q), dense(q.label(), phase))


def test_single_site_products():
    x, z = from_label("X"), from_label("Z")
    assert multiply(x, z) == PauliString(1, 1, 1, 3)  # XZ = -iY
    assert multiply(z, x) == PauliString(1, 1, 1, 1)  # ZX = +iY


def test_two_site_product_against_dense_oracle():
    # ZX * XZ: the dense product fixes the phase
    a, b = from_label("ZX"), from_label("XZ")
    prod = multiply(a, b)
    assert np.array_equal(to_matrix(prod), to_matrix(a) @ to_matrix(b))
    assert prod.bare() == from_label("YY")


def test_multiply_faithful_exhaustive_n2():
    strs = all_strings(2)
    mats = {p: to_matrix(p) for p in strs}
    for a in strs:
        for b in strs:
            got = to_matrix(multiply(a, b))
            assert np.array_equal(got, mats[a] @ mats[b])


def test_multiply_faithful_with_phases_n1():
    for a in all_strings(1):
        for b in all_strings(1):
            for pa in range(4):
                for pb in range(4):
                    qa = PauliString(1, a.x_mask, a.z_mask, pa)
                    qb = PauliString(1, b.x_mask, b.z_mask, pb)
                    got = to_matrix(multiply(qa, qb))
                    assert np.array_equal(got, to_matrix(qa) @ to_matrix(qb))


def test_associativity_fuzz():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        ps = [
            PauliString(
                n,
                int(rng.integers(0, 1 << n)),
                int(rng.integers(0, 1 << n)),
                int(rng.integers(0, 4)),
            )
            for _ in range(3)
        ]
        a, b, c = ps
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_dagger():
    for p in all_strings(2):
        for phase in range(4):
            q = PauliString(2, p.x_mask, p.z_mask, phase)
            assert np.array_equal(to_matrix(q.dagger()), to_matrix(q).conj().T)


def test_weight():
    assert weight(from_label("XIZYI")) == 3
    assert weight(from_label("III")) == 0
    assert weight(from_label("Y")) == 1


def test_mismatched_sites_rejected():
    with pytest.raises(ValueError):
        multiply(from_label("X"), from_label("XX"))


def test_canonicalize_merges_and_folds_phases():
    iy = from_label("Y", phase_exp=1)
    s = PauliSum(1, [(1.0, iy), (2.0, from_label("Y")), (1e-15, from_label("X")),
                     (complex(0.5, -0.0), from_label("Z"))])
    c = canonicalize_sum(s)
    assert len(c.terms) == 2
    coeff, p = c.terms[0]
    assert p == from_label("Y")
    assert coeff == pytest.approx(2.0 + 1.0j)
    # the first coefficient of a string is kept as given, signed zero too
    assert c.terms[1] == (0.5, from_label("Z"))
    assert math.copysign(1.0, c.terms[1][0].imag) == -1.0

    # Kraus operators share the one canonical form, bit for bit
    k = canonical_kraus(KrausExpr.from_pauli_sum(s))
    assert [p.string for _, p in k.terms] == [p for _, p in c.terms]
    for (a, _), (b, _) in zip(c.terms, k.terms):
        for x, y in ((a.real, b.real), (a.imag, b.imag)):
            assert x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def test_canonicalize_cancellation():
    s = PauliSum(1, [(1.0, from_label("Z")), (-1.0, from_label("Z"))])
    assert canonicalize_sum(s).terms == []


def test_decompose_lowering_operator():
    # |1><0| = X/2 - iY/2 (dense oracle pins the Y sign)
    m = np.array([[0, 0], [1, 0]], dtype=complex)
    s = pauli_decompose(m)
    coeffs = {p.label(): c for c, p in s.terms}
    assert set(coeffs) == {"X", "Y"}
    assert coeffs["X"] == pytest.approx(0.5)
    assert coeffs["Y"] == pytest.approx(-0.5j)
    assert np.allclose(s.to_matrix(), m)
    # raising operator flips the sign
    up = pauli_decompose(m.conj().T)
    assert {p.label(): c for c, p in up.terms}["Y"] == pytest.approx(0.5j)


def test_decompose_round_trip_random():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        strs = all_strings(n)
        idx = rng.choice(len(strs), size=min(6, len(strs)), replace=False)
        s = PauliSum(
            n,
            [
                (complex(rng.normal(), rng.normal()), strs[int(k)])
                for k in idx
            ],
        )
        m = s.to_matrix()
        back = pauli_decompose(m)
        assert np.allclose(back.to_matrix(), m, atol=1e-10)
        assert sums_close(back, s, tol=1e-10)


def test_sum_product_matches_dense():
    rng = np.random.default_rng(9)
    strs = all_strings(2)
    for _ in range(10):
        a = PauliSum(2, [(complex(rng.normal(), rng.normal()), strs[int(rng.integers(16))]) for _ in range(3)])
        b = PauliSum(2, [(complex(rng.normal(), rng.normal()), strs[int(rng.integers(16))]) for _ in range(3)])
        assert np.allclose((a * b).to_matrix(), a.to_matrix() @ b.to_matrix(), atol=1e-12)


def test_hermiticity_check():
    h = PauliSum(2, [(0.5, from_label("XX")), (-1.25, from_label("ZI"))])
    assert is_hermitian_sum(h)
    assert not is_hermitian_sum(PauliSum(2, [(1j, from_label("XX"))]))
    assert is_hermitian_sum(identity_sum(2, 3.0))


def test_cap_enforced():
    big = PauliString(15, 0, 0)
    with pytest.raises(ValueError):
        to_matrix(big)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("QCHANC_CAP", "2")
    with pytest.raises(ValueError):
        to_matrix(PauliString(3, 0, 0))
    monkeypatch.delenv("QCHANC_CAP")
    to_matrix(PauliString(3, 0, 0))
