import json
import math

import numpy as np
import pytest

from qchanc.ir import (
    BlockEncRef,
    ChannelExpr,
    LindbladSpec,
    TypecheckError,
    apply_channel,
    channel_distance,
    channel_from_json,
    channel_to_json,
    eval_kraus,
    lindblad_from_json,
    lindblad_to_json,
    matrix_from_json,
    matrix_to_json,
    trace_distance,
    typecheck,
    validate_density,
)
from qchanc.pauli import PauliString, PauliSum, from_label, sums_close


def random_density(rng, n):
    dim = 1 << n
    v = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = v @ v.conj().T
    return rho / np.trace(rho)


def amplitude_damping(p):
    # K0 = diag(1, sqrt(1-p)), K1 = sqrt(p)|0><1|
    r = math.sqrt(1.0 - p)
    k0 = PauliSum(1, [((1 + r) / 2, from_label("I")), ((1 - r) / 2, from_label("Z"))])
    k1 = PauliSum(1, [(math.sqrt(p) / 2, from_label("X")),
                      (1j * math.sqrt(p) / 2, from_label("Y"))])
    return ChannelExpr(1, [k0, k1])


def test_eval_kraus_pauli_combination():
    delta, gamma, nbar = 0.01, 1.0, 1.0
    s = math.sqrt(delta * gamma * (nbar + 1))
    k = PauliSum(1, [(0.5 * s, from_label("X")),
                     (-0.5j * s, from_label("Y"))])
    m = eval_kraus(k)
    expect = np.array([[0, 0], [s, 0]], dtype=complex)
    assert np.allclose(m, expect, atol=1e-15)
    assert abs(m[1, 0] - 0.1414213562373095) < 1e-15


def test_eval_kraus_blockenc():
    a = np.array([[0.3, 0.1j], [-0.1j, 0.2]])
    ref = BlockEncRef("amp", 1, 0.5, 1, a)
    k = PauliSum(1, [(2.0, ref)])
    assert np.allclose(eval_kraus(k), 2.0 * a)
    bare = BlockEncRef("amp", 1, 0.5, 1)
    with pytest.raises(TypecheckError, match="amp"):
        eval_kraus(PauliSum(1, [(1.0, bare)]))


def test_blockenc_validation():
    with pytest.raises(ValueError):
        BlockEncRef("h", 1, -1.0, 0)
    with pytest.raises(ValueError):
        BlockEncRef("h", 1, 1.0, -2)
    with pytest.raises(ValueError):
        BlockEncRef("h", 2, 1.0, 0, np.eye(2))


def test_typecheck_reports_offender():
    good = PauliSum(2, [(1.0, from_label("XZ"))])
    # a term's site count is checked once, where its sum is built
    with pytest.raises(TypecheckError, match="term 0"):
        PauliSum(2, [(1.0, from_label("X"))])
    with pytest.raises(TypecheckError, match="Kraus 1"):
        typecheck(ChannelExpr(2, [good, PauliSum(1, [])]))
    assert typecheck(ChannelExpr(2, [good])) == 2


def test_apply_channel_amplitude_damping():
    rng = np.random.default_rng(3)
    p = 0.3
    chan = amplitude_damping(p)
    k0 = np.array([[1, 0], [0, math.sqrt(1 - p)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(p)], [0, 0]], dtype=complex)
    for _ in range(20):
        rho = random_density(rng, 1)
        out = apply_channel(chan, [rho])[0]
        expect = k0 @ rho @ k0.conj().T + k1 @ rho @ k1.conj().T
        assert np.allclose(out, expect, atol=1e-12)
        assert abs(np.trace(out) - 1.0) < 1e-12


def test_density_validation():
    chan = amplitude_damping(0.1)
    with pytest.raises(ValueError, match="Hermitian"):
        apply_channel(chan, [np.array([[1, 1], [0, 0]], dtype=complex)])
    with pytest.raises(ValueError, match="trace"):
        apply_channel(chan, [np.eye(2, dtype=complex)])
    with pytest.raises(ValueError, match="positive"):
        apply_channel(chan, [np.diag([1.5, -0.5]).astype(complex)])
    with pytest.raises(ValueError, match="shape"):
        apply_channel(chan, [np.eye(4, dtype=complex) / 4])
    rho = validate_density(np.eye(2) / 2, 1)
    assert rho.dtype == complex


def test_trace_distance():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert abs(trace_distance(a, b) - 1.0) < 1e-15
    assert trace_distance(a, a) == 0.0
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert abs(trace_distance(a, plus) - math.sqrt(0.5)) < 1e-12


def test_channel_distance():
    ident = ChannelExpr(1, [PauliSum(1, [(1.0, from_label("I"))])])
    flip = ChannelExpr(1, [PauliSum(1, [(1.0, from_label("X"))])])
    assert channel_distance(ident, ident) < 1e-15
    assert abs(channel_distance(ident, flip) - 1.0) < 1e-12
    with pytest.raises(TypecheckError):
        channel_distance(ident, ChannelExpr(2, [PauliSum(2, [(1.0, from_label("II"))])]))


def test_channel_json_round_trip():
    a = np.array([[0.1, 0.2 - 0.3j], [0.2 + 0.3j, -0.4]])
    k0 = PauliSum(1, [(0.5 + 0.25j, PauliString(1, 1, 1, 1))])
    k1 = PauliSum(1, [(1.0, BlockEncRef("ext", 1, 1.5, 2, a))])
    c = ChannelExpr(1, [k0, k1])
    blob = json.dumps(channel_to_json(c))
    back = channel_from_json(json.loads(blob))
    assert back.n == 1 and len(back.kraus) == 2
    c0, p0 = back.kraus[0].terms[0]
    assert c0 == 0.5 + 0.25j
    assert p0 == PauliString(1, 1, 1, 1)
    c1, p1 = back.kraus[1].terms[0]
    assert p1.handle == "ext" and p1.alpha == 1.5 and p1.anc == 2
    assert np.array_equal(p1.matrix, a.astype(complex))


def test_matrix_json_exact():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)


def test_lindblad_json_round_trip_and_dense_jump():
    ham = PauliSum(1, [(-1.0, from_label("X"))])
    jump = PauliSum(1, [(0.5, from_label("X")), (-0.5j, from_label("Y"))])
    spec = LindbladSpec(1, ham, [jump])
    back = lindblad_from_json(json.loads(json.dumps(lindblad_to_json(spec))))
    assert sums_close(back.hamiltonian, ham, 1e-15)
    assert sums_close(back.jumps[0], jump, 1e-15)

    dense = {"n": 1, "H": [], "jumps": [{"matrix": matrix_to_json(
        np.array([[0, 0], [1, 0]], dtype=complex))}]}
    got = lindblad_from_json(dense)
    assert sums_close(got.jumps[0], jump, 1e-12)
    assert np.allclose(eval_kraus(got.jumps[0]), [[0, 0], [1, 0]], atol=1e-15)


def test_lindblad_validation():
    with pytest.raises(TypecheckError, match="Hermitian"):
        LindbladSpec(1, PauliSum(1, [(1j, from_label("Z"))]))
    with pytest.raises(TypecheckError, match="jump 0"):
        LindbladSpec(1, PauliSum(1, [(1.0, from_label("Z"))]),
                     [PauliSum(2, [(1.0, from_label("XX"))])])


def test_lindblad_rejects_blockenc():
    # H and the jumps take Pauli strings only; the opaque term is named
    # before the Hermitian check could reach it
    ref = BlockEncRef("h", 1, 1.0, 0, np.eye(2))
    z = PauliSum(1, [(1.0, from_label("Z"))])
    with pytest.raises(TypecheckError, match="Hamiltonian term 1 is not a Pauli"):
        LindbladSpec(1, PauliSum(1, [(1.0, from_label("Z")), (1.0, ref)]))
    with pytest.raises(TypecheckError, match="jump 1 term 0 is not a Pauli"):
        LindbladSpec(1, z, [z, PauliSum(1, [(1.0, ref)])])


def test_probe_states_is_deterministic():
    i1 = ChannelExpr(2, [PauliSum(2, [(1.0, from_label("II"))])])
    d1 = channel_distance(i1, i1, samples=8, seed=3)
    d2 = channel_distance(i1, i1, samples=8, seed=3)
    assert d1 == d2 == 0.0
