import json
import math
import random
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from qchanc.ir import (
    BlockEncRef,
    ChannelExpr,
    LindbladSpec,
    TypecheckError,
    _c2pair,
    _pauli_terms_in_bulk,
    apply_channel,
    channel_distance,
    channel_from_json,
    channel_to_json,
    eval_kraus,
    kraus_action,
    lindblad_from_json,
    lindblad_to_json,
    matrix_from_json,
    matrix_to_json,
    probe_states,
    term_from_json,
    term_to_json,
    trace_distance,
    typecheck,
    validate_density,
)
from qchanc import ir
from qchanc.bench import gen_tfim
from qchanc.pauli import PauliString, PauliSum, from_label, pauli_decompose, sums_close

from helpers import apply_channel_loop, per_term_sum, probe_states_list


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


def test_channel_checks_itself_when_built():
    good = PauliSum(2, [(1.0, from_label("XZ"))])
    with pytest.raises(TypecheckError, match="^Kraus 1: size 1 != channel size 2$"):
        ChannelExpr(2, [good, PauliSum(1, [])])
    # one handle, two matrices: across operators as within one
    a, b = (BlockEncRef("u", 1, 1.0, 1, m) for m in (np.eye(2), np.diag([1.0, -1.0])))
    for kraus in ([PauliSum(1, [(1, a)]), PauliSum(1, [(1, b)])],
                  [PauliSum(1, [(1, a), (1, b)])]):
        with pytest.raises(TypecheckError, match="'u' is given two different matrices"):
            ChannelExpr(1, kraus)


def test_channel_and_spec_are_frozen_with_tuples():
    x = PauliSum(1, [(1.0, from_label("X"))])
    chan = ChannelExpr(1, [x])
    spec = LindbladSpec(1, PauliSum(1, []), [x])
    assert chan.kraus == (x,) and spec.jumps == (x,)
    assert LindbladSpec(1, PauliSum(1, [])).jumps == ()
    for obj, fields in ((chan, ("n", "kraus")), (spec, ("n", "hamiltonian", "jumps"))):
        for field in fields:
            with pytest.raises(FrozenInstanceError):
                setattr(obj, field, getattr(obj, field))


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


def random_channel(rng, n, kraus, opaque=False):
    """Random Pauli-sum Kraus operators, scaled so that outputs stay O(1);
    with `opaque`, the last one is a block encoding with a matrix."""
    sums = []
    for _ in range(kraus):
        terms = [(complex(*rng.normal(size=2)) / 4,
                  PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)),
                              int(rng.integers(4))))
                 for _ in range(3)]
        sums.append(PauliSum(n, terms))
    if opaque:
        m = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
        m /= np.linalg.norm(m, 2)
        sums[-1] = PauliSum(n, [(0.5, BlockEncRef("ext", n, 1.0, 1, m))])
    return ChannelExpr(n, sums)


@pytest.mark.parametrize("n, kraus, opaque", [
    (1, 1, False), (1, 3, True), (2, 4, False), (2, 2, True), (3, 5, False),
    (2, 0, False),
], ids=["n1", "n1-opaque", "n2", "n2-opaque", "n3", "empty"])
def test_apply_channel_matches_loop(n, kraus, opaque):
    rng = np.random.default_rng(10 * n + kraus)
    chan = random_channel(rng, n, kraus, opaque)
    states = probe_states(n, 5, seed=n)
    got = apply_channel(chan, states)
    assert got.shape == states.shape
    for out, want in zip(got, apply_channel_loop(chan, states)):
        assert np.max(np.abs(out - want)) <= 1e-14
    if not kraus:
        assert not got.any()
    # a lone matrix is one state, not a stack of rows
    assert np.array_equal(apply_channel(chan, states[-1]), got[-1])


def test_kraus_action_on_any_matrices():
    # the kernel itself takes any Kraus stack and any stack of matrices
    rng = np.random.default_rng(4)
    ks = (rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))) / 8
    rhos = (rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))) / 4
    got = kraus_action(ks, rhos)
    for out, rho in zip(got, rhos):
        want = sum(k @ rho @ k.conj().T for k in ks)
        assert np.max(np.abs(out - want)) <= 1e-14
    assert kraus_action(ks, rhos[:0]).shape == (0, 4, 4)
    assert np.array_equal(kraus_action(ks, rhos[1]), got[1])


@pytest.mark.parametrize("n", range(1, 7))
def test_probe_states_bitwise_list_form(n):
    got = probe_states(n, 3, seed=n)
    want = probe_states_list(n, 3, seed=n)
    assert got.shape == (len(want), 1 << n, 1 << n) and got.dtype == complex
    assert got.tobytes() == np.array(want).tobytes()


# the other checks are comparisons, which a NaN entry passes
NON_FINITE = [
    pytest.param(np.array([[np.nan, 0], [0, 1]]), id="nan"),
    pytest.param(np.array([[0.5, np.inf], [np.inf, 0.5]]), id="inf"),
    pytest.param(np.array([[1, 0], [0, -np.inf]]), id="-inf"),
    pytest.param(np.array([[0.5, 1j * np.nan], [0, 0.5]]), id="nan-imag"),
]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_validate_density_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="density matrix has non-finite entries"):
        validate_density(bad, 1)


@pytest.mark.parametrize("last, message", [
    pytest.param(np.array([[1, 1], [0, 0]]), "Hermitian", id="hermitian"),
    pytest.param(np.eye(2), "trace", id="trace"),
    pytest.param(np.diag([1.5, -0.5]), "positive", id="positive"),
] + [pytest.param(*p.values, "non-finite", id=p.id) for p in NON_FINITE])
def test_validate_density_checks_every_state(last, message):
    stack = probe_states(1, 3, seed=2)
    assert validate_density(stack, 1) is not None
    stack[-1] = last
    with pytest.raises(ValueError, match=message):
        validate_density(stack, 1)
    with pytest.raises(ValueError, match=message):
        apply_channel(amplitude_damping(0.1), stack)


@pytest.mark.parametrize("shape", [(3, 2, 4), (3, 4, 4), (4, 4), (8,), ()])
def test_validate_density_never_reshapes(shape):
    # an n = 1 stack is (k, 2, 2): 16 entries are not four 2 x 2 states
    with pytest.raises(ValueError, match="shape"):
        validate_density(np.zeros(shape), 1)


def test_trace_distance():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert abs(trace_distance(a, b) - 1.0) < 1e-15
    assert trace_distance(a, a) == 0.0
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert abs(trace_distance(a, plus) - math.sqrt(0.5)) < 1e-12


@pytest.mark.parametrize("n, shape", [(1, ()), (1, (3,)), (2, (5,)), (3, (2, 3)), (4, (6,))])
def test_trace_distance_matches_batched_formula(n, shape):
    # pair by pair, bit for bit what one eigvalsh of the stacked a - b gives
    rng = np.random.default_rng(5)
    a, b = (np.array([random_density(rng, n) for _ in range(math.prod(shape))])
            .reshape(*shape, 1 << n, 1 << n) for _ in range(2))
    got = trace_distance(a, b)
    want = 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum(axis=-1)
    assert np.shape(got) == shape and np.array_equal(got, want)


@pytest.mark.parametrize("entries, calls", [(None, 1), (3 * 16, 3)])
def test_trace_distance_chunks_pairs(monkeypatch, entries, calls):
    # a small stack is one eigvalsh call; a bounded chunk holds whole pairs
    if entries is not None:
        monkeypatch.setattr(ir, "_DISTANCE_ENTRIES", entries)
    seen = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m: seen.append(m.shape) or eigvalsh(m))
    rng = np.random.default_rng(6)
    a, b = (np.array([random_density(rng, 2) for _ in range(7)]) for _ in range(2))
    got = trace_distance(a, b)
    assert len(seen) == calls and sum(s[0] for s in seen) == 7
    assert np.array_equal(got, 0.5 * np.abs(eigvalsh(a - b)).sum(axis=-1))


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


def test_matrix_json_matches_per_entry_pairs():
    m = np.array([[-0.0, 1 + 2j], [np.complex64(0.1 - 0.3j), complex(5e-324, -0.0)]])
    want = [[_c2pair(x) for x in row] for row in m]
    got = matrix_to_json(m)
    assert json.dumps(got) == json.dumps(want)
    assert all(type(v) is float for row in got for pair in row for v in pair)


def test_bulk_writer_matches_per_term_writer():
    rng = np.random.default_rng(9)
    bits = random.Random(9).getrandbits
    for n in (1, 3, 63, 64, 65):  # masks fill uint64 at 64; 65 is per term
        full = (1 << n) - 1
        terms = [(np.complex128(complex(*rng.normal(size=2))),
                  PauliString(n, bits(n), bits(n), e)) for e in range(4)]
        terms += [(complex(-0.0, 0.0), PauliString(n, full, full, 2)),
                  (1, PauliString(n, 0, full))]
        s = PauliSum(n, terms)
        want = [term_to_json(c, p) for c, p in s.terms]
        got = channel_to_json(ChannelExpr(n, [s]))["kraus"]
        assert json.dumps(got) == json.dumps([want])
        back = channel_from_json(json.loads(json.dumps({"n": n, "kraus": [want]})))
        assert [p for _, p in back.kraus[0].terms] == [p for _, p in terms]
    ref = BlockEncRef("h", 1, 1.0, 0)
    mixed = PauliSum(1, [(0.5j, from_label("Y")), (2.0, ref)])
    assert channel_to_json(ChannelExpr(1, [mixed]))["kraus"] == [
        [term_to_json(c, p) for c, p in mixed.terms]]
    assert channel_to_json(ChannelExpr(1, [PauliSum(1, [])]))["kraus"] == [[]]


def test_document_writer_splits_one_label_pass():
    # a channel's operators, or a spec's H and jumps, in one pass; an opaque
    # primitive anywhere sends the whole document term by term, same bytes
    x, zy = from_label("XI"), from_label("ZY", 3)
    ops = [PauliSum(2, [(0.5, x), (-0.25j, zy)]), PauliSum(2, []),
           PauliSum(2, [(1.0, zy)])]
    want = [[term_to_json(c, p) for c, p in k.terms] for k in ops]
    assert channel_to_json(ChannelExpr(2, ops)) == {"n": 2, "kraus": want}
    ref = BlockEncRef("h", 2, 1.0, 0)
    mixed = ops + [PauliSum(2, [(1.0, ref)])]
    assert channel_to_json(ChannelExpr(2, mixed))["kraus"] == want + [
        [term_to_json(1.0, ref)]]
    spec = LindbladSpec(2, PauliSum(2, [(0.5, from_label("XX"))]), ops[1:])
    assert lindblad_to_json(spec) == {
        "n": 2, "H": [term_to_json(0.5, from_label("XX"))], "jumps": want[1:]}


REGULAR_TERM = {"coeff": [0.5, -1], "pauli": "XZ", "phase_exp": 3}


@pytest.mark.parametrize("change, bulk", [
    ({}, True),
    ({"phase_exp": None}, True),  # absent: phase 0
    ({"note": 1}, True),  # extra keys are ignored, as term_from_json does
    ({"coeff": [10 ** 400, 0]}, False),
    ({"coeff": [True, 0]}, False),
    ({"coeff": ["1", 0]}, False),
    ({"coeff": [float("nan"), 0]}, False),
    ({"coeff": [1.0]}, False),
    ({"coeff": [1.0, 0, 0]}, False),
    ({"coeff": (1.0, 0)}, False),
    ({"coeff": None}, False),
    ({"pauli": "XA"}, False),
    ({"pauli": "X\u00e9"}, False),
    ({"pauli": "X"}, False),
    ({"pauli": "XYZ"}, False),
    ({"phase_exp": True}, False),
    ({"phase_exp": 1.0}, False),
], ids=["regular", "no-phase", "extra-key", "huge-int", "bool-part",
        "str-part", "nan-part", "short-pair", "long-pair", "tuple-pair",
        "no-coeff", "bad-letter", "non-ascii", "short-label", "long-label",
        "bool-phase", "float-phase"])
def test_bulk_reader_takes_regular_lists_only(change, bulk):
    odd = {**REGULAR_TERM, **change}
    odd = {k: v for k, v in odd.items() if v is not None}
    terms = [dict(REGULAR_TERM), odd]
    assert (_pauli_terms_in_bulk(terms, 2) is not None) == bulk
    doc = {"n": 2, "kraus": [terms]}
    try:
        want = per_term_sum(2, terms, "Kraus operator 0")
    except (ValueError, LookupError, OverflowError) as exc:
        with pytest.raises(type(exc)) as got:
            channel_from_json(doc)
        assert str(got.value) == str(exc)
    else:
        assert channel_from_json(doc) == ChannelExpr(2, [want])


@pytest.mark.parametrize("doc, message", [
    ({"n": 1, "kraus": [[{"coeff": [1, 0], "pauli": "X"}], [{"pauli": "X"}]]},
     "Kraus operator 1 term 0: term has no 'coeff'"),
    ({"n": 1, "H": [], "jumps": [[{"coeff": [1, 0], "pauli": "X"}, {"coeff": [1, 0]}]]},
     "jump 0 term 1: term has no 'pauli' or 'blockenc'"),
    ({"n": 1, "H": [{"pauli": "Z"}]}, "H term 0: term has no 'coeff'"),
    ({"n": 1, "kraus": [[{"coeff": [1, 0], "blockenc": {
        "handle": "h", "n": 1, "anc": 0}}]]},
     "Kraus operator 0 term 0: blockenc has no 'alpha'"),
    ({"n": 1, "kraus": [[{"coeff": [1, 0], "pauli": "X", "phase_exp": 0.5}]]},
     "Kraus operator 0 term 0: phase_exp must be an integer, got 0.5"),
    # a record that is no object names itself, with no second name
    ({"n": 1, "kraus": [[{"coeff": [1, 0], "pauli": "X"}, 5]]},
     "Kraus operator 0 term 1 must be an object, got int"),
], ids=["kraus", "jump", "hamiltonian", "blockenc", "phase-exp", "not-an-object"])
def test_term_errors_name_their_position(doc, message):
    read = channel_from_json if "kraus" in doc else lindblad_from_json
    with pytest.raises(ValueError) as got:
        read(doc)
    assert str(got.value) == message
    # a bare term read has no position to give
    with pytest.raises(ValueError, match="^term has no 'coeff'$"):
        term_from_json({"pauli": "X"})


def test_bulk_reader_shares_equal_strings():
    # phase_exp 1 and 5 are one i-power, so one string
    terms = [{"coeff": [1, 0], "pauli": "XZ", "phase_exp": 1},
             {"coeff": [0.5, 0], "pauli": "XZ", "phase_exp": 5},
             {"coeff": [0.25, 0], "pauli": "XZ"},
             {"coeff": [0, 1], "pauli": "YI", "phase_exp": 2}]
    pairs = _pauli_terms_in_bulk(terms, 2)
    assert pairs == [term_from_json(t) for t in terms]
    assert pairs[1][1] is pairs[0][1] and pairs[2][1] is not pairs[0][1]
    # a channel's operators are read in one pass and share strings too
    doc = {"n": 2, "kraus": [terms[2:], [], terms[:3]]}
    got = channel_from_json(doc)
    assert got == ChannelExpr(2, [PauliSum(2, [term_from_json(t) for t in k])
                                  for k in doc["kraus"]])
    assert got.kraus[2].terms[2][1] is got.kraus[0].terms[0][1]
    # one irregular operator sends every operator through its own read
    doc["kraus"].append([{"coeff": [1, 0], "blockenc": {
        "handle": "h", "n": 2, "alpha": 1.0, "anc": 0}}])
    mixed = channel_from_json(doc)
    assert mixed.kraus[:3] == got.kraus
    assert isinstance(mixed.kraus[3].terms[0][1], BlockEncRef)


def test_bulk_reader_keeps_signed_zeros_and_phases():
    terms = [{"coeff": [-0.0, -0.0], "pauli": "Y", "phase_exp": 7},
             {"coeff": [0, -0.0], "pauli": "I"}]
    got = channel_from_json({"n": 1, "kraus": [terms]}).kraus[0]
    assert [(repr(c), p) for c, p in got.terms] == [
        ("(-0-0j)", PauliString(1, 1, 1, 3)), ("-0j", PauliString(1, 0, 0))]
    assert [type(c) for c, _ in got.terms] == [complex, complex]
    for bad_n in (0, 65):
        assert _pauli_terms_in_bulk(terms, bad_n) is None


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


def _dense(m):
    return {"matrix": matrix_to_json(np.array(m, dtype=complex))}


X_TERM = {"coeff": [0.5, 0], "pauli": "X"}
Z_TERM = {"coeff": [0, 0.25], "pauli": "Z", "phase_exp": 2}
H_TERMS = [{"coeff": [-1, 0], "pauli": "X"}, {"coeff": [0.5, 0], "pauli": "Z"}]


def _per_term_spec(d):
    """The spec a document reads as, list by list and term by term."""
    def one(j, name):
        if isinstance(j, dict):
            return pauli_decompose(matrix_from_json(j["matrix"]), d["n"])
        return per_term_sum(d["n"], j, name)
    return LindbladSpec(d["n"], one(d["H"], "H"),
                        [one(j, f"jump {k}") for k, j in enumerate(d["jumps"])])


def test_lindblad_dense_jump_keeps_its_place():
    doc = {"n": 1, "H": H_TERMS,
           "jumps": [[X_TERM], _dense([[0, 0], [1, 0]]), [Z_TERM]]}
    got = lindblad_from_json(doc)
    assert got == _per_term_spec(doc)
    assert [len(j.terms) for j in got.jumps] == [1, 2, 1]
    assert got.jumps[0] == PauliSum(1, [(0.5, from_label("X"))])
    assert np.allclose(eval_kraus(got.jumps[1]), [[0, 0], [1, 0]], atol=1e-15)
    assert got.jumps[2] == PauliSum(1, [(0.25j, from_label("Z", 2))])


@pytest.mark.parametrize("odd, message", [
    ({"coeff": [1, 0], "pauli": "X", "phase_exp": 1.0},
     "phase_exp must be an integer, got 1.0"),
    ({"coeff": [1, 0], "pauli": "x"}, "bad Pauli letter 'x'"),
    ({"coeff": [True, 0], "pauli": "X"}, "real part must be a number, got True"),
    ({"coeff": [1, 0], "blockenc": {"handle": "h", "n": 1, "alpha": 1.0, "anc": 0}},
     "jump 2 term 1 is not a Pauli string"),
    ({"coeff": (0.5, -0.5), "pauli": "Y"},
     "jump 2 term 1: complex numbers are [re, im] pairs, got (0.5, -0.5)"),
], ids=["float-phase", "lower-case", "bool-part", "blockenc", "tuple-coeff"])
def test_lindblad_irregular_jump_reads_as_per_term(odd, message):
    # regular jumps and a dense one around a jump the bulk read declines
    doc = {"n": 1, "H": H_TERMS,
           "jumps": [[X_TERM], _dense([[0, 1], [0, 0]]), [Z_TERM, odd], [X_TERM]]}
    assert _pauli_terms_in_bulk([odd], 1) is None
    try:
        want = _per_term_spec(doc)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            lindblad_from_json(doc)
        assert str(got.value) == str(exc) and message in str(exc)
    else:
        assert message is None and lindblad_from_json(doc) == want


def test_lindblad_reader_makes_one_bulk_call(monkeypatch):
    import qchanc.ir as ir

    calls = []
    bulk = ir._pauli_terms_in_bulk
    monkeypatch.setattr(ir, "_pauli_terms_in_bulk",
                        lambda terms, n: calls.append(len(terms)) or bulk(terms, n))
    doc = lindblad_to_json(gen_tfim(4, 1.0))
    doc["jumps"].insert(2, _dense(np.eye(16)))
    spec = lindblad_from_json(doc)
    assert len(spec.jumps) == 5
    # the H terms and every list jump's terms, in one call
    assert calls == [len(doc["H"]) + sum(len(j) for j in doc["jumps"] if type(j) is list)]
    calls.clear()
    channel_from_json({"n": 1, "kraus": [[X_TERM], [Z_TERM, X_TERM]]})
    assert calls == [3]


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
