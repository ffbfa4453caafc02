import math

import numpy as np
import pytest

from qchanc import rewrite
from qchanc.ir import (
    BlockEncRef,
    ChannelExpr,
    TypecheckError,
    channel_distance,
    eval_kraus,
)
from qchanc.bench import gen_hypercube_like, gen_tfim
from qchanc.lindblad import QuadratureSpec, higher_order
from qchanc.pauli import PauliString, PauliSum, from_label, to_matrix
from qchanc.rewrite import (
    RANK_RTOL,
    InvalidRuleArgs,
    RuleNotApplicable,
    _merge_proportional,
    apply_rule,
    canonical_kraus,
    minimize_kraus_rank,
    proportionality,
    simplify,
    trace_to_json,
)


def pu(label, phase_exp=0):
    return from_label(label, phase_exp)


def random_channel(rng, n=None, m=None, terms=None):
    n = n if n is not None else int(rng.integers(1, 4))
    m = m if m is not None else int(rng.integers(1, 5))
    kraus = []
    for _ in range(m):
        t = terms if terms is not None else int(rng.integers(1, 5))
        ts = []
        for _ in range(t):
            x = int(rng.integers(0, 1 << n))
            z = int(rng.integers(0, 1 << n))
            c = complex(rng.normal(), rng.normal())
            ts.append((c, PauliString(n, x, z)))
        kraus.append(PauliSum(n, ts))
    return ChannelExpr(n, kraus)


def random_unitary(rng, m):
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return np.linalg.qr(a)[0]


def gram_rank_oracle(c, rtol=1e-9):
    mats = [eval_kraus(k) for k in c.kraus]
    g = np.array([[np.trace(a.conj().T @ b) for b in mats] for a in mats])
    lam = np.linalg.eigvalsh(g)
    return int(np.sum(lam > rtol * max(lam.max(), 0.0)))


def dephasing():
    k0 = PauliSum(1, [(0.5, pu("I")), (0.5, pu("Z"))])
    k1 = PauliSum(1, [(0.5, pu("I")), (-0.5, pu("Z"))])
    return ChannelExpr(1, [k0, k1])


def test_ps1_merges_and_folds_phases():
    k = PauliSum(1, [(1.0, pu("Y", 1)), (2.0, pu("Y"))])
    c = apply_rule(ChannelExpr(1, [k]), "PS1", {"kraus": 0})
    (coeff, prim), = c.kraus[0].terms
    assert coeff == 2 + 1j
    assert prim == PauliString(1, 1, 1, 0)


def test_ps2_drops_zero_terms():
    k = PauliSum(1, [(0.0, pu("X")), (1.0, pu("Z"))])
    c = apply_rule(ChannelExpr(1, [k]), "PS2", {"kraus": 0})
    assert len(c.kraus[0].terms) == 1
    assert c.kraus[0].terms[0][0] == 1.0


def test_rule_tol_that_changes_the_channel_rejected():
    c = ChannelExpr(1, [PauliSum(1, [(0.6, pu("X"))]),
                        PauliSum(1, [(0.8, pu("Z"))])])
    for rule in ("PS2", "K1"):
        with pytest.raises(InvalidRuleArgs, match="tol"):
            apply_rule(c, rule, {"kraus": 0, "tol": 0.9})
    assert apply_rule(c, "PS2", {"kraus": 0, "tol": 1e-10}).kraus[0].terms == [
        (0.6, pu("X"))]


def test_k1_removes_zero_kraus_only():
    zero = PauliSum(1, [(1.0, pu("X")), (-1.0, pu("X"))])
    keep = PauliSum(1, [(1.0, pu("I"))])
    c = ChannelExpr(1, [zero, keep])
    out = apply_rule(c, "K1", {"kraus": 0})
    assert len(out.kraus) == 1
    with pytest.raises(RuleNotApplicable):
        apply_rule(c, "K1", {"kraus": 1})


def test_k2_strips_global_phase():
    rng = np.random.default_rng(0)
    base = random_channel(rng, n=2, m=2)
    theta = 0.81
    shifted = ChannelExpr(2, list(base.kraus))
    shifted.kraus[0] = PauliSum(2, [(c * np.exp(1j * theta), p)
                                    for c, p in shifted.kraus[0].terms])
    out = apply_rule(shifted, "K2", {"kraus": 0, "theta": theta})
    assert channel_distance(out, base) < 1e-12
    for (ca, _), (cb, _) in zip(out.kraus[0].terms, base.kraus[0].terms):
        assert abs(ca - cb) < 1e-14


def test_c1_permutation():
    rng = np.random.default_rng(1)
    c = random_channel(rng, n=1, m=3)
    out = apply_rule(c, "C1", {"perm": [2, 0, 1]})
    assert out.kraus[0] is c.kraus[2]
    assert channel_distance(out, c) < 1e-12
    with pytest.raises(InvalidRuleArgs):
        apply_rule(c, "C1", {"perm": [0, 0, 1]})


def test_c2_preserves_semantics():
    rng = np.random.default_rng(2)
    for _ in range(10):
        c = random_channel(rng)
        u = random_unitary(rng, len(c.kraus))
        out = apply_rule(c, "C2", {"unitary": u})
        assert channel_distance(out, c) < 1e-9


def test_c2_rejects_non_unitary():
    rng = np.random.default_rng(3)
    c = random_channel(rng, n=1, m=2)
    for _ in range(10):
        bad = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        with pytest.raises(InvalidRuleArgs):
            apply_rule(c, "C2", {"unitary": bad})
    with pytest.raises(InvalidRuleArgs):
        apply_rule(c, "C2", {"unitary": 1.001 * random_unitary(rng, 2)})
    with pytest.raises(InvalidRuleArgs):
        apply_rule(c, "C2", {"unitary": np.eye(3)})


def test_c2_takes_json_pairs():
    # trace_to_json's [re, im] pairs give the same channel as the matrix
    rng = np.random.default_rng(4)
    c = random_channel(rng, n=1, m=3)
    u = random_unitary(rng, 3)
    (pairs,) = trace_to_json([{"rule": "C2", "args": {"unitary": u},
                               "kraus_count_after": 3}])
    out = apply_rule(c, "C2", pairs["args"])
    want = apply_rule(c, "C2", {"unitary": u})
    for k, w in zip(out.kraus, want.kraus):
        assert np.max(np.abs(eval_kraus(k) - eval_kraus(w))) == 0.0
    bad_pairs = ([[[1, 0, 0], [0, 0]], [[0, 0], [1, 0]]],
                 [[[1, 0], [0, 0]], [[0, 0], [float("nan"), 0]]],
                 [[[1, 0], [0, 0]], [[0, 0], ["1", 0]]])
    c2 = random_channel(rng, n=1, m=2)
    for bad in bad_pairs:
        with pytest.raises(InvalidRuleArgs, match="bad argument unitary"):
            apply_rule(c2, "C2", {"unitary": bad})


def test_c2p_dephasing():
    s = 1 / math.sqrt(2)
    out = apply_rule(dephasing(), "C2p", {"i": 0, "j": 1, "a": s, "b": s})
    (c0, p0), = out.kraus[0].terms
    (c1, p1), = out.kraus[1].terms
    assert abs(c0 - s) < 1e-15 and p0.label() == "I"
    assert abs(c1 + s) < 1e-15 and p1.label() == "Z"
    fixed = apply_rule(out, "K2", {"kraus": 1, "theta": math.pi})
    assert abs(fixed.kraus[1].terms[0][0] - s) < 1e-12
    assert channel_distance(out, dephasing()) < 1e-12
    with pytest.raises(InvalidRuleArgs):
        apply_rule(dephasing(), "C2p", {"i": 0, "j": 1, "a": 1.0, "b": 0.1})


def test_c3p_merges_proportional():
    k = PauliSum(1, [(0.25, pu("X")), (0.5j, pu("Z"))])
    c = ChannelExpr(1, [PauliSum(1, [(0.6 * a, p) for a, p in k.terms]),
                        PauliSum(1, [(0.8 * a, p) for a, p in k.terms])])
    out = apply_rule(c, "C3p", {"i": 0, "j": 1})
    assert len(out.kraus) == 1
    for (ca, _), (cb, _) in zip(out.kraus[0].terms, k.terms):
        assert abs(ca - cb) < 1e-12
    bad = ChannelExpr(1, [PauliSum(1, [(1.0, pu("X"))]),
                          PauliSum(1, [(1.0, pu("Z"))])])
    with pytest.raises(RuleNotApplicable):
        apply_rule(bad, "C3p", {"i": 0, "j": 1})


def test_proportionality_detection():
    a = PauliSum(2, [(0.3, pu("XZ")), (0.1j, pu("YI"))])
    b = PauliSum(2, [(0.3j, pu("XZ")), (-0.1, pu("YI"))])
    assert abs(proportionality(a, b) - 1j) < 1e-12
    c = PauliSum(2, [(0.3, pu("XZ"))])
    assert proportionality(a, c) is None


def test_minimize_three_identical():
    k = PauliSum(1, [(0.3, pu("X"))])
    c = ChannelExpr(1, [k, k, k])
    out, trace = minimize_kraus_rank(c)
    assert len(out.kraus) == 1
    (coeff, prim), = out.kraus[0].terms
    assert abs(coeff - 0.3 * math.sqrt(3)) < 1e-12
    assert prim.label() == "X"
    assert trace[0]["rule"] == "C3"


def test_minimize_dephasing_exact():
    out, trace = minimize_kraus_rank(dephasing())
    assert len(out.kraus) == 2
    (c0, p0), = out.kraus[0].terms
    (c1, p1), = out.kraus[1].terms
    assert p0.label() == "I" and p1.label() == "Z"
    s = math.sqrt(0.5)
    assert abs(c0 - s) < 1e-15 and abs(c1 - s) < 1e-15
    rules = [t["rule"] for t in trace]
    assert rules == ["C2"]


def test_minimize_matches_gram_oracle():
    rng = np.random.default_rng(4)
    base = random_channel(rng, n=2, m=3)
    kraus = list(base.kraus)
    for _ in range(3):
        w = rng.normal(size=3) + 1j * rng.normal(size=3)
        terms = []
        for c, k in zip(w, base.kraus):
            terms.extend((c * a, p) for a, p in k.terms)
        kraus.append(PauliSum(2, terms))
    padded = ChannelExpr(2, kraus)
    out, trace = minimize_kraus_rank(padded)
    r = gram_rank_oracle(padded)
    assert len(out.kraus) == r == 3
    assert channel_distance(out, padded) < 1e-9
    assert [t["rule"] for t in trace] == ["C2", "K1", "K1", "K1"]
    assert trace[-1]["kraus_count_after"] == 3


def test_minimize_is_fixed_point():
    rng = np.random.default_rng(5)
    for _ in range(10):
        c = random_channel(rng)
        once, _ = minimize_kraus_rank(c)
        twice, _ = minimize_kraus_rank(once)
        assert len(once.kraus) == len(twice.kraus)
        for ka, kb in zip(once.kraus, twice.kraus):
            assert len(ka.terms) == len(kb.terms)
            for (ca, pa), (cb, pb) in zip(ka.terms, kb.terms):
                assert pa == pb
                assert abs(ca - cb) < 1e-14


def test_minimize_lists_strings_by_z_then_x_mask():
    chan = higher_order(gen_tfim(2, 1.0), 0.01, QuadratureSpec(2, 2, 2))
    out, _ = minimize_kraus_rank(chan)
    assert max(len(k.terms) for k in out.kraus) > 1
    for k in out.kraus:
        masks = [(p.z_mask, p.x_mask) for _, p in k.terms]
        assert masks == sorted(set(masks))


def test_minimize_trace_replays():
    rng = np.random.default_rng(6)
    c = random_channel(rng, n=2, m=2)
    terms = []
    for a, p in c.kraus[0].terms:
        terms.append((0.7 * a, p))
    padded = ChannelExpr(2, list(c.kraus) + [PauliSum(2, terms)])
    # [A, B, 2A, 3B]: the second group's positions shift after the first merge
    a, b = c.kraus
    interleaved = ChannelExpr(2, [a, b, a.scaled(2.0), b.scaled(3.0)])
    for chan in (padded, interleaved):
        out, trace = minimize_kraus_rank(chan)
        replay = ChannelExpr(chan.n, [canonical_kraus(k) for k in chan.kraus])
        for entry in trace:
            replay = apply_rule(replay, entry["rule"], entry["args"])
            assert len(replay.kraus) == entry["kraus_count_after"]
        assert len(replay.kraus) == len(out.kraus)
        assert channel_distance(replay, out) < 1e-9
        blob = trace_to_json(trace)
        assert all(set(e) == {"rule", "args", "kraus_count_after"} for e in blob)
    merges = [e["args"]["indices"] for e in trace if e["rule"] == "C3"]
    assert merges == [[0, 2], [1, 2]]


def test_minimize_blockenc_dense_route():
    a = np.array([[0.2, 0.1], [0.1, -0.3]], dtype=complex)
    ka = PauliSum(1, [(1.0, BlockEncRef("ext", 1, 1.0, 1, a))])
    kx = PauliSum(1, [(0.5, pu("X"))])
    mix = PauliSum(1, [(0.6, BlockEncRef("ext", 1, 1.0, 1, a)), (0.4, pu("X"))])
    c = ChannelExpr(1, [ka, kx, mix])
    out, _ = minimize_kraus_rank(c)
    assert len(out.kraus) == gram_rank_oracle(c) == 2
    rho = np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex)
    before = sum(eval_kraus(k) @ rho @ eval_kraus(k).conj().T for k in c.kraus)
    after = sum(eval_kraus(k) @ rho @ eval_kraus(k).conj().T for k in out.kraus)
    assert np.allclose(before, after, atol=1e-10)

    missing = ChannelExpr(1, [PauliSum(1, [(1.0, BlockEncRef("ext", 1, 1.0, 1))])])
    with pytest.raises(TypecheckError):
        minimize_kraus_rank(missing)


def _refs_u(*matrices):
    """References that agree on handle, n, alpha and anc: equal as terms."""
    return [BlockEncRef("u", 1, 1.0, 1, m) for m in matrices]


def test_equal_refs_with_different_matrices_rejected():
    half_i, half_x = 0.5 * np.eye(2), 0.5 * to_matrix(pu("X"))
    a, b = _refs_u(half_i, half_x)
    with pytest.raises(TypecheckError, match="'u'"):
        simplify(ChannelExpr(1, [PauliSum(1, [(1, a), (1, b)])]))
    # a reference without a matrix does not match one with a matrix
    a, bare = _refs_u(half_i, None)
    with pytest.raises(TypecheckError, match="'u'"):
        simplify(ChannelExpr(1, [PauliSum(1, [(1, a), (1, bare)])]))
    # the same matrix twice merges as before
    a, b = _refs_u(half_i, half_i.copy())
    out = simplify(ChannelExpr(1, [PauliSum(1, [(1, a), (1, b)])]))
    assert np.allclose(eval_kraus(out.kraus[0]), np.eye(2))


def test_equal_refs_across_kraus_operators_rejected():
    # minimize_kraus_rank keys terms on the reference in one list for all
    # operators, so the two matrices would be read as one
    a, b = _refs_u(0.5 * np.eye(2), 0.5 * to_matrix(pu("X")))
    chan = ChannelExpr(1, [PauliSum(1, [(1, a)]), PauliSum(1, [(1, b)])])
    with pytest.raises(TypecheckError, match="'u'"):
        minimize_kraus_rank(chan)


def test_simplify_pipeline():
    noisy = ChannelExpr(1, [
        PauliSum(1, [(0.5, pu("X")), (0.5, pu("X")), (0.0, pu("Z"))]),
        PauliSum(1, [(1e-30, pu("Y"))]),
        PauliSum(1, [(-0.25, pu("Z"))]),
    ])
    out = simplify(noisy)
    assert len(out.kraus) == 2
    assert out.kraus[0].terms[0][0] == 1.0
    assert abs(out.kraus[1].terms[0][0] - 0.25) < 1e-15
    again = simplify(out)
    for ka, kb in zip(out.kraus, again.kraus):
        assert [(c, p) for c, p in ka.terms] == [(c, p) for c, p in kb.terms]


def test_soundness_fuzz():
    rng = np.random.default_rng(7)
    for _ in range(60):
        c = random_channel(rng)
        before = c
        for _ in range(int(rng.integers(1, 7))):
            m = len(c.kraus)
            choice = rng.integers(0, 5)
            if choice == 0:
                c = apply_rule(c, "PS1", {"kraus": int(rng.integers(m))})
            elif choice == 1:
                c = apply_rule(c, "K2", {"kraus": int(rng.integers(m)),
                                         "theta": float(rng.uniform(0, 6.28))})
            elif choice == 2:
                perm = list(rng.permutation(m))
                c = apply_rule(c, "C1", {"perm": [int(p) for p in perm]})
            elif choice == 3:
                c = apply_rule(c, "C2", {"unitary": random_unitary(rng, m)})
            elif m >= 2:
                th, ph = rng.uniform(0, 6.28, size=2)
                a, b = math.cos(th), math.sin(th) * np.exp(1j * ph)
                c = apply_rule(c, "C2p", {"i": 0, "j": 1, "a": a, "b": b})
        assert channel_distance(before, c, samples=8) < 1e-9


def quadratic_form_spectrum(c):
    """Nonzero eigenvalues, largest first, of the |keys| x |keys| quadratic
    form w^T conj(w) of a Pauli channel: the same nonzero spectrum as its Gram
    matrix, taken the long way as a reference."""
    kraus = [canonical_kraus(k) for k in c.kraus]
    keys = sorted({(p.x_mask, p.z_mask) for k in kraus for _, p in k.terms},
                  key=lambda t: (t[1], t[0]))
    col = {key: i for i, key in enumerate(keys)}
    w = np.zeros((len(kraus), len(keys)), dtype=complex)
    for j, k in enumerate(kraus):
        for coeff, prim in k.terms:
            w[j, col[prim.x_mask, prim.z_mask]] = coeff
    lam = np.sort(np.linalg.eigvalsh(w.T @ w.conj()))[::-1]
    return lam[lam > RANK_RTOL * max(lam[0], 0.0)]


@pytest.fixture
def eigh_calls(monkeypatch):
    """(input shape, eigenvalues) of every np.linalg.eigh call."""
    calls = []
    real = np.linalg.eigh

    def spy(a, *args, **kwargs):
        out = real(a, *args, **kwargs)
        calls.append((a.shape, out[0].copy()))
        return out

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return calls


def c2_size(trace):
    (unitary,) = [e["args"]["unitary"] for e in trace if e["rule"] == "C2"]
    return len(unitary)


def test_minimize_takes_one_gram_eigh(eigh_calls):
    a = np.array([[0.2, 0.1], [0.1, -0.3]], dtype=complex)
    ref = BlockEncRef("ext", 1, 1.0, 1, a)
    blockenc = ChannelExpr(1, [
        PauliSum(1, [(1.0, ref)]),
        PauliSum(1, [(0.5, pu("X"))]),
        PauliSum(1, [(0.6, ref), (0.4, pu("X"))]),
    ])
    pauli = simplify(higher_order(gen_tfim(3, 1.0), 0.01, QuadratureSpec(2, 2, 2)))
    for chan in (pauli, blockenc):
        eigh_calls.clear()
        _, trace = minimize_kraus_rank(chan)
        m = c2_size(trace)
        assert [shape for shape, _ in eigh_calls] == [(m, m)]


def test_minimize_matches_quadratic_form_spectrum(eigh_calls):
    rng = np.random.default_rng(8)
    for _ in range(40):
        base = random_channel(rng)
        kraus = list(base.kraus)
        for _ in range(int(rng.integers(0, 3))):  # dependent operators
            w = rng.normal(size=len(base.kraus)) + 1j * rng.normal(size=len(base.kraus))
            kraus.append(PauliSum(base.n, [(c * a, p) for c, k in zip(w, base.kraus)
                                           for a, p in k.terms]))
        chan = ChannelExpr(base.n, kraus)
        want = quadratic_form_spectrum(chan)
        eigh_calls.clear()
        out, trace = minimize_kraus_rank(chan)
        (shape, lam), = eigh_calls
        assert shape == (c2_size(trace),) * 2
        lam = np.sort(lam)[::-1]
        got = lam[lam > RANK_RTOL * max(lam[0], 0.0)]
        assert len(out.kraus) == len(got) == len(want)
        tol = 1e-12 * want[0]
        assert np.allclose(got, want, rtol=0, atol=tol)
        norms = [sum(abs(c) ** 2 for c, _ in k.terms) for k in out.kraus]
        assert np.allclose(norms, want, rtol=0, atol=tol)


@pytest.mark.parametrize("vertices", [4, 8])
def test_minimize_basis_ignores_input_rotation(vertices):
    chan = gen_hypercube_like(vertices, seed=1)
    u = random_unitary(np.random.default_rng(vertices), len(chan.kraus))
    rotated = apply_rule(chan, "C2", {"unitary": u})
    a, _ = minimize_kraus_rank(chan)
    b, _ = minimize_kraus_rank(rotated)
    assert len(a.kraus) == len(b.kraus)
    for ka, kb in zip(a.kraus, b.kraus):
        assert [p for _, p in ka.terms] == [p for _, p in kb.terms]
        assert max(abs(ca - cb) for (ca, _), (cb, _) in zip(ka.terms, kb.terms)) <= 1e-10


def test_minimize_coefficients_ignore_input_rotation():
    # tfim3 order:2,2,2 has Gram eigenvalues 5e-9*lambda_max apart, which
    # LAPACK mixes at about 1e-8: each output's phase anchor must not be a
    # coefficient that this mixing can push across ZERO_TOL
    chan = higher_order(gen_tfim(3, 1.0), 0.01, QuadratureSpec(2, 2, 2))
    want, _ = minimize_kraus_rank(chan)
    rng = np.random.default_rng(12)
    for _ in range(4):
        u = random_unitary(rng, len(chan.kraus))
        got, _ = minimize_kraus_rank(apply_rule(chan, "C2", {"unitary": u}))
        assert len(got.kraus) == len(want.kraus)
        for ka, kb in zip(want.kraus, got.kraus):
            a = {p: c for c, p in ka.terms}
            b = {p: c for c, p in kb.terms}
            assert max(abs(a.get(p, 0) - b.get(p, 0)) for p in a.keys() | b.keys()) <= 1e-6


# the benchmark's simplified rank-minimization inputs: (sites, quadrature)
BENCH_CHANNELS = {
    "tfim2o3": (2, (3, 3, 2)),  # 85 Kraus operators
    "tfim3o2": (3, (2, 2, 2)),  # 43
    "tfim4o221": (4, (2, 2, 1)),  # 21
}


def bench_channel(name):
    sites, quad = BENCH_CHANNELS[name]
    return simplify(higher_order(gen_tfim(sites, 1.0), 0.01, QuadratureSpec(*quad)))


@pytest.mark.parametrize("name", sorted(BENCH_CHANNELS))
def test_minimize_folds_each_operator_once(monkeypatch, name):
    chan = bench_channel(name)
    calls = {"fold_terms": 0, "apply_rule": 0}

    def counting(fn_name):
        real = getattr(rewrite, fn_name)

        def wrapper(*args, **kwargs):
            calls[fn_name] += 1
            return real(*args, **kwargs)
        return wrapper

    for fn_name in calls:
        monkeypatch.setattr(rewrite, fn_name, counting(fn_name))
    minimize_kraus_rank(chan)
    assert calls == {"fold_terms": len(chan.kraus), "apply_rule": 0}


def bits(k_terms):
    """(real bits, imaginary bits, primitive) per term: equal lists mean
    equal coefficients to the bit, signed zeros included."""
    return [(complex(c).real.hex(), complex(c).imag.hex(), p) for c, p in k_terms]


def planted_channel(rng):
    """A random channel plus scaled copies of some of its operators, their
    terms reversed, inserted at random positions."""
    chan = random_channel(rng)
    kraus = list(chan.kraus)
    for _ in range(int(rng.integers(1, 5))):
        k = kraus[int(rng.integers(len(kraus)))]
        r = complex(rng.normal(), rng.normal())
        copy = PauliSum(chan.n, [(r * c, p) for c, p in reversed(k.terms)])
        kraus.insert(int(rng.integers(len(kraus) + 1)), copy)
    return ChannelExpr(chan.n, kraus)


@pytest.mark.parametrize("seed", [None, *range(30)],
                         ids=["tfim2o3", *(f"planted{s}" for s in range(30))])
def test_merge_equals_c3_replay(seed):
    chan = (bench_channel("tfim2o3") if seed is None
            else planted_channel(np.random.default_rng(seed)))
    trace = []
    folds = _merge_proportional(chan.kraus, trace)
    assert trace and {entry["rule"] for entry in trace} == {"C3"}
    work = ChannelExpr(chan.n, [canonical_kraus(k) for k in chan.kraus])
    for entry in trace:
        work = apply_rule(work, "C3", entry["args"])
        assert len(work.kraus) == entry["kraus_count_after"]
    assert len(folds) == len(work.kraus)
    for fold, k in zip(folds, work.kraus):
        assert bits(fold.values()) == bits(k.terms)
