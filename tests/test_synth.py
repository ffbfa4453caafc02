"""Tests for LCU block encoding and the channel-LCU construction."""

import numpy as np
import pytest

from qchanc.pauli import PauliString, PauliSum, from_label, to_matrix
from qchanc.ir import (
    BlockEncRef,
    ChannelExpr,
    TypecheckError,
    apply_channel,
    eval_kraus,
    probe_states,
)
from qchanc.circuits import (
    Controlled,
    cost_report,
    OpaqueUnitary,
    PauliGate,
    StatePrep,
    StatePrepAdjoint,
    run_channel,
)
from qchanc.synth import (
    block_encode,
    channel_alphas,
    channel_lcu,
    cost_cells,
    encode_channel,
    encode_kraus,
    encode_kraus_gates,
    prepare_pair,
)

from helpers import simulate_unitary


def ksum(n, pairs):
    return PauliSum(
        n, [(complex(c), from_label(l)) for c, l in pairs])


def random_kraus(rng, n, m):
    """Random Pauli-sum Kraus operator with m distinct terms."""
    seen = set()
    terms = []
    while len(terms) < m:
        x = int(rng.integers(0, 1 << n))
        z = int(rng.integers(0, 1 << n))
        if (x, z) in seen:
            continue
        seen.add((x, z))
        c = complex(rng.normal(), rng.normal())
        terms.append((c, PauliString(n, x, z)))
    return PauliSum(n, [(c, p) for c, p in terms])


def extract_block(circ, n):
    u = simulate_unitary(circ)
    dim = 1 << n
    return u[:dim, :dim]


class TestPreparePair:
    def test_single_entry(self):
        beta, c, d = prepare_pair(np.array([1.0 + 0j]))
        assert beta == pytest.approx(1.0)
        assert np.allclose(c, [1.0])
        assert np.allclose(d, [1.0])

    def test_phase_goes_to_d(self):
        y = np.array([0.5, 0.5j])
        beta, c, d = prepare_pair(y)
        assert beta == pytest.approx(1.0)
        assert np.allclose(c, [1 / np.sqrt(2), 1 / np.sqrt(2)])
        assert np.allclose(d, [1 / np.sqrt(2), 1j / np.sqrt(2)])
        # c stays real so only one of the two prep states carries phases
        assert np.max(np.abs(c.imag)) == 0.0

    def test_negative_entries(self):
        y = np.array([3.0, -4.0])
        beta, c, d = prepare_pair(y)
        assert beta == pytest.approx(7.0)
        assert np.allclose(np.abs(c) ** 2, [3 / 7, 4 / 7])
        assert np.allclose(beta * np.conj(c) * d, y)

    def test_padding_to_power_of_two(self):
        y = np.array([1.0, 2.0, 3.0])
        beta, c, d = prepare_pair(y)
        assert len(c) == 4 and len(d) == 4
        assert c[3] == 0 and d[3] == 0
        assert np.allclose(beta * np.conj(c) * d, [1, 2, 3, 0])
        assert np.linalg.norm(c) == pytest.approx(1.0)
        assert np.linalg.norm(d) == pytest.approx(1.0)

    def test_reconstruction_fuzz(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(1, 9))
            y = rng.normal(size=m) + 1j * rng.normal(size=m)
            beta, c, d = prepare_pair(y)
            assert beta == pytest.approx(np.sum(np.abs(y)))
            got = (beta * np.conj(c) * d)[:m]
            assert np.max(np.abs(got - y)) <= 1e-12 * max(1.0, beta)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            prepare_pair(np.zeros(4, dtype=complex))


class TestBlockEncode:
    def test_single_pauli_fast_path(self):
        k = ksum(1, [(1.0, "X")])
        circ, alpha = block_encode(k, select_mode="naive")
        assert alpha == pytest.approx(1.0)
        assert circ.reg_size("be_anc") == 0
        assert len(circ.gates) == 1 and isinstance(circ.gates[0], PauliGate)
        assert np.allclose(extract_block(circ, 1), to_matrix(from_label("X")))

    def test_scaled_single_pauli(self):
        k = ksum(2, [(0.25, "XZ")])
        circ, alpha = block_encode(k, select_mode="optimized")
        assert alpha == pytest.approx(0.25)
        assert np.allclose(extract_block(circ, 2), to_matrix(from_label("XZ")))

    def test_x_plus_iy_optimized_structure(self):
        # 0.3 (X + iY): one select qubit, X fires bare, Z fires controlled,
        # and the i lands in the right-prep amplitudes.
        k = ksum(1, [(0.3, "X"), (0.3j, "Y")])
        circ, alpha = block_encode(k, select_mode="optimized")
        assert alpha == pytest.approx(0.6)
        kinds = [type(g) for g in circ.gates]
        assert kinds[0] is StatePrep and kinds[-1] is StatePrepAdjoint
        body = circ.gates[1:-1]
        assert any(isinstance(g, PauliGate) for g in body)
        assert any(isinstance(g, Controlled) for g in body)
        prep = circ.gates[0]
        assert np.max(np.abs(np.asarray(prep.amps).imag)) == 0.0
        block = extract_block(circ, 1)
        want = eval_kraus(k) / alpha
        assert np.max(np.abs(block - want)) <= 1e-12

    def test_tfim_like_block_both_modes(self):
        d = 0.01
        terms = [
            (1.0 - 0.075 * d, "III"),
            (1j * d, "ZZI"), (1j * d, "IZZ"), (1j * d, "ZIZ"),
            (1j * d, "XII"), (1j * d, "IXI"), (1j * d, "IIX"),
            (-0.025 * d, "ZII"), (-0.025 * d, "IZI"), (-0.025 * d, "IIZ"),
        ]
        k = ksum(3, terms)
        want = eval_kraus(k)
        for mode in ("naive", "optimized"):
            circ, alpha = block_encode(k, select_mode=mode)
            block = extract_block(circ, 3)
            assert np.max(np.abs(block - want / alpha)) <= 1e-10, mode

    def test_alpha_is_abs_coeff_sum(self):
        k = ksum(1, [(0.3, "X"), (-0.4j, "Z")])
        _, alpha = block_encode(k, select_mode="naive")
        assert alpha == pytest.approx(0.7)
        assert channel_alphas(ChannelExpr(1, [k]), "naive") == [alpha]

    def test_random_pauli_fuzz_both_modes(self):
        rng = np.random.default_rng(23)
        for trial in range(24):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(2, min(9, (1 << (2 * n)) + 1)))
            k = random_kraus(rng, n, m)
            want = eval_kraus(k)
            for mode in ("naive", "optimized"):
                circ, alpha = block_encode(k, select_mode=mode)
                block = extract_block(circ, n)
                err = np.max(np.abs(block - want / alpha))
                assert err <= 1e-10, (trial, mode, err)

    def test_term_permutation_invariance(self):
        rng = np.random.default_rng(5)
        k = random_kraus(rng, 2, 6)
        perm = list(rng.permutation(len(k.terms)))
        k2 = PauliSum(2, [k.terms[i] for i in perm])
        for mode in ("naive", "optimized"):
            b1 = extract_block(*(block_encode(k, mode)[:1] + (2,)))
            b2 = extract_block(*(block_encode(k2, mode)[:1] + (2,)))
            a1 = block_encode(k, mode)[1]
            a2 = block_encode(k2, mode)[1]
            assert a1 == pytest.approx(a2, abs=1e-14)
            assert np.max(np.abs(b1 - b2)) <= 1e-12

    def test_single_complex_term_uses_prep(self):
        # phase forces the general path; block still matches
        k = ksum(1, [(0.5j, "Z")])
        circ, alpha = block_encode(k, select_mode="naive")
        assert alpha == pytest.approx(0.5)
        block = extract_block(circ, 1)
        assert np.max(np.abs(block - eval_kraus(k) / alpha)) <= 1e-12

    def test_zero_kraus_rejected(self):
        k = PauliSum(1, [])
        with pytest.raises(ValueError):
            block_encode(k, "naive")

    def test_bad_mode_rejected(self):
        k = ksum(1, [(1.0, "X")])
        with pytest.raises(ValueError):
            block_encode(k, "fancy")

    def test_anc_width_helper(self):
        k1 = ksum(1, [(1.0, "X")])
        assert encode_kraus(k1, "naive").width == 0
        k2 = ksum(1, [(0.5j, "Z")])
        assert encode_kraus(k2, "naive").width == 1
        k3 = ksum(2, [(1.0, "XX"), (0.5, "ZZ"), (0.1, "II")])
        assert encode_kraus(k3, "naive").width == 2

    def test_record_placed_on_any_qubits(self):
        k = ksum(2, [(0.5, "XX"), (0.25j, "ZI"), (0.25, "IY")])
        for mode in ("naive", "optimized"):
            enc = encode_kraus(k, mode)
            circ, alpha = block_encode(k, mode)
            assert enc.alpha == alpha and enc.width == 2
            here = encode_kraus_gates(enc, (0, 1), (2, 3))
            assert here == circ.gates
            moved = encode_kraus_gates(enc, (7, 5, 6), (1, 0))
            assert len(moved) == len(here)
            with pytest.raises(ValueError, match="ancilla"):
                encode_kraus_gates(enc, (0,), (1, 2))


class TestOpaqueRefs:
    def rand_contraction(self, rng, n, slack=1.3):
        dim = 1 << n
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        alpha = float(np.linalg.norm(a, 2) * slack)
        return a, alpha

    def test_dilation_block(self):
        rng = np.random.default_rng(3)
        a, alpha = self.rand_contraction(rng, 1)
        ref = BlockEncRef("amp", 1, alpha, 1, matrix=a)
        k = PauliSum(1, [(1.0, ref)])
        circ, got_alpha = block_encode(k, "naive")
        assert got_alpha == pytest.approx(alpha)
        assert circ.reg_size("be_anc") == 1
        u = simulate_unitary(circ)
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) <= 1e-12
        assert np.max(np.abs(u[:2, :2] - a / alpha)) <= 1e-10

    def test_scaled_reference(self):
        rng = np.random.default_rng(4)
        a, alpha = self.rand_contraction(rng, 2)
        ref = BlockEncRef("amp2", 2, alpha, 1, matrix=a)
        k = PauliSum(2, [(0.5, ref)])
        circ, got_alpha = block_encode(k, "naive")
        assert got_alpha == pytest.approx(0.5 * alpha)
        block = extract_block(circ, 2)
        assert np.max(np.abs(block - eval_kraus(k) / got_alpha)) <= 1e-10

    def test_zero_ancilla_unitary(self):
        rng = np.random.default_rng(6)
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        ref = BlockEncRef("u", 1, 2.0, 0, matrix=2.0 * q)
        k = PauliSum(1, [(1.0, ref)])
        circ, alpha = block_encode(k, "naive")
        assert alpha == pytest.approx(2.0)
        assert circ.reg_size("be_anc") == 0
        assert np.max(np.abs(simulate_unitary(circ) - q)) <= 1e-6

    def test_zero_ancilla_nonunitary_rejected(self):
        a = np.diag([1.0, 0.5]).astype(complex)
        ref = BlockEncRef("bad", 1, 1.0, 0, matrix=a)
        k = PauliSum(1, [(1.0, ref)])
        with pytest.raises(ValueError):
            block_encode(k, "naive")

    def test_alpha_below_norm_rejected(self):
        a = np.diag([2.0, 1.0]).astype(complex)
        ref = BlockEncRef("tight", 1, 1.0, 1, matrix=a)
        k = PauliSum(1, [(1.0, ref)])
        with pytest.raises(ValueError, match="spectral norm"):
            block_encode(k, "naive")

    def test_missing_matrix_stays_opaque(self):
        ref = BlockEncRef("ext", 1, 3.0, 2)
        k = PauliSum(1, [(1.0, ref)])
        circ, alpha = block_encode(k, "naive")
        assert alpha == pytest.approx(3.0)
        assert circ.reg_size("be_anc") == 2
        ops = [g for g in circ.gates if isinstance(g, OpaqueUnitary)]
        assert len(ops) == 1 and ops[0].matrix is None
        with pytest.raises(ValueError):
            simulate_unitary(circ)

    def test_mixed_kinds_rejected(self):
        ref = BlockEncRef("h", 1, 1.0, 1, matrix=np.eye(2, dtype=complex))
        k = PauliSum(1, [(1.0, ref), (0.5, from_label("X"))])
        with pytest.raises(TypecheckError):
            block_encode(k, "naive")

    def test_multiple_refs_rejected(self):
        r1 = BlockEncRef("a", 1, 1.0, 1, matrix=np.eye(2, dtype=complex))
        r2 = BlockEncRef("b", 1, 1.0, 1, matrix=np.eye(2, dtype=complex))
        k = PauliSum(1, [(1.0, r1), (1.0, r2)])
        with pytest.raises(TypecheckError):
            block_encode(k, "naive")

    def test_complex_ref_coefficient_rejected(self):
        ref = BlockEncRef("h", 1, 1.0, 1, matrix=np.eye(2, dtype=complex))
        k = PauliSum(1, [(1j, ref)])
        with pytest.raises(ValueError):
            block_encode(k, "naive")


def amplitude_damping(p):
    s = np.sqrt(p)
    k0 = ksum(
        1, [((1 + np.sqrt(1 - p)) / 2, "I"), ((1 - np.sqrt(1 - p)) / 2, "Z")])
    k1 = ksum(1, [(s / 2, "X"), (1j * s / 2, "Y")])
    return ChannelExpr(1, [k0, k1])


class TestChannelLcu:
    def check_semantics(self, chan, circ, tol=1e-9, samples=6):
        alphas = None
        n = chan.n
        want_scale = None
        for rho in probe_states(n, samples, seed=13):
            out, prob = run_channel(circ, [rho])[0]
            direct = apply_channel(chan, [rho])[0]
            if want_scale is None:
                alphas = channel_alphas(chan, "naive")
                want_scale = 1.0 / float(np.sum(np.square(alphas)))
            assert np.max(np.abs(out - want_scale * direct)) <= tol
            if abs(np.trace(direct) - 1.0) <= 1e-12:
                assert abs(prob - want_scale) <= tol
        return want_scale

    def test_identity_channel(self):
        chan = ChannelExpr(1, [ksum(1, [(1.0, "I")])])
        circ = channel_lcu(chan)
        assert circ.reg_size("kraus_sel") == 0
        assert circ.reg_size("flat_anc") == 0
        rho = probe_states(1, 1, seed=2)[-1]
        out, prob = run_channel(circ, [rho])[0]
        assert np.max(np.abs(out - rho)) <= 1e-12
        assert prob == pytest.approx(1.0)

    def test_amplitude_damping_all_modes(self):
        chan = amplitude_damping(0.3)
        scales = set()
        for mode in ("naive", "optimized"):
            for flat in (False, True):
                circ = channel_lcu(chan, select_mode=mode, flatten=flat)
                s = self.check_semantics(chan, circ)
                scales.add(round(s, 12))
        # success probability is a property of the channel, not the circuit
        assert len(scales) == 1
        alphas = channel_alphas(chan, "naive")
        assert alphas[0] == pytest.approx(1.0)
        assert alphas[1] == pytest.approx(np.sqrt(0.3))
        assert scales == {round(1 / 1.3, 12)}

    def test_flatten_register_shape(self):
        chan = amplitude_damping(0.2)
        flat = channel_lcu(chan, flatten=True)
        plain = channel_lcu(chan, flatten=False)
        assert flat.reg_size("kraus_sel") == 1
        assert flat.reg_size("flat_anc") == 2
        assert plain.reg_size("flat_anc") == 0

    def test_three_kraus_zero_padding(self):
        # m=3 pads the selector to 4 addresses; the empty one must stay inert
        terms = [
            ksum(1, [(0.5, "I"), (0.1, "Z")]),
            ksum(1, [(0.3, "X")]),
            ksum(1, [(0.2, "Y"), (0.1j, "X")]),
        ]
        chan = ChannelExpr(1, terms)
        for flat in (False, True):
            circ = channel_lcu(chan, select_mode="optimized", flatten=flat)
            assert circ.reg_size("kraus_sel") == 2
            self.check_semantics(chan, circ)

    def test_blockenc_branch(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        alpha = float(np.linalg.norm(a, 2) * 1.2)
        ref = BlockEncRef("ext", 1, alpha, 1, matrix=a)
        chan = ChannelExpr(1, [
            ksum(1, [(0.6, "I"), (0.2, "X")]),
            PauliSum(1, [(1.0, ref)]),
        ])
        circ = channel_lcu(chan, select_mode="naive")
        assert circ.reg_size("be_anc") == 1
        self.check_semantics(chan, circ)

    def test_kraus_phase_cancels(self):
        chan = amplitude_damping(0.4)
        phased = ChannelExpr(1, [
            chan.kraus[0],
            PauliSum(1, [(1j * c, p) for c, p in chan.kraus[1].terms]),
        ])
        c1 = channel_lcu(chan)
        c2 = channel_lcu(phased)
        rho = probe_states(1, 3, seed=4)[-1]
        o1, p1 = run_channel(c1, [rho])[0]
        o2, p2 = run_channel(c2, [rho])[0]
        assert np.max(np.abs(o1 - o2)) <= 1e-12
        assert p1 == pytest.approx(p2)

    def test_empty_channel_rejected(self):
        with pytest.raises(ValueError):
            channel_lcu(ChannelExpr(1, []))

    def test_flat_naive_agree(self):
        chan = amplitude_damping(0.15)
        rho = probe_states(1, 2, seed=9)[-1]
        outs = []
        for mode in ("naive", "optimized"):
            for flat in (False, True):
                out, prob = run_channel(channel_lcu(chan, mode, flat), [rho])[0]
                outs.append((out, prob))
        ref_out, ref_prob = outs[0]
        for out, prob in outs[1:]:
            assert np.max(np.abs(out - ref_out)) <= 1e-12
            assert prob == pytest.approx(ref_prob, abs=1e-12)

    def test_batch_matches_each_state_alone(self):
        from qchanc.bench import gen_tfim
        from qchanc.lindblad import first_order

        chan = first_order(gen_tfim(2, 1.0), 0.05)
        circ = channel_lcu(chan, "optimized", True)
        states = probe_states(2, 4, seed=11)
        runs = run_channel(circ, states)
        outs = apply_channel(chan, states)
        assert len(runs) == len(outs) == len(states)
        for rho, (out, prob), direct in zip(states, runs, outs):
            alone_out, alone_prob = run_channel(circ, [rho])[0]
            assert np.array_equal(out, alone_out) and prob == alone_prob
            assert np.array_equal(direct, apply_channel(chan, [rho])[0])

    @pytest.mark.parametrize("order", [False, True])
    def test_matches_three_operand_einsum(self, order):
        from qchanc.bench import gen_tfim
        from qchanc.circuits import system_isometry
        from qchanc.lindblad import QuadratureSpec, first_order, higher_order

        spec = gen_tfim(2, 1.0)
        if order:  # --frontend order:1,2,2 --flatten --order
            chan = higher_order(spec, 0.05, QuadratureSpec(1, 2, 2))
            circ = channel_lcu(chan, "optimized", True)
        else:
            circ = channel_lcu(first_order(spec, 0.05), "naive", False)
        names = [name for name, _ in circ.registers]
        dims = [1 << s for _, s in circ.registers] + [4]
        w = np.take(system_isometry(circ).reshape(dims), 0,
                    axis=names.index("be_anc"))
        flat = w.reshape(-1, 4, 4)
        states = probe_states(2, 4, seed=3)
        for rho, (out, prob) in zip(states, run_channel(circ, states)):
            want = np.einsum("asi,atj,ij->st", flat, flat.conj(), rho)
            assert np.max(np.abs(out - want)) <= 1e-14
            assert abs(prob - np.trace(want).real) <= 1e-14


def _oracle_channels():
    """name -> (channel factory, whether minimize_kraus_rank leaves it encodable)."""
    from qchanc.bench import gen_decay, gen_hypercube_like, gen_random_pauli, gen_tfim
    from qchanc.lindblad import QuadratureSpec, first_order, higher_order

    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    a = np.array([[0.3, 0.1], [0.2, 0.5]])
    out = {f"tfim{n}": (lambda n=n: first_order(gen_tfim(n, 1.0), 0.01), True)
           for n in (2, 3, 4)}
    for n in (2, 3):
        for q in ((2, 2, 2), (1, 2, 2), (3, 3, 2)):
            out[f"tfim{n}-order{q}"] = (lambda n=n, q=q: higher_order(
                gen_tfim(n, 1.0), 0.01, QuadratureSpec(*q)), True)
    out["decay"] = (lambda: first_order(gen_decay(1.0, 1.0), 0.01), True)
    for v in (4, 8, 32):
        for seed in (1, 2):
            out[f"hc{v}-seed{seed}"] = (
                lambda v=v, seed=seed: gen_hypercube_like(v, seed), True)
    for n, m, seed in ((2, 5, 1), (4, 16, 2), (6, 64, 3)):
        out[f"rndpauli-n{n}-m{m}"] = (lambda n=n, m=m, seed=seed: ChannelExpr(
            n, [gen_random_pauli(n, m, seed)]), True)
    out["one-kraus"] = (lambda: ChannelExpr(2, [
        random_kraus(np.random.default_rng(1), 2, 6)]), True)
    out["lone-terms"] = (lambda: ChannelExpr(1, [
        ksum(1, [(0.5, "Z")]), ksum(1, [(0.5j, "X")]), ksum(1, [(0.7, "I")])]), True)

    def random_channel(m):
        rng = np.random.default_rng(m)
        return ChannelExpr(3, [random_kraus(rng, 3, int(rng.integers(1, 9)))
                               for _ in range(m)])

    for m in (3, 5, 43):
        out[f"random-{m}-kraus"] = (lambda m=m: random_channel(m), True)

    def proportional_refs(anc, mat):
        # two copies of one reference, which rank minimization merges
        ref = BlockEncRef(f"anc{anc}", 1, 1.0, anc, mat)
        return ChannelExpr(1, [PauliSum(1, [(0.6, ref)]), PauliSum(1, [(0.3, ref)])])

    for anc, mat in ((0, h), (1, a), (2, a)):
        out[f"opaque-anc{anc}"] = (lambda anc=anc, mat=mat: proportional_refs(anc, mat),
                                   True)
    # distinct references: rank minimization mixes them into one operator,
    # which no LCU encodes
    out["opaque-mixed"] = (lambda: ChannelExpr(1, [
        PauliSum(1, [(0.5, BlockEncRef("u", 1, 1.0, 0))]),
        ksum(1, [(0.4, "I"), (0.2j, "Y")]),
        PauliSum(1, [(0.3, BlockEncRef("v", 1, 2.0, 3))]),
        PauliSum(1, [(0.1, BlockEncRef("w", 1, 1.0, 1, a))]),
        ksum(1, [(0.2, "X")])]), False)
    return out


ORACLE_CHANNELS = _oracle_channels()


class TestCostFromEncodings:
    @pytest.mark.parametrize("name", sorted(ORACLE_CHANNELS))
    def test_matches_built_circuit(self, name):
        from qchanc.rewrite import minimize_kraus_rank

        make, minimizable = ORACLE_CHANNELS[name]
        chan = make()
        variants = [chan]
        if minimizable:
            variants.append(minimize_kraus_rank(chan)[0])
        for c in variants:
            for mode in ("naive", "optimized"):
                encodings = encode_channel(c, mode)
                for fl in (False, True):
                    assert (cost_cells(encodings)[fl]
                            == cost_report(channel_lcu(c, mode, fl, encodings)))

    def test_empty_channel_rejected(self):
        with pytest.raises(ValueError, match="no Kraus"):
            cost_cells([])


class TestSharedSelectTables:
    @pytest.mark.parametrize("sites, quad, shared", [
        (2, (3, 3, 2), 70), (3, (2, 2, 2), 24), (2, (2, 2, 2), 15)],
        ids=["tfim2-o332", "tfim3-o222", "tfim2-o222"])
    def test_cached_records_equal_fresh(self, sites, quad, shared):
        from qchanc.bench import gen_tfim
        from qchanc.cli import _select_audits
        from qchanc.lindblad import QuadratureSpec, higher_order
        from qchanc.rewrite import simplify

        chan = simplify(higher_order(gen_tfim(sites, 1.0), 0.01,
                                     QuadratureSpec(*quad)))
        encodings = encode_channel(chan, "optimized")
        # operators with equal key sets share one SelectTable
        assert len(encodings) - len({id(e.table) for e in encodings}) == shared
        # every reader of the records runs before the comparison, so a
        # reader that changed a shared table would show below
        channel_lcu(chan, "optimized", True, encodings)
        cost_cells(encodings)
        _select_audits(encodings)
        for k, enc in zip(chan.kraus, encodings):
            fresh = encode_kraus(k, "optimized")
            assert enc == fresh
            assert list(enc.table.targets.items()) == list(fresh.table.targets.items())
            assert list(enc.table.factors.items()) == list(fresh.table.factors.items())
            assert list(enc.table.phases.items()) == list(fresh.table.phases.items())

    def test_tables_keyed_by_key_set_not_coefficients(self):
        # same keys in another order and with other coefficients: one set of
        # tables, and each operator's own phase-corrected coefficients
        rng = np.random.default_rng(11)
        k = random_kraus(rng, 3, 9)
        other = PauliSum(3, [(complex(rng.normal(), rng.normal()), p)
                             for _, p in reversed(k.terms)])
        a, b = encode_channel(ChannelExpr(3, [k, other]), "optimized")
        assert a.table is b.table
        assert a.prep != b.prep
        assert b == encode_kraus(other, "optimized")
