"""Tests for the Lindbladian short-time frontends."""

import re

import numpy as np
import pytest
import scipy.linalg

from qchanc.pauli import PauliSum, from_label, sums_close
from qchanc.ir import (
    LindbladSpec,
    TypecheckError,
    apply_channel,
    channel_distance,
    eval_kraus,
    probe_states,
    trace_distance,
    typecheck,
)
import qchanc.lindblad as lindblad
from qchanc.lindblad import (
    MAX_DRIFT_TAYLOR_ORDER,
    QuadratureSpec,
    evolve,
    exact_propagator,
    first_order,
    higher_order,
    jump_dissipator,
    lindblad_opnorm,
    propagate,
    short_time_bound,
)

from helpers import parent_pauli_decompose


def decay_spec(gamma, nbar):
    """Bosonic-bath single-qubit damping: two jump operators, no drive."""
    down = np.sqrt(gamma * (nbar + 1))
    up = np.sqrt(gamma * nbar)
    l1 = PauliSum(1, [(down / 2, from_label("X")),
                      (-1j * down / 2, from_label("Y"))])
    l2 = PauliSum(1, [(up / 2, from_label("X")),
                      (1j * up / 2, from_label("Y"))])
    jumps = [l1] if nbar == 0 else [l1, l2]
    return LindbladSpec(1, PauliSum(1, []), jumps)


def tfim_spec(n=3, gamma=1.0):
    """Ring TFIM with uniform per-site damping."""
    hterms = []
    for a in range(n):
        lbl = ["I"] * n
        lbl[a] = "Z"
        lbl[(a + 1) % n] = "Z"
        hterms.append((-1.0, from_label("".join(lbl))))
    for a in range(n):
        lbl = ["I"] * n
        lbl[a] = "X"
        hterms.append((-1.0, from_label("".join(lbl))))
    root = np.sqrt(gamma)
    jumps = []
    for a in range(n):
        x = ["I"] * n
        x[a] = "X"
        y = ["I"] * n
        y[a] = "Y"
        jumps.append(PauliSum(n, [(root / 2, from_label("".join(x))),
                                  (-1j * root / 2, from_label("".join(y)))]))
    return LindbladSpec(n, PauliSum(n, hterms), jumps)


def coeff_map(kraus):
    return {p.label(): c for c, p in kraus.terms}


def tp_defect(chan):
    dim = 1 << chan.n
    acc = np.zeros((dim, dim), dtype=complex)
    for k in chan.kraus:
        a = eval_kraus(k)
        acc += a.conj().T @ a
    return float(np.linalg.norm(acc - np.eye(dim), 2))


def worst_error(chan, spec, delta, samples=8):
    sup = exact_propagator(spec, delta)
    worst = 0.0
    for rho in probe_states(chan.n, samples, seed=3):
        worst = max(worst, trace_distance(apply_channel(chan, [rho])[0],
                                          propagate(sup, rho)))
    return worst


class TestQuadratureSpec:
    def test_defaults(self):
        q = QuadratureSpec()
        assert (q.expansion_order, q.drift_taylor_order, q.nodes_per_level) == (1, 1, 1)

    @pytest.mark.parametrize("kwargs", [
        {"expansion_order": 0},
        {"drift_taylor_order": 0},
        {"nodes_per_level": -1},
    ])
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)

    def test_drift_taylor_order_limit_is_inclusive(self):
        assert QuadratureSpec(1, MAX_DRIFT_TAYLOR_ORDER, 1).drift_taylor_order == 64
        with pytest.raises(ValueError, match="^drift_taylor_order must be at most 64, "
                                             "got 100000000$"):
            QuadratureSpec(1, 10 ** 8, 1)


class TestFirstOrder:
    def test_decay_kraus_zero(self):
        gamma, nbar, delta = 0.8, 0.3, 0.02
        chan = first_order(decay_spec(gamma, nbar), delta)
        a0 = coeff_map(chan.kraus[0])
        assert a0["I"] == pytest.approx(1 - delta * gamma * (2 * nbar + 1) / 4)
        assert a0["Z"] == pytest.approx(-delta * gamma / 4)
        assert set(a0) == {"I", "Z"}

    def test_decay_jump_kraus(self):
        gamma, nbar, delta = 1.0, 1.0, 0.01
        chan = first_order(decay_spec(gamma, nbar), delta)
        assert len(chan.kraus) == 3
        a1 = eval_kraus(chan.kraus[1])
        want = np.sqrt(delta * gamma * (nbar + 1)) * np.array([[0, 0], [1, 0]])
        assert np.max(np.abs(a1 - want)) <= 1e-12

    def test_no_generator_gives_identity(self):
        spec = LindbladSpec(1, PauliSum(1, []))
        chan = first_order(spec, 0.1)
        assert len(chan.kraus) == 1
        assert coeff_map(chan.kraus[0]) == {"I": 1.0}

    def test_tfim3_term_count_and_coeffs(self):
        delta = 0.01
        chan = first_order(tfim_spec(3, 1.0), delta)
        a0 = coeff_map(chan.kraus[0])
        assert len(a0) == 10
        assert a0["III"] == pytest.approx(1 - 3 * delta / 4)
        for lbl in ("ZZI", "IZZ", "ZIZ", "XII", "IXI", "IIX"):
            assert a0[lbl] == pytest.approx(1j * delta)
        for lbl in ("ZII", "IZI", "IIZ"):
            assert a0[lbl] == pytest.approx(-delta / 4)

    def test_trace_preservation_defect_quadratic(self):
        spec = decay_spec(1.0, 1.0)
        d1 = tp_defect(first_order(spec, 0.02))
        d2 = tp_defect(first_order(spec, 0.01))
        assert d1 <= 2 * 0.02 ** 2
        assert d2 <= 2 * 0.01 ** 2
        assert d1 / d2 == pytest.approx(4.0, rel=0.1)

    def test_dissipator_sum_is_hermitian(self):
        spec = tfim_spec(3, 0.7)
        diss = jump_dissipator(spec)
        for c, p in diss.terms:
            assert p.phase_exp == 0
            assert abs(c.imag) <= 1e-12
        m = eval_kraus(diss)
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            first_order(decay_spec(1.0, 0.0), 0.0)

    def test_rejects_non_hermitian_hamiltonian(self):
        with pytest.raises(TypecheckError):
            LindbladSpec(1, PauliSum(1, [(1j, from_label("Z"))]))


class TestHigherOrder:
    def test_level_one_matches_first_order(self):
        spec = decay_spec(1.0, 1.0)
        delta = 0.01
        hi = higher_order(spec, delta, QuadratureSpec(1, 1, 1))
        lo = first_order(spec, delta)
        assert len(hi.kraus) == len(lo.kraus)
        assert sums_close(hi.kraus[0], lo.kraus[0], 1e-12)
        assert channel_distance(hi, lo, samples=8, seed=3) <= 3 * delta ** 2

    def test_stacks_match_one_operator_at_a_time(self, monkeypatch):
        # the dense operators go to the decomposition in chunks of seven
        # here, so the 43 operators of tfim3 order:2,2,2 take seven stacks;
        # each sum must be the one its matrix alone gives, bit for bit
        spec, quad = tfim_spec(3), QuadratureSpec(2, 2, 2)
        stacks = []
        stack = lindblad.pauli_decompose_stack

        def spy(ms, n):
            stacks.append(len(ms))
            return stack(ms, n)

        def one_at_a_time(ms, n):
            return [parent_pauli_decompose(m, n) for m in ms]

        monkeypatch.setattr(lindblad, "decompose_chunk", lambda n: 7)
        monkeypatch.setattr(lindblad, "pauli_decompose_stack", spy)
        got = higher_order(spec, 0.01, quad)
        assert stacks == [7] * 6 + [1]
        monkeypatch.setattr(lindblad, "pauli_decompose_stack", one_at_a_time)
        want = higher_order(spec, 0.01, quad)
        assert len(got.kraus) == len(want.kraus) == 43
        for a, b in zip(got.kraus, want.kraus):
            assert [p for _, p in a.terms] == [p for _, p in b.terms]
            assert (np.array([c for c, _ in a.terms]).tobytes()
                    == np.array([c for c, _ in b.terms]).tobytes())

    def test_zero_generator_identity(self):
        spec = LindbladSpec(2, PauliSum(2, []))
        chan = higher_order(spec, 0.3, QuadratureSpec(2, 3, 2))
        assert len(chan.kraus) == 1
        assert coeff_map(chan.kraus[0]) == {"II": 1.0}

    def test_order_two_beats_order_one(self):
        spec = decay_spec(1.0, 1.0)
        delta = 0.1
        e1 = worst_error(higher_order(spec, delta, QuadratureSpec(1, 6, 3)),
                         spec, delta)
        e2 = worst_error(higher_order(spec, delta, QuadratureSpec(2, 6, 3)),
                         spec, delta)
        assert e2 < e1
        assert e2 < e1 / 5

    def test_tp_defect_order_scaling(self):
        spec = decay_spec(1.0, 1.0)
        for delta in (0.1, 0.05):
            d1 = tp_defect(higher_order(spec, delta, QuadratureSpec(1, 1, 2)))
            d2 = tp_defect(higher_order(spec, delta, QuadratureSpec(2, 2, 2)))
            assert d1 <= 3 * delta ** 2
            assert d2 <= 0.5 * delta ** 3

    def test_kraus_enumeration_drops_null_paths(self):
        # sigma- drift sigma- vanishes, so same-jump level-2 tuples drop out
        spec = decay_spec(1.0, 1.0)
        c1 = higher_order(spec, 0.1, QuadratureSpec(1, 6, 3))
        c2 = higher_order(spec, 0.1, QuadratureSpec(2, 6, 3))
        assert len(c1.kraus) == 1 + 3 * 2
        assert len(c2.kraus) == 1 + 3 * 2 + 9 * 2
        assert typecheck(c2) == 1

    def test_drift_factors_once_per_node_tuple(self, monkeypatch):
        import qchanc.lindblad as lindblad
        from qchanc.bench import gen_tfim

        calls = []
        original = lindblad._taylor_exp

        def counting(j, t, order):
            calls.append(t)
            return original(j, t, order)

        monkeypatch.setattr(lindblad, "_taylor_exp", counting)
        # the tfim3 instance of the corpus at order:2,2,2
        higher_order(gen_tfim(3, 1.0), 0.01, QuadratureSpec(2, 2, 2))
        # exp(delta J), then per node tuple the first factor and one per
        # level, whatever the jumps: 2 tuples at level 1, 4 at level 2
        assert len(calls) == 1 + 2 * 2 + 4 * 3

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            higher_order(decay_spec(1.0, 0.0), -0.1, QuadratureSpec())

    @pytest.mark.parametrize("delta", [1e308, 1e160])
    def test_overflow_is_value_error(self, delta):
        # a FloatingPointError or OverflowError inside, a ValueError outside
        with pytest.raises(ValueError, match=re.escape(f"delta = {delta:g} overflows")):
            higher_order(decay_spec(1.0, 0.0), delta, QuadratureSpec(2, 2, 2))

    def test_cap_enforced(self, monkeypatch):
        spec = tfim_spec(3, 1.0)
        monkeypatch.setenv("QCHANC_CAP", "2")
        with pytest.raises(ValueError, match="cap"):
            higher_order(spec, 0.01, QuadratureSpec())

    @pytest.mark.parametrize("quad", [QuadratureSpec(1, 1, 1), QuadratureSpec(2, 2, 2),
                                      QuadratureSpec(3, 1, 3), QuadratureSpec(4, 2, 1)],
                             ids=["1,1,1", "2,2,2", "3,1,3", "4,2,1"])
    @pytest.mark.parametrize("jumps", [0, 1, 2])
    def test_operator_count_matches_expansion(self, quad, jumps):
        spec = decay_spec(1.0, 1.0)
        spec = LindbladSpec(1, PauliSum(1, [(0.5, from_label("X"))]), spec.jumps[:jumps])
        sums = lindblad._duhamel_sums(spec, 0.1, quad)
        assert lindblad._duhamel_count(jumps, quad) == len(sums)

    def test_operator_limit_is_inclusive(self, monkeypatch):
        spec = decay_spec(1.0, 1.0)  # two jumps
        monkeypatch.setattr(lindblad, "MAX_DUHAMEL_OPERATORS", 7)
        # one level of three nodes: 1 + 3 * 2 operators
        assert len(higher_order(spec, 0.1, QuadratureSpec(1, 1, 3)).kraus) == 7
        with pytest.raises(ValueError, match="^the order-2 expansion would form 43 "
                                             "Kraus operators, more than 7$"):
            higher_order(spec, 0.1, QuadratureSpec(2, 1, 3))

    @pytest.mark.parametrize("quad, shown", [
        (QuadratureSpec(30, 1, 1), "2.15e+09"),
        (QuadratureSpec(12, 12, 2), "2.24e+07"),
        (QuadratureSpec(1, 1, 10 ** 8), "2e+08"),
        (QuadratureSpec(10 ** 9, 1, 1), "over 1e308"),
        (QuadratureSpec(10 ** 400, 1, 1), "over 1e308"),
    ], ids=["order-30", "order-12", "many-nodes", "order-1e9", "order-1e400"])
    def test_huge_expansion_refused_before_any_matrix(self, monkeypatch, quad, shown):
        def no_matrices(*args):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(lindblad, "_drift_generator", no_matrices)
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_matrices)
        with pytest.raises(ValueError, match=re.escape(
                f"would form {shown} Kraus operators, more than 65536")):
            higher_order(decay_spec(1.0, 1.0), 0.01, quad)


class TestOpnorm:
    def test_decay_value(self):
        assert lindblad_opnorm(decay_spec(1.0, 1.0)) == pytest.approx(3.0)

    @pytest.mark.parametrize("delta, norm, order", [
        (0.01, 3.0, 1), (0.05, 1.7, 2), (1e-3, 12.25, 4)])
    def test_short_time_bound(self, delta, norm, order):
        # the expression verify and error-sweep have always written
        assert short_time_bound(delta, norm, order) == 5.0 * (delta * norm) ** (order + 1)

    def test_hamiltonian_only(self):
        spec = LindbladSpec(1, PauliSum(1, [(1.0, from_label("Z"))]))
        assert lindblad_opnorm(spec) == pytest.approx(1.0)

    def test_jump_scaling_is_quadratic(self):
        base = decay_spec(1.0, 1.0)
        c = 1.7
        scaled = LindbladSpec(1, base.hamiltonian,
                              [j.scaled(c) for j in base.jumps])
        assert lindblad_opnorm(scaled) == pytest.approx(c * c * 3.0)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("QCHANC_CAP", "2")
        with pytest.raises(ValueError, match="cap"):
            lindblad_opnorm(tfim_spec(3, 1.0))


class TestExactPropagator:
    def test_time_zero_identity(self):
        sup = exact_propagator(decay_spec(1.0, 0.5), 0.0)
        assert np.max(np.abs(sup - np.eye(4))) <= 1e-12

    def test_trace_preserving(self):
        sup = exact_propagator(tfim_spec(3, 0.4), 0.7)
        for rho in probe_states(3, 4, seed=5):
            out = propagate(sup, rho)
            assert abs(np.trace(out) - 1.0) <= 1e-9
            assert np.max(np.abs(out - out.conj().T)) <= 1e-9

    def test_thermal_fixed_point(self):
        nbar = 1.0
        spec = decay_spec(1.0, nbar)
        sup = exact_propagator(spec, 40.0)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        rho_inf = propagate(sup, rho0)
        # populations settle at nbar/(2 nbar + 1) on |0> (the pumped level)
        assert rho_inf[0, 0].real == pytest.approx(nbar / (2 * nbar + 1), abs=1e-9)
        assert rho_inf[1, 1].real == pytest.approx((nbar + 1) / (2 * nbar + 1), abs=1e-9)

    def test_first_order_error_bound(self):
        spec = decay_spec(1.0, 1.0)
        lops = lindblad_opnorm(spec)
        errs = []
        for delta in (0.02, 0.01, 0.005):
            e = worst_error(first_order(spec, delta), spec, delta)
            assert e <= 5 * (delta * lops) ** 2
            errs.append(e)
        for big, small in zip(errs, errs[1:]):
            # quadratic scaling: halving delta quarters the error (40% slack)
            assert small <= 0.35 * big

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("QCHANC_CAP", "5")
        with pytest.raises(ValueError, match="cap"):
            exact_propagator(tfim_spec(3, 1.0), 0.1)

    @pytest.mark.parametrize("spec, t", [
        (decay_spec(1.0, 0.5), 0.7),
        (tfim_spec(2, 0.4), 0.3),
        (tfim_spec(3, 1.0), 0.05),
    ])
    def test_matches_separate_kron_generator(self, spec, t):
        # the former construction: -i[H, .] and each dissipator term
        # as its own Kronecker product
        dim = 1 << spec.n
        eye = np.eye(dim)
        h = eval_kraus(spec.hamiltonian)
        lind = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for jump in spec.jumps:
            l = eval_kraus(jump)
            ldl = l.conj().T @ l
            lind += np.kron(l, l.conj())
            lind -= 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
        want = scipy.linalg.expm(t * lind)
        assert np.max(np.abs(exact_propagator(spec, t) - want)) <= 1e-13


class TestEvolve:
    @pytest.mark.parametrize("t", [0.0, 1e-3, 0.05, 0.7])
    @pytest.mark.parametrize("spec", [
        decay_spec(1.0, 0.5), tfim_spec(2, 0.4), tfim_spec(3, 1.0),
        tfim_spec(4, 1.0),
    ], ids=["decay", "tfim2", "tfim3", "tfim4"])
    def test_matches_dense_propagator(self, spec, t):
        states = probe_states(spec.n, 4, seed=5)
        sup = exact_propagator(spec, t)
        for got, rho in zip(evolve(spec, t, states), states):
            assert np.max(np.abs(got - propagate(sup, rho))) <= 1e-13

    def test_thermal_fixed_point(self):
        nbar = 1.0
        (rho_inf,) = evolve(decay_spec(1.0, nbar), 40.0,
                            [np.diag([1.0, 0.0]).astype(complex)])
        assert rho_inf[0, 0].real == pytest.approx(nbar / (2 * nbar + 1), abs=1e-9)
        assert rho_inf[1, 1].real == pytest.approx((nbar + 1) / (2 * nbar + 1), abs=1e-9)
        assert abs(rho_inf[0, 1]) <= 1e-9

    def test_linear_on_any_matrix(self):
        # the generator is applied as J rho + rho J^dag + sum L rho L^dag,
        # so a matrix that is not a state evolves by the same linear map
        spec = tfim_spec(2, 0.4)
        rng = np.random.default_rng(1)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        (got,) = evolve(spec, 0.3, [m])
        want = propagate(exact_propagator(spec, 0.3), m)
        assert np.max(np.abs(got - want)) <= 1e-13

    def test_bitwise_deterministic(self):
        spec = tfim_spec(3, 1.0)
        states = probe_states(3, 8, seed=7)
        a = evolve(spec, 0.05, states)
        b = evolve(spec, 0.05, states)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))

    def test_trace_preserving_and_hermitian(self):
        spec = tfim_spec(3, 0.4)
        states = probe_states(3, 4, seed=5)
        outs = evolve(spec, 0.7, states)
        assert len(outs) == len(states)
        for out in outs:
            assert out.shape == (8, 8)
            assert abs(np.trace(out) - 1.0) <= 1e-12
            assert np.max(np.abs(out - out.conj().T)) <= 1e-12

    def test_inputs_untouched(self):
        states = probe_states(2, 2, seed=5)
        before = [rho.copy() for rho in states]
        evolve(tfim_spec(2, 1.0), 0.05, states)
        assert all(np.array_equal(a, b) for a, b in zip(states, before))

    def test_empty_input(self):
        got = evolve(tfim_spec(2, 1.0), 0.05, np.empty((0, 4, 4), dtype=complex))
        assert got.shape == (0, 4, 4)

    def test_cap_applies_to_n(self, monkeypatch):
        spec = tfim_spec(3, 1.0)
        states = probe_states(3, 1, seed=5)
        # the dense superoperator needs 2n = 6 qubits, evolve only n = 3
        monkeypatch.setenv("QCHANC_CAP", "5")
        with pytest.raises(ValueError, match="cap"):
            exact_propagator(spec, 0.1)
        monkeypatch.setenv("QCHANC_CAP", "3")
        assert len(evolve(spec, 0.1, states)) == len(states)
        monkeypatch.setenv("QCHANC_CAP", "2")
        with pytest.raises(ValueError, match="cap"):
            evolve(spec, 0.1, states)

    def test_rejects_wrong_state_shape(self):
        with pytest.raises(ValueError, match="4 x 4"):
            evolve(tfim_spec(2, 1.0), 0.05, [np.eye(2)])

    @pytest.mark.parametrize("t", [1e308, 1e5, np.inf, np.nan, -1e308])
    def test_step_limit(self, t):
        with pytest.raises(ValueError, match="Taylor steps") as exc:
            evolve(decay_spec(1.0, 1.0), t, probe_states(1, 1, seed=5))
        assert "norm bound 5 " in str(exc.value)

    def test_step_limit_is_the_module_constant(self, monkeypatch):
        # decay_spec(1, 1) has norm bound 5: t = 20 needs ceil(100 / 9.9) = 11
        # steps of degree 55
        spec = decay_spec(1.0, 1.0)
        states = probe_states(1, 1, seed=5)
        monkeypatch.setattr(lindblad, "MAX_TAYLOR_STEPS", 11)
        assert len(evolve(spec, 20.0, states)) == len(states)
        monkeypatch.setattr(lindblad, "MAX_TAYLOR_STEPS", 10)
        with pytest.raises(ValueError, match="more than 10 Taylor steps"):
            evolve(spec, 20.0, states)
