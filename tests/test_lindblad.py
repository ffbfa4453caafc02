"""Tests for the Lindbladian short-time frontends."""

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
from qchanc.lindblad import (
    QuadratureSpec,
    exact_propagator,
    first_order,
    higher_order,
    jump_dissipator,
    lindblad_opnorm,
    propagate,
)


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
    return {p.label(): c for c, p in kraus.pauli_sum().terms}


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
        m = diss.to_matrix()
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
        assert sums_close(hi.kraus[0].pauli_sum(), lo.kraus[0].pauli_sum(), 1e-12)
        assert channel_distance(hi, lo, samples=8, seed=3) <= 3 * delta ** 2

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

    def test_cap_enforced(self):
        spec = tfim_spec(3, 1.0)
        with pytest.raises(ValueError, match="cap"):
            higher_order(spec, 0.01, QuadratureSpec(), cap=2)


class TestOpnorm:
    def test_decay_value(self):
        assert lindblad_opnorm(decay_spec(1.0, 1.0)) == pytest.approx(3.0)

    def test_hamiltonian_only(self):
        spec = LindbladSpec(1, PauliSum(1, [(1.0, from_label("Z"))]))
        assert lindblad_opnorm(spec) == pytest.approx(1.0)

    def test_jump_scaling_is_quadratic(self):
        base = decay_spec(1.0, 1.0)
        c = 1.7
        scaled = LindbladSpec(1, base.hamiltonian,
                              [j.scaled(c) for j in base.jumps])
        assert lindblad_opnorm(scaled) == pytest.approx(c * c * 3.0)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            lindblad_opnorm(tfim_spec(3, 1.0), cap=2)


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

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            exact_propagator(tfim_spec(3, 1.0), 0.1, cap=5)

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
        h = spec.hamiltonian.to_matrix()
        lind = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
        for jump in spec.jumps:
            l = jump.to_matrix()
            ldl = l.conj().T @ l
            lind += np.kron(l, l.conj())
            lind -= 0.5 * (np.kron(ldl, eye) + np.kron(eye, ldl.T))
        want = scipy.linalg.expm(t * lind)
        assert np.max(np.abs(exact_propagator(spec, t) - want)) <= 1e-13
