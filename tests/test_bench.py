"""Tests for the benchmark family generators."""

import numpy as np
import pytest

from qchanc.pauli import PauliSum, from_label, sums_close
from qchanc.ir import apply_channel, eval_kraus, probe_states, typecheck
from qchanc.lindblad import first_order
from qchanc.bench import (
    gen_decay,
    gen_hypercube_like,
    gen_random_pauli,
    gen_tfim,
)


def tp_defect(chan):
    dim = 1 << chan.n
    acc = np.zeros((dim, dim), dtype=complex)
    for k in chan.kraus:
        a = eval_kraus(k)
        acc += a.conj().T @ a
    return float(np.linalg.norm(acc - np.eye(dim), 2))


class TestDecay:
    def test_jump_decomposition(self):
        spec = gen_decay(1.0, 1.0)
        assert spec.n == 1 and len(spec.jumps) == 2
        r = np.sqrt(2) / 2
        want = PauliSum(1, [(r, from_label("X")), (-1j * r, from_label("Y"))])
        assert sums_close(spec.jumps[0], want, 1e-15)
        assert np.allclose(eval_kraus(spec.jumps[0]),
                           np.sqrt(2) * np.array([[0, 0], [1, 0]]))
        assert np.allclose(eval_kraus(spec.jumps[1]),
                           np.array([[0, 1], [0, 0]]))

    def test_no_drive(self):
        assert gen_decay(0.7, 0.2).hamiltonian.terms == []

    def test_gamma_zero_lowers_to_identity(self):
        spec = gen_decay(0.0, 1.0)
        assert all(not j.terms for j in spec.jumps)
        chan = first_order(spec, 0.05)
        assert len(chan.kraus) == 1
        assert chan.kraus[0].terms[0][0] == pytest.approx(1.0)
        assert chan.kraus[0].terms[0][1].is_identity()

    def test_first_order_coefficients(self):
        gamma, nbar, delta = 1.0, 1.0, 0.01
        chan = first_order(gen_decay(gamma, nbar), delta)
        a0 = {p.label(): c for c, p in chan.kraus[0].terms}
        assert a0["I"] == pytest.approx(1 - delta * gamma * (2 * nbar + 1) / 4)
        assert a0["Z"] == pytest.approx(-delta * gamma / 4)
        a1 = eval_kraus(chan.kraus[1])
        assert np.allclose(a1, np.sqrt(delta * 2) * np.array([[0, 0], [1, 0]]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gen_decay(-1.0, 0.0)
        with pytest.raises(ValueError):
            gen_decay(1.0, -0.5)


class TestTfim:
    def test_structure(self):
        spec = gen_tfim(5, 0.3)
        assert spec.n == 5
        assert len(spec.hamiltonian.terms) == 10
        zz = [p for c, p in spec.hamiltonian.terms if p.x_mask == 0]
        xs = [p for c, p in spec.hamiltonian.terms if p.z_mask == 0]
        assert len(zz) == 5 and len(xs) == 5
        assert all(c == -1.0 for c, _ in spec.hamiltonian.terms)
        assert len(spec.jumps) == 5
        assert all(len(j.terms) == 2 for j in spec.jumps)

    def test_two_site_ring_doubles_bond(self):
        from qchanc.pauli import canonicalize_sum
        h = canonicalize_sum(gen_tfim(2, 1.0).hamiltonian)
        coeffs = {p.label(): c for c, p in h.terms}
        assert coeffs["ZZ"] == pytest.approx(-2.0)
        assert coeffs["XI"] == pytest.approx(-1.0)
        assert coeffs["IX"] == pytest.approx(-1.0)

    def test_three_site_term_count(self):
        chan = first_order(gen_tfim(3, 1.0), 0.01)
        assert len(chan.kraus[0].terms) == 10

    def test_eight_site_table_counts(self):
        chan = first_order(gen_tfim(8, 1.0), 0.01)
        assert len(chan.kraus) == 9
        assert sum(len(k.terms) for k in chan.kraus) == 41
        assert len(chan.kraus[0].terms) == 25

    def test_lowered_channel_near_tp(self):
        for delta in (0.02, 0.01):
            defect = tp_defect(first_order(gen_tfim(3, 1.0), delta))
            assert defect <= 20 * delta ** 2

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            gen_tfim(1, 1.0)
        with pytest.raises(ValueError):
            gen_tfim(3, -0.1)


class TestRandomPauli:
    def test_single_term(self):
        k = gen_random_pauli(2, 1, seed=0)
        assert len(k.terms) == 1
        assert typecheck(k) == 2

    def test_deterministic(self):
        a = gen_random_pauli(3, 7, seed=42)
        b = gen_random_pauli(3, 7, seed=42)
        assert a.terms == b.terms

    def test_distinct_non_identity(self):
        k = gen_random_pauli(4, 12, seed=5)
        masks = {(p.x_mask, p.z_mask) for _, p in k.terms}
        assert len(masks) == 12
        assert (0, 0) not in masks

    def test_seed_changes_instance(self):
        a = gen_random_pauli(3, 7, seed=1)
        b = gen_random_pauli(3, 7, seed=2)
        assert a.terms != b.terms

    def test_block_encode_round_trip(self):
        from qchanc.synth import block_encode
        from helpers import simulate_unitary
        k = gen_random_pauli(4, 12, seed=9)
        circ, alpha = block_encode(k, select_mode="optimized")
        block = simulate_unitary(circ)[:16, :16]
        want = eval_kraus(k) / alpha
        assert np.max(np.abs(block - want)) <= 1e-10

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            gen_random_pauli(1, 4, seed=0)
        with pytest.raises(ValueError):
            gen_random_pauli(2, 0, seed=0)


class TestHypercubeLike:
    def test_reported_shape(self):
        chan = gen_hypercube_like(8, seed=11)
        assert typecheck(chan) == 4
        assert len(chan.kraus) == 16
        assert sum(len(k.terms) for k in chan.kraus) == 64
        assert all(len(k.terms) == 4 for k in chan.kraus)

    def test_twelve_vertices(self):
        chan = gen_hypercube_like(12, seed=11)
        assert chan.n == 5
        assert len(chan.kraus) == 24
        assert sum(len(k.terms) for k in chan.kraus) == 96

    def test_trace_preserving(self):
        chan = gen_hypercube_like(8, seed=3)
        assert tp_defect(chan) <= 1e-9
        for rho in probe_states(chan.n, 2, seed=8):
            out = apply_channel(chan, [rho])[0]
            assert abs(np.trace(out) - 1.0) <= 1e-9

    def test_deterministic(self):
        a = gen_hypercube_like(8, seed=4)
        b = gen_hypercube_like(8, seed=4)
        for ka, kb in zip(a.kraus, b.kraus):
            assert ka.terms == kb.terms

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            gen_hypercube_like(1, seed=0)
