import math

import numpy as np
import pytest

from qchanc.circuits import (
    Circuit,
    Controlled,
    CostReport,
    OpaqueUnitary,
    PauliGate,
    StatePrep,
    StatePrepAdjoint,
    ToffoliCompute,
    ToffoliUncompute,
    adjoint_gate,
    apply_circuit,
    circuit_from_json,
    circuit_to_json,
    controlled,
    cost_report,
    gate_from_json,
    gate_to_json,
    householder_prep,
    run_channel,
    simulate_unitary,
    system_isometry,
)
from qchanc.pauli import from_label, to_matrix


def sys_circuit(n, extra=()):
    return Circuit(tuple(extra) + (("system", n),))


def random_state(rng, n):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def test_empty_circuit_identity():
    c = sys_circuit(2)
    assert np.array_equal(simulate_unitary(c), np.eye(4))


def test_double_x_identity():
    c = sys_circuit(1)
    c.add(PauliGate(from_label("X"), (0,)))
    c.add(PauliGate(from_label("X"), (0,)))
    assert np.array_equal(simulate_unitary(c), np.eye(2))


def test_pauli_gate_matches_dense():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = 3
        width = int(rng.integers(1, n + 1))
        qubits = tuple(int(q) for q in rng.choice(n, size=width, replace=False))
        x = int(rng.integers(1 << width))
        z = int(rng.integers(1 << width))
        pe = int(rng.integers(4))
        from qchanc.pauli import PauliString
        p = PauliString(width, x, z, pe)
        c = sys_circuit(n)
        c.add(PauliGate(p, qubits))
        # place each site on its circuit qubit inside a full-width string
        chars = ["I"] * n
        for site, q in enumerate(qubits):
            chars[q] = p.label()[site]
        expect = to_matrix(from_label("".join(chars), pe))
        assert np.array_equal(simulate_unitary(c), expect)


def test_cnot_and_polarity():
    c = sys_circuit(2)
    c.add(controlled([(0, 1)], PauliGate(from_label("X"), (1,))))
    u = simulate_unitary(c)
    expect = np.eye(4)[:, [0, 1, 3, 2]]
    assert np.array_equal(u, expect)
    c0 = sys_circuit(2)
    c0.add(controlled([(0, 0)], PauliGate(from_label("X"), (1,))))
    assert np.array_equal(simulate_unitary(c0), np.eye(4)[:, [1, 0, 2, 3]])


def test_control_merging_and_overlap_rejection():
    g = controlled([(0, 1)], controlled([(1, 1)], PauliGate(from_label("Z"), (2,))))
    assert isinstance(g, Controlled) and len(g.controls) == 2
    c = sys_circuit(3)
    with pytest.raises(ValueError, match="overlap"):
        c.add(Controlled(((0, 1),), PauliGate(from_label("Z"), (0,))))


def test_toffoli_matches_ccx():
    c = sys_circuit(3)
    c.add(ToffoliCompute(0, 1, 2))
    u = simulate_unitary(c)
    perm = list(range(8))
    perm[6], perm[7] = 7, 6
    assert np.array_equal(u, np.eye(8)[:, perm])
    c.add(ToffoliUncompute(0, 1, 2))
    assert np.array_equal(simulate_unitary(c), np.eye(8))


def test_householder_hadamard():
    s = 1 / math.sqrt(2)
    h = householder_prep(np.array([s, s]))
    expect = np.array([[s, s], [s, -s]])
    assert np.allclose(h, expect, atol=1e-15)


def test_householder_random_first_column():
    rng = np.random.default_rng(1)
    for dim in (2, 4, 8):
        v = random_state(rng, int(math.log2(dim)))
        u = householder_prep(v)
        assert np.allclose(u[:, 0], v, atol=1e-13)
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-12


def test_state_prep_norm_validation():
    with pytest.raises(ValueError, match="unit norm"):
        sys_circuit(1).add(StatePrep((0,), (1.0, 1.0)))


X = from_label("X")


@pytest.mark.parametrize("make, message", [
    (lambda: PauliGate(X, (5,)), "outside"),
    (lambda: PauliGate(from_label("XY"), (0,)), "qubit count"),
    (lambda: PauliGate(from_label("XY"), (0, 0)), "distinct"),
    (lambda: PauliGate(X, (True,)), "integer, got True"),
    (lambda: PauliGate(X, (0.0,)), "integer, got 0.0"),
    (lambda: PauliGate(X, ("0",)), "integer, got '0'"),
    (lambda: Controlled(((0, 2),), PauliGate(X, (1,))), "polarity"),
    (lambda: Controlled(((0, True),), PauliGate(X, (1,))), "got True"),
    (lambda: Controlled(((0, 1), (0, 1)), PauliGate(X, (1,))),
     "duplicate control"),
    (lambda: Controlled(((0, 1),), PauliGate(X, (0,))), "overlap"),
    (lambda: Controlled(((0, 1),), Controlled(((1, 1),), PauliGate(X, (2,)))),
     "nest"),
    (lambda: Controlled(((0.5, 1),), PauliGate(X, (1,))), "integer, got 0.5"),
    (lambda: ToffoliCompute(0, 0, 1), "distinct"),
    (lambda: ToffoliCompute(0, 1, 2.0), "integer, got 2.0"),
    (lambda: ToffoliUncompute(0, 1, 2, p1=2), "polarity"),
    (lambda: StatePrep((0,), (1.0,)), "length"),
    (lambda: StatePrep((0,), (math.nan, 0.0)), "unit norm"),
    (lambda: StatePrepAdjoint((0,), (1.0, 1.0)), "unit norm"),
    (lambda: OpaqueUnitary("u", (0,), np.eye(4)), "shape"),
], ids=["pauli-out-of-range", "pauli-qubit-count", "pauli-repeated-qubit",
        "bool-qubit", "float-qubit", "string-qubit", "polarity-2",
        "bool-polarity", "repeated-control", "control-overlaps-body",
        "nested-controlled", "float-control-qubit", "toffoli-repeated-qubit",
        "float-toffoli-target", "toffoli-polarity-2", "prep-length",
        "prep-nan", "prep-adjoint-norm", "opaque-shape"])
def test_bad_gate_rejected(make, message):
    regs = (("anc", 2), ("system", 1))
    with pytest.raises(ValueError, match=message):
        Circuit(regs, [make()])
    with pytest.raises(ValueError, match=message):
        Circuit(regs).add(make())


@pytest.mark.parametrize("registers, message", [
    ((("system", 1.5),), "integer, got 1.5"),
    ((("system", True),), "integer, got True"),
    ((("system", -1),), "nonnegative"),
    (((1, 1),), "string"),
    ((("system", 1), ("system", 1)), "duplicate"),
], ids=["float-size", "bool-size", "negative-size", "int-name", "repeated-name"])
def test_bad_register_rejected(registers, message):
    with pytest.raises(ValueError, match=message):
        Circuit(registers)


def test_random_circuit_unitary_and_adjoint():
    rng = np.random.default_rng(2)
    c = Circuit((("flat_anc", 1), ("system", 2)))
    s = 1 / math.sqrt(2)
    gates = [
        StatePrep((0,), (s, s)),
        PauliGate(from_label("XY"), (1, 2)),
        controlled([(0, 1)], PauliGate(from_label("Z"), (2,))),
        ToffoliCompute(0, 1, 2),
        OpaqueUnitary("rnd", (1, 2), np.linalg.qr(
            rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]),
        ToffoliUncompute(0, 1, 2),
    ]
    c.extend(gates)
    u = simulate_unitary(c)
    assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-10
    for g in reversed(gates):
        c.add(adjoint_gate(g))
    assert np.max(np.abs(simulate_unitary(c) - np.eye(8))) < 1e-12


def test_run_channel_identity():
    c = Circuit((("kraus_sel", 1), ("be_anc", 1), ("flat_anc", 0), ("system", 1)))
    rho = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
    out, prob = run_channel(c, [rho])[0]
    assert np.allclose(out, rho, atol=1e-12)
    assert abs(prob - 1.0) < 1e-12


def test_run_channel_postselect_halves():
    s = 1 / math.sqrt(2)
    c = Circuit((("kraus_sel", 0), ("be_anc", 1), ("flat_anc", 0), ("system", 1)))
    c.add(StatePrep((0,), (s, s)))
    rho = np.eye(2, dtype=complex) / 2
    out, prob = run_channel(c, [rho])[0]
    assert abs(prob - 0.5) < 1e-12
    assert np.allclose(out, rho / 2, atol=1e-12)


def test_run_channel_trace_out():
    c = Circuit((("kraus_sel", 1), ("be_anc", 0), ("flat_anc", 0), ("system", 1)))
    s = 1 / math.sqrt(2)
    c.add(StatePrep((0,), (s, s)))
    c.add(controlled([(0, 1)], PauliGate(from_label("X"), (1,))))
    rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    out, prob = run_channel(c, [rho])[0]
    assert abs(prob - 1.0) < 1e-12
    assert np.allclose(out, np.eye(2) / 2, atol=1e-12)


def test_cost_report_examples():
    c = sys_circuit(4)
    c.add(controlled([(0, 1)], PauliGate(from_label("Z"), (1,))))
    r = cost_report(c)
    assert r.weighted_control_cost == 1 and r.t_count == 0
    assert r.controlled_pauli_count == 1

    c3 = sys_circuit(4)
    c3.add(controlled([(0, 1), (1, 1), (2, 0)], PauliGate(from_label("X"), (3,))))
    r3 = cost_report(c3)
    assert r3.t_count == 8
    assert r3.weighted_control_cost == 3

    ct = sys_circuit(3)
    ct.add(ToffoliCompute(0, 1, 2))
    ct.add(ToffoliUncompute(0, 1, 2))
    rt = cost_report(ct)
    assert rt.t_count == 4 and rt.toffoli_count == 1

    cs = Circuit((("kraus_sel", 2), ("system", 1)))
    s = 1 / math.sqrt(2)
    cs.add(controlled([(0, 1), (1, 1)], StatePrep((2,), (s, s))))
    assert cost_report(cs).t_count == 4
    assert cost_report(cs).ancillas == 2


def test_unmatched_uncompute_rejected():
    c = sys_circuit(3)
    c.add(ToffoliUncompute(0, 1, 2))
    with pytest.raises(ValueError, match="no open compute"):
        cost_report(c)
    c2 = sys_circuit(4)
    c2.add(ToffoliCompute(0, 1, 3))
    c2.add(ToffoliUncompute(0, 2, 3))
    with pytest.raises(ValueError, match="does not match"):
        cost_report(c2)


def test_circuit_json_round_trip():
    rng = np.random.default_rng(3)
    c = Circuit((("kraus_sel", 1), ("be_anc", 1), ("system", 2)))
    s = 1 / math.sqrt(2)
    c.add(StatePrep((0,), (s, s)))
    c.add(controlled([(0, 1), (1, 0)], PauliGate(from_label("XZ", 2), (2, 3))))
    c.add(ToffoliCompute(0, 1, 2, p2=0))
    c.add(ToffoliUncompute(0, 1, 2, p2=0))
    c.add(StatePrepAdjoint((0,), (s, s)))
    c.add(OpaqueUnitary("blk", (2, 3), np.linalg.qr(
        rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]))
    back = circuit_from_json(circuit_to_json(c))
    assert back.registers == c.registers
    assert len(back.gates) == len(c.gates)
    assert np.allclose(simulate_unitary(back), simulate_unitary(c), atol=1e-14)


def test_gate_json_unknown_kind():
    with pytest.raises(ValueError, match="unknown gate kind"):
        gate_from_json({"kind": "wat"})
    g = gate_from_json(gate_to_json(PauliGate(from_label("Y"), (0,))))
    assert isinstance(g, PauliGate)


def test_system_register_must_trail():
    c = Circuit((("system", 1), ("be_anc", 1)))
    with pytest.raises(ValueError, match="trailing"):
        system_isometry(c)


def test_apply_circuit_checks_dimensions():
    c = sys_circuit(2)
    with pytest.raises(ValueError, match="dimension"):
        apply_circuit(c, np.ones(3, dtype=complex))
    with pytest.raises(ValueError, match="outside"):
        c.add(PauliGate(from_label("X"), (5,)))
