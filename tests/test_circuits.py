import json
import math
from collections import Counter
from dataclasses import FrozenInstanceError

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
    apply_circuit,
    circuit_from_json,
    circuit_to_json,
    controlled,
    cost_from_shapes,
    cost_report,
    gate_from_json,
    householder_prep,
    run_channel,
    system_isometry,
)
from qchanc.pauli import from_label, to_matrix

from helpers import parent_circuit_to_json, parent_gate_to_json, simulate_unitary


def sys_circuit(n, *gates):
    return Circuit((("system", n),), gates)


def random_state(rng, n):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def test_empty_circuit_identity():
    c = sys_circuit(2)
    assert np.array_equal(simulate_unitary(c), np.eye(4))


def test_double_x_identity():
    x = PauliGate(from_label("X"), (0,))
    c = sys_circuit(1, x, x)
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
        c = sys_circuit(n, PauliGate(p, qubits))
        # place each site on its circuit qubit inside a full-width string
        chars = ["I"] * n
        for site, q in enumerate(qubits):
            chars[q] = p.label()[site]
        expect = to_matrix(from_label("".join(chars), pe))
        assert np.array_equal(simulate_unitary(c), expect)


def test_cnot_and_polarity():
    c = sys_circuit(2, controlled([(0, 1)], PauliGate(from_label("X"), (1,))))
    u = simulate_unitary(c)
    expect = np.eye(4)[:, [0, 1, 3, 2]]
    assert np.array_equal(u, expect)
    c0 = sys_circuit(2, controlled([(0, 0)], PauliGate(from_label("X"), (1,))))
    assert np.array_equal(simulate_unitary(c0), np.eye(4)[:, [1, 0, 2, 3]])


def test_control_merging_and_overlap_rejection():
    g = controlled([(0, 1)], controlled([(1, 1)], PauliGate(from_label("Z"), (2,))))
    assert isinstance(g, Controlled) and len(g.controls) == 2
    with pytest.raises(ValueError, match="overlap"):
        sys_circuit(3, Controlled(((0, 1),), PauliGate(from_label("Z"), (0,))))


def test_toffoli_matches_ccx():
    c = sys_circuit(3, ToffoliCompute(0, 1, 2))
    u = simulate_unitary(c)
    perm = list(range(8))
    perm[6], perm[7] = 7, 6
    assert np.array_equal(u, np.eye(8)[:, perm])
    c = sys_circuit(3, *c.gates, ToffoliUncompute(0, 1, 2))
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
        sys_circuit(1, StatePrep((0,), (1.0, 1.0)))


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
    # two faults: the first check in the order the messages keep wins
    (lambda: Controlled(((0, 1), (0, 1)), PauliGate(from_label("XY"), (2, 2))),
     "distinct"),
    (lambda: Controlled(((1, 1), (1, 1)), PauliGate(X, (1,))), "duplicate control"),
    (lambda: Controlled(((5, 2),), PauliGate(X, (True,))), "integer, got True"),
    (lambda: Controlled(((0, 2),), PauliGate(X, (5,))), "polarity"),
    (lambda: PauliGate(from_label("XY"), (5, 5)), "outside"),
], ids=["pauli-out-of-range", "pauli-qubit-count", "pauli-repeated-qubit",
        "bool-qubit", "float-qubit", "string-qubit", "polarity-2",
        "bool-polarity", "repeated-control", "control-overlaps-body",
        "nested-controlled", "float-control-qubit", "toffoli-repeated-qubit",
        "float-toffoli-target", "toffoli-polarity-2", "prep-length",
        "prep-nan", "prep-adjoint-norm", "opaque-shape", "repeats-targets-first",
        "repeats-controls-before-overlap", "types-before-polarity-and-range",
        "polarity-before-range", "range-before-repeats"])
def test_bad_gate_rejected(make, message):
    regs = (("anc", 2), ("system", 1))
    with pytest.raises(ValueError, match=message):
        Circuit(regs, [make()])
    with pytest.raises(ValueError, match=message):
        Circuit(regs, iter([make()]))


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


def test_random_circuit_unitary():
    rng = np.random.default_rng(2)
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
    c = Circuit((("flat_anc", 1), ("system", 2)), iter(gates))
    assert c.gates == tuple(gates)
    u = simulate_unitary(c)
    assert np.max(np.abs(u.conj().T @ u - np.eye(8))) < 1e-10


def test_run_channel_identity():
    c = Circuit((("kraus_sel", 1), ("be_anc", 1), ("flat_anc", 0), ("system", 1)))
    rho = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
    (out,), (prob,) = run_channel(c, [rho])
    assert np.allclose(out, rho, atol=1e-12)
    assert abs(prob - 1.0) < 1e-12


def test_run_channel_postselect_halves():
    s = 1 / math.sqrt(2)
    c = Circuit((("kraus_sel", 0), ("be_anc", 1), ("flat_anc", 0), ("system", 1)),
                [StatePrep((0,), (s, s))])
    rho = np.eye(2, dtype=complex) / 2
    (out,), (prob,) = run_channel(c, [rho])
    assert abs(prob - 0.5) < 1e-12
    assert np.allclose(out, rho / 2, atol=1e-12)


def test_run_channel_trace_out():
    s = 1 / math.sqrt(2)
    c = Circuit((("kraus_sel", 1), ("be_anc", 0), ("flat_anc", 0), ("system", 1)),
                [StatePrep((0,), (s, s)),
                 controlled([(0, 1)], PauliGate(from_label("X"), (1,)))])
    rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    (out,), (prob,) = run_channel(c, [rho])
    assert abs(prob - 1.0) < 1e-12
    assert np.allclose(out, np.eye(2) / 2, atol=1e-12)


def test_run_channel_lone_matrix_is_one_state():
    c = Circuit((("kraus_sel", 1), ("be_anc", 1), ("flat_anc", 0), ("system", 1)),
                [StatePrep((0,), (0.6, 0.8)),
                 controlled([(0, 1)], PauliGate(from_label("Y"), (2,)))])
    rho = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
    (want,), (want_prob,) = run_channel(c, [rho])
    out, prob = run_channel(c, rho)
    assert np.array_equal(out, want) and prob == want_prob


def test_cost_report_examples():
    c = sys_circuit(4, controlled([(0, 1)], PauliGate(from_label("Z"), (1,))))
    r = cost_report(c)
    assert r.weighted_control_cost == 1 and r.t_count == 0
    assert r.controlled_pauli_count == 1

    c3 = sys_circuit(4, controlled([(0, 1), (1, 1), (2, 0)],
                                   PauliGate(from_label("X"), (3,))))
    r3 = cost_report(c3)
    assert r3.t_count == 8
    assert r3.weighted_control_cost == 3

    ct = sys_circuit(3, ToffoliCompute(0, 1, 2), ToffoliUncompute(0, 1, 2))
    rt = cost_report(ct)
    assert rt.t_count == 4 and rt.toffoli_count == 1

    s = 1 / math.sqrt(2)
    cs = Circuit((("kraus_sel", 2), ("system", 1)),
                 [controlled([(0, 1), (1, 1)], StatePrep((2,), (s, s)))])
    assert cost_report(cs).t_count == 4
    assert cost_report(cs).ancillas == 2


def test_cost_from_shapes_rules():
    # (controls, Pauli weight or None): an uncontrolled Pauli, two controlled
    # ones, a doubly controlled box and a measured uncompute
    r = cost_from_shapes(Counter([(0, 3), (1, 2), (3, 1), (2, None), (0, None)]),
                         1, 4)
    assert r == CostReport(weighted_control_cost=1 * 2 + 3 * 1, t_count=8 + 4,
                           toffoli_count=1, controlled_pauli_count=2,
                           total_gates=5, ancillas=4)
    assert r.to_json() == {
        "weighted_control_cost": 5, "t_count": 12, "toffoli_count": 1,
        "controlled_pauli_count": 2, "total_gates": 5, "ancillas": 4}


def test_cost_from_shapes_weighs_each_shape_by_its_count():
    # four doubly controlled weight-3 Paulis and two bare boxes
    r = cost_from_shapes(Counter({(2, 3): 4, (0, None): 2}), 0, 1)
    assert r == CostReport(weighted_control_cost=4 * 2 * 3, t_count=4 * 4,
                           toffoli_count=0, controlled_pauli_count=4,
                           total_gates=6, ancillas=1)


def test_cost_report_uncontrolled_pauli_is_free():
    c = sys_circuit(2, PauliGate(from_label("XY"), (0, 1)))
    assert cost_report(c) == CostReport(0, 0, 0, 0, 1, 0)


def test_unmatched_uncompute_rejected():
    c = sys_circuit(3, ToffoliUncompute(0, 1, 2))
    with pytest.raises(ValueError, match="no open compute"):
        cost_report(c)
    c2 = sys_circuit(4, ToffoliCompute(0, 1, 3), ToffoliUncompute(0, 2, 3))
    with pytest.raises(ValueError, match="does not match"):
        cost_report(c2)


def test_circuit_json_round_trip():
    rng = np.random.default_rng(3)
    s = 1 / math.sqrt(2)
    c = Circuit((("kraus_sel", 1), ("be_anc", 1), ("system", 2)), [
        StatePrep((0,), (s, s)),
        controlled([(0, 1), (1, 0)], PauliGate(from_label("XZ", 2), (2, 3))),
        ToffoliCompute(0, 1, 2, p2=0),
        ToffoliUncompute(0, 1, 2, p2=0),
        StatePrepAdjoint((0,), (s, s)),
        OpaqueUnitary("blk", (2, 3), np.linalg.qr(
            rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0])])
    back = circuit_from_json(json.loads(circuit_to_json(c)))
    assert back.registers == c.registers
    assert len(back.gates) == len(c.gates)
    assert np.allclose(simulate_unitary(back), simulate_unitary(c), atol=1e-14)


def test_circuit_json_keeps_zero_signs_of_equal_amplitudes():
    # (1, 0.0) == (1, -0.0): the writer must not take one's text for the other's
    c = sys_circuit(1, StatePrep((0,), (1.0, 0.0)), StatePrep((0,), (1.0, -0.0)),
                    StatePrepAdjoint((0,), (complex(1, -0.0), 0j)))
    text = circuit_to_json(c)
    assert text == json.dumps(parent_circuit_to_json(c), sort_keys=True, indent=2) + "\n"
    assert text.count("-0.0") == 2


def test_circuit_json_takes_gates_with_list_fields():
    # gates built by hand may hold lists where the reader makes tuples
    c = Circuit((("anc", 1), ("system", 2)), [
        PauliGate(from_label("XZ"), [1, 2]),
        Controlled([[0, 1]], PauliGate(from_label("Y"), [2])),
        Controlled([[0, 0]], StatePrep([1], [1.0, 0.0]))])
    assert circuit_to_json(c, 2.5) == json.dumps(
        {**parent_circuit_to_json(c), "alpha_sq_sum": 2.5}, sort_keys=True,
        indent=2) + "\n"


def test_circuit_is_frozen_with_a_gate_tuple():
    x = PauliGate(from_label("X"), (0,))
    c = sys_circuit(1, *[x])
    assert c.gates == (x,) and type(c.gates) is tuple
    assert type(sys_circuit(1).gates) is tuple
    for name, value in (("gates", [x, x]), ("registers", ())):
        with pytest.raises(FrozenInstanceError):
            setattr(c, name, value)
    assert c.gates == (x,) and c.registers == (("system", 1),)


def test_circuit_json_reports_first_bad_gate():
    # the first gate fails its check, the second fails to parse: gates are
    # read and checked one at a time, so the check's message is the one seen
    doc = {"registers": [{"name": "system", "size": 1}],
           "gates": [{"kind": "pauli", "pauli": "X", "qubits": [3]},
                     {"kind": "state_prep", "qubits": [0], "amps": {}}]}
    with pytest.raises(ValueError, match="outside the circuit"):
        circuit_from_json(doc)
    doc["gates"].reverse()
    with pytest.raises(ValueError, match="amps must be a list, got dict"):
        circuit_from_json(doc)


def test_gate_json_unknown_kind():
    with pytest.raises(ValueError, match="unknown gate kind"):
        gate_from_json({"kind": "wat"})
    g = gate_from_json(parent_gate_to_json(PauliGate(from_label("Y"), (0,))))
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
        sys_circuit(2, PauliGate(from_label("X"), (5,)))
