"""Gate-level circuit IR, dense simulator, and cost metrics.

Registers are named contiguous qubit ranges in declaration order; qubit 0 is
the first qubit of the first register and the most significant state-index
bit, so a trailing "system" register occupies the least significant bits and
the ancilla-zero block of a unitary is its top-left corner.

Gates are plain frozen records.  `Circuit._check` is the one gate validator:
`Circuit.add`/`extend`, the `Circuit(registers, gates)` constructor and JSON
ingest all run it once per gate.  It checks field types (every qubit index,
polarity and register size is an int, never a bool, float or string; circuit
JSON must hold JSON integers there), gate shapes and the qubit range.  JSON
amplitudes are [re, im] pairs of numbers, read by ir._pair2c like every
complex number in the IR's JSON.

Cost model: a gate with c controls costs 0 T for c <= 1 and 4(c-1) T for
c >= 2; ToffoliCompute costs 4 T and ToffoliUncompute 0 T (measurement
assisted); StatePrep and opaque interiors are excluded from T counts, though
their control overhead is charged.  weighted_control_cost sums
(#controls) * pauli_weight(body) over every controlled Pauli gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ir import _pair2c, matrix_from_json, matrix_to_json, require_int
from .pauli import PauliString, check_cap, from_label, pauli_action, weight

PREP_TOL = 1e-10


@dataclass(frozen=True, slots=True)
class PauliGate:
    string: PauliString
    qubits: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class Controlled:
    controls: tuple[tuple[int, int], ...]  # (qubit, polarity) pairs
    body: "Gate"


@dataclass(frozen=True, slots=True)
class StatePrep:
    qubits: tuple[int, ...]
    amps: tuple[complex, ...]


@dataclass(frozen=True, slots=True)
class StatePrepAdjoint:
    qubits: tuple[int, ...]
    amps: tuple[complex, ...]


@dataclass(frozen=True, slots=True)
class ToffoliCompute:
    c1: int
    c2: int
    target: int
    p1: int = 1
    p2: int = 1


@dataclass(frozen=True, slots=True)
class ToffoliUncompute:
    c1: int
    c2: int
    target: int
    p1: int = 1
    p2: int = 1


@dataclass(frozen=True, slots=True, eq=False)
class OpaqueUnitary:
    handle: str
    qubits: tuple[int, ...]
    matrix: np.ndarray | None = None


Gate = (PauliGate | Controlled | StatePrep | StatePrepAdjoint
        | ToffoliCompute | ToffoliUncompute | OpaqueUnitary)


@dataclass(slots=True)
class Circuit:
    registers: tuple[tuple[str, int], ...]
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        self.registers = tuple((n, s) for n, s in self.registers)
        for name, size in self.registers:
            if type(name) is not str:
                raise ValueError(f"register name must be a string, got {name!r}")
            if require_int(size, "register size") < 0:
                raise ValueError("register sizes must be nonnegative")
        names = [n for n, _ in self.registers]
        if len(set(names)) != len(names):
            raise ValueError("duplicate register names")
        for g in self.gates:
            self._check(g)

    @property
    def total_qubits(self) -> int:
        return sum(s for _, s in self.registers)

    def reg_size(self, name: str) -> int:
        for n, s in self.registers:
            if n == name:
                return s
        raise KeyError(f"no register named {name!r}")

    def reg_qubits(self, name: str) -> tuple[int, ...]:
        off = 0
        for n, s in self.registers:
            if n == name:
                return tuple(range(off, off + s))
            off += s
        raise KeyError(f"no register named {name!r}")

    def add(self, gate: Gate) -> None:
        self._check(gate)
        self.gates.append(gate)

    def extend(self, gates) -> None:
        for g in gates:
            self.add(g)

    def _check(self, gate: Gate) -> None:
        """The one gate validator: every gate enters a circuit through it."""
        controls, body = (), gate
        if isinstance(gate, Controlled):
            controls, body = gate.controls, gate.body
            if isinstance(body, Controlled):
                raise ValueError("nest controls by merging control lists")
        if isinstance(body, (ToffoliCompute, ToffoliUncompute)):
            targets, pols = (body.c1, body.c2, body.target), [body.p1, body.p2]
        elif isinstance(body, (PauliGate, StatePrep, StatePrepAdjoint, OpaqueUnitary)):
            targets, pols = tuple(body.qubits), []
        else:
            raise TypeError(f"unknown gate {type(body).__name__}")
        ctrl = tuple(q for q, _ in controls)
        pols += [p for _, p in controls]
        used = ctrl + targets
        for q in used:
            require_int(q, "qubit index")
        for p in pols:
            if type(p) is not int or p not in (0, 1):
                raise ValueError(f"control polarity must be 0 or 1, got {p!r}")
        total = self.total_qubits
        if any(not 0 <= q < total for q in used):
            raise ValueError(f"gate uses qubits outside the circuit: {sorted(set(used))}")
        if len(set(targets)) != len(targets):
            raise ValueError(f"gate qubits must be distinct, got {targets}")
        if len(set(ctrl)) != len(ctrl):
            raise ValueError("duplicate control qubits")
        if set(ctrl) & set(targets):
            raise ValueError("controls overlap the controlled body")
        dim = 1 << len(targets)
        if isinstance(body, PauliGate) and len(targets) != body.string.n:
            raise ValueError("qubit count does not match the Pauli string")
        if isinstance(body, (StatePrep, StatePrepAdjoint)):
            if len(body.amps) != dim:
                raise ValueError("amplitude vector length must be 2^(#qubits)")
            if not abs(np.linalg.norm(body.amps) - 1.0) <= PREP_TOL:  # NaN fails too
                raise ValueError("amplitude vector is not unit norm")
        if (isinstance(body, OpaqueUnitary) and body.matrix is not None
                and np.shape(body.matrix) != (dim, dim)):
            raise ValueError("matrix shape does not match qubit count")


def controlled(controls, body: Gate) -> Gate:
    """Wrap a gate with controls, merging with any existing control list."""
    controls = tuple(controls)
    if not controls:
        return body
    if isinstance(body, Controlled):
        return Controlled(controls + body.controls, body.body)
    return Controlled(controls, body)


def householder_prep(v: np.ndarray) -> np.ndarray:
    """Deterministic unitary completion whose first column is v."""
    v = np.asarray(v, dtype=complex)
    dim = v.shape[0]
    phase = v[0] / abs(v[0]) if abs(v[0]) > 0 else 1.0
    z = np.conj(phase) * v
    w = -z
    w[0] += 1.0
    nw2 = float(np.real(np.vdot(w, w)))
    if nw2 < 1e-24:
        h = np.eye(dim, dtype=complex)
    else:
        h = np.eye(dim, dtype=complex) - (2.0 / nw2) * np.outer(w, w.conj())
    h[:, 0] *= phase
    return h


def adjoint_gate(g: Gate) -> Gate:
    if isinstance(g, PauliGate):
        return PauliGate(g.string.dagger(), g.qubits)
    if isinstance(g, Controlled):
        return Controlled(g.controls, adjoint_gate(g.body))
    if isinstance(g, StatePrep):
        return StatePrepAdjoint(g.qubits, g.amps)
    if isinstance(g, StatePrepAdjoint):
        return StatePrep(g.qubits, g.amps)
    if isinstance(g, ToffoliCompute):
        return ToffoliUncompute(g.c1, g.c2, g.target, g.p1, g.p2)
    if isinstance(g, ToffoliUncompute):
        return ToffoliCompute(g.c1, g.c2, g.target, g.p1, g.p2)
    if g.matrix is None:
        raise ValueError(f"opaque gate {g.handle!r} has no matrix to adjoint")
    return OpaqueUnitary(g.handle + ".adj", g.qubits, g.matrix.conj().T)


# --- simulation -------------------------------------------------------------


def _apply_dense(state: np.ndarray, u: np.ndarray, qubits, total: int) -> np.ndarray:
    cols = state.shape[1]
    j = len(qubits)
    t = state.reshape((2,) * total + (cols,))
    rest = [a for a in range(total) if a not in set(qubits)] + [total]
    perm = list(qubits) + rest
    t = t.transpose(perm).reshape(1 << j, -1)
    t = u @ t
    t = t.reshape([2] * total + [cols]).transpose(np.argsort(perm))
    return t.reshape(1 << total, cols)


def _control_mask(idx: np.ndarray, controls, total: int) -> np.ndarray:
    ok = np.ones(idx.shape, dtype=bool)
    for q, pol in controls:
        ok &= ((idx >> (total - 1 - q)) & 1) == pol
    return ok


def _apply_gate(state: np.ndarray, g: Gate, total: int) -> np.ndarray:
    dim = 1 << total
    if isinstance(g, PauliGate):
        # rows is an involution, so gathering by it applies the string
        rows, signs, e = pauli_action(g.string, [total - 1 - q for q in g.qubits], dim)
        return (1j) ** e * (signs[:, None] * state)[rows]
    if isinstance(g, Controlled):
        idx = np.arange(dim)
        ok = _control_mask(idx, g.controls, total)
        full = _apply_gate(state, g.body, total)
        return np.where(ok[:, None], full, state)
    if isinstance(g, (ToffoliCompute, ToffoliUncompute)):
        idx = np.arange(dim)
        ok = _control_mask(idx, ((g.c1, g.p1), (g.c2, g.p2)), total)
        tbit = 1 << (total - 1 - g.target)
        out = state.copy()
        rows = idx[ok]
        out[rows ^ tbit] = state[rows]
        return out
    if isinstance(g, StatePrep):
        return _apply_dense(state, householder_prep(np.array(g.amps)), g.qubits, total)
    if isinstance(g, StatePrepAdjoint):
        u = householder_prep(np.array(g.amps)).conj().T
        return _apply_dense(state, u, g.qubits, total)
    if isinstance(g, OpaqueUnitary):
        if g.matrix is None:
            raise ValueError(f"opaque gate {g.handle!r} has no matrix to simulate")
        return _apply_dense(state, g.matrix, g.qubits, total)
    raise TypeError(f"unknown gate {type(g).__name__}")


def apply_circuit(c: Circuit, state: np.ndarray, cap: int | None = None) -> np.ndarray:
    total = c.total_qubits
    check_cap(total, cap, "circuit")
    state = np.asarray(state, dtype=complex)
    if state.ndim != 2 or state.shape[0] != 1 << total:
        raise ValueError("state dimension does not match the circuit")
    for g in c.gates:
        state = _apply_gate(state, g, total)
    return state


def simulate_unitary(c: Circuit, cap: int | None = None) -> np.ndarray:
    return apply_circuit(c, np.eye(1 << c.total_qubits, dtype=complex), cap)


def system_isometry(c: Circuit, cap: int | None = None) -> np.ndarray:
    """Columns U|0...0, j> for each system basis state j (other regs zero)."""
    n = c.reg_size("system")
    if c.reg_qubits("system") != tuple(range(c.total_qubits - n, c.total_qubits)):
        raise ValueError("system register must occupy the trailing qubits")
    cols = np.zeros((1 << c.total_qubits, 1 << n), dtype=complex)
    cols[: 1 << n] = np.eye(1 << n)
    return apply_circuit(c, cols, cap)


def run_channel(c: Circuit, states,
                cap: int | None = None) -> list[tuple[np.ndarray, float]]:
    """Postselected, partially traced action on system density matrices.

    be_anc is postselected on zero and every other register but the system
    is traced out.  Simulates the circuit once (one column per system basis
    state) and returns one (unnormalized output density matrix, success
    probability) pair per state in `states`.
    """
    from .ir import validate_density

    names = [name for name, _ in c.registers]
    if "be_anc" not in names:
        raise KeyError("no register named 'be_anc'")
    n = c.reg_size("system")
    rhos = [validate_density(rho, n) for rho in states]
    w = system_isometry(c, cap)
    dims = [1 << s for _, s in c.registers] + [1 << n]
    # one axis per register (the system last), then system-in; keep be_anc = 0
    w = np.take(w.reshape(dims), 0, axis=names.index("be_anc"))
    # w now has one axis per traced register, then system-out, system-in:
    # out = sum_a W_a rho W_a^dag, as (V rho) against conj(W) with the
    # traced axis a moved next to the contracted system-in axis
    dim = 1 << n
    flat = w.reshape(-1, dim, dim)
    v = flat.reshape(-1, dim)
    right = flat.conj().transpose(1, 0, 2).reshape(dim, -1).T
    results = []
    for rho in rhos:
        left = (v @ rho).reshape(-1, dim, dim).transpose(1, 0, 2).reshape(dim, -1)
        out = left @ right
        results.append((out, float(np.real(np.trace(out)))))
    return results


# --- cost metrics -----------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CostReport:
    weighted_control_cost: int
    t_count: int
    toffoli_count: int
    controlled_pauli_count: int
    total_gates: int
    ancillas: int

    def to_json(self) -> dict:
        return {
            "weighted_control_cost": self.weighted_control_cost,
            "t_count": self.t_count,
            "toffoli_count": self.toffoli_count,
            "controlled_pauli_count": self.controlled_pauli_count,
            "total_gates": self.total_gates,
            "ancillas": self.ancillas,
        }


def _control_t(c: int) -> int:
    return 0 if c <= 1 else 4 * (c - 1)


def cost_report(c: Circuit) -> CostReport:
    wcc = 0
    t = 0
    toffolis = 0
    cpauli = 0
    open_toffoli: dict[int, list] = {}
    for g in c.gates:
        body = g
        nctrl = 0
        if isinstance(g, Controlled):
            body = g.body
            nctrl = len(g.controls)
        if isinstance(body, PauliGate):
            if nctrl:
                cpauli += 1
                wcc += nctrl * weight(body.string)
                t += _control_t(nctrl)
        elif isinstance(body, ToffoliCompute):
            toffolis += 1
            t += _control_t(nctrl + 2)
            open_toffoli.setdefault(body.target, []).append((body, nctrl))
        elif isinstance(body, ToffoliUncompute):
            stack = open_toffoli.get(body.target, [])
            if not stack:
                raise ValueError(
                    f"ToffoliUncompute on qubit {body.target} has no open compute")
            prev, _ = stack.pop()
            if (prev.c1, prev.c2, prev.p1, prev.p2) != (body.c1, body.c2,
                                                        body.p1, body.p2):
                raise ValueError(
                    f"ToffoliUncompute on qubit {body.target} does not match "
                    "its compute")
        else:
            # state preparations and opaque boxes: control overhead only
            t += _control_t(nctrl)
    try:
        sys_size = c.reg_size("system")
    except KeyError:
        sys_size = 0
    return CostReport(
        weighted_control_cost=wcc,
        t_count=t,
        toffoli_count=toffolis,
        controlled_pauli_count=cpauli,
        total_gates=len(c.gates),
        ancillas=c.total_qubits - sys_size,
    )


# --- JSON -------------------------------------------------------------------


def gate_to_json(g: Gate) -> dict:
    if isinstance(g, PauliGate):
        return {"kind": "pauli", "pauli": g.string.label(),
                "phase_exp": g.string.phase_exp, "qubits": list(g.qubits)}
    if isinstance(g, Controlled):
        return {"kind": "controlled",
                "controls": [[q, p] for q, p in g.controls],
                "body": gate_to_json(g.body)}
    if isinstance(g, (StatePrep, StatePrepAdjoint)):
        kind = "state_prep" if isinstance(g, StatePrep) else "state_prep_adj"
        return {"kind": kind, "qubits": list(g.qubits),
                "amps": [[float(a.real), float(a.imag)] for a in g.amps]}
    if isinstance(g, (ToffoliCompute, ToffoliUncompute)):
        kind = "toffoli" if isinstance(g, ToffoliCompute) else "toffoli_unc"
        return {"kind": kind, "c1": g.c1, "c2": g.c2, "target": g.target,
                "p1": g.p1, "p2": g.p2}
    return {"kind": "opaque", "handle": g.handle, "qubits": list(g.qubits),
            "matrix": None if g.matrix is None else matrix_to_json(g.matrix)}


def gate_from_json(d: dict) -> Gate:
    kind = d["kind"]
    if kind == "pauli":
        phase_exp = require_int(d.get("phase_exp", 0), "phase_exp")
        return PauliGate(from_label(d["pauli"], phase_exp), tuple(d["qubits"]))
    if kind == "controlled":
        return Controlled(tuple((q, p) for q, p in d["controls"]),
                          gate_from_json(d["body"]))
    if kind in ("state_prep", "state_prep_adj"):
        amps = tuple(_pair2c(a) for a in d["amps"])
        cls = StatePrep if kind == "state_prep" else StatePrepAdjoint
        return cls(tuple(d["qubits"]), amps)
    if kind in ("toffoli", "toffoli_unc"):
        cls = ToffoliCompute if kind == "toffoli" else ToffoliUncompute
        return cls(d["c1"], d["c2"], d["target"], d.get("p1", 1), d.get("p2", 1))
    if kind == "opaque":
        m = None if d.get("matrix") is None else matrix_from_json(d["matrix"])
        return OpaqueUnitary(d["handle"], tuple(d["qubits"]), m)
    raise ValueError(f"unknown gate kind {kind!r}")


def circuit_to_json(c: Circuit) -> dict:
    return {"registers": [{"name": n, "size": s} for n, s in c.registers],
            "gates": [gate_to_json(g) for g in c.gates]}


def circuit_from_json(d: dict) -> Circuit:
    c = Circuit(tuple((r["name"], r["size"]) for r in d["registers"]))
    for g in d["gates"]:
        c.add(gate_from_json(g))
    return c
