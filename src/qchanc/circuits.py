"""Gate-level circuit IR, dense simulator, and cost metrics.

Registers are named contiguous qubit ranges in declaration order; qubit 0 is
the first qubit of the first register and the most significant state-index
bit, so a trailing "system" register occupies the least significant bits and
the ancilla-zero block of a unitary is its top-left corner.

Gates and circuits are plain frozen records; `Circuit(registers, gates)` is
the one way to build a circuit.  It runs `_check`, the one gate validator,
once per gate as it takes each from the iterable, so JSON ingest reports the
first bad gate.  `_check` checks field types (every qubit index, polarity and
register size is an int, never a bool, float or string; circuit JSON must
hold JSON integers there), gate shapes and the qubit range, in one scan of
a gate's qubits.

JSON.  `circuit_to_json` writes the circuit.json text itself, exactly the
bytes of json.dumps(doc, sort_keys=True, indent=2) plus a newline, laid
out by ir._array and ir._object: one template per gate kind, the text of
each distinct Pauli gate, control list and amplitude vector formed once
per document, no dict per gate.  Amplitudes are [re, im] lists of numbers
(ir._pair2c) and a matrix a list of equal-length rows; every JSON
container there is a list, and every record (register, gate) an object.
A load error caused by one gate is led by its index ("gate 3: ...").

Simulation.  `apply_circuit` keeps the state as one (2,)*N + (cols,) tensor
and applies each gate in place, on the view with its control qubits (a
Toffoli's two included) fixed to their polarities, so a gate under c
controls touches 2^-c of the rows.  A Pauli body is one pass over that view
read with its X/Y axes reversed, times a broadcast factor holding the signs
of its Z/Y axes and its i-power; a Toffoli reverses its target axis; a
state preparation, its adjoint and an opaque unitary are one matrix product
over their target axes.  Pauli and Toffoli gates only move entries and
multiply them by units, so they are exact.

Cost model.  Every cost report, of a built circuit or of encoding records,
is priced by `cost_from_shapes` from how many gates have each (controls,
Pauli weight or None) shape, the number of Toffoli computes (toffoli_count)
and the ancilla count (every qubit outside the system register):
- a shape with c controls costs 0 T for c <= 1 and 4(c-1) T for c >= 2;
- a controlled Pauli (c >= 1, weight w) adds c*w to weighted_control_cost
  and counts in controlled_pauli_count;
- every shape is one gate of total_gates.
A Pauli gate under c controls is (c, weight); a state preparation or opaque
box under c controls is (c, None), so its control overhead is charged but its
interior is not; a ToffoliCompute under c controls is (c + 2, None), 4 T when
uncontrolled, and a ToffoliUncompute is (0, None), measurement assisted.
`cost_report` reduces a circuit to these shapes and checks that every
uncompute closes a matching compute; `synth.cost_cells` lists the same
shapes from the encoding records without building the circuit.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields
from functools import lru_cache
from json.encoder import encode_basestring_ascii

import numpy as np

from .ir import (_array, _encode, _led_by, _object, _pair2c, kraus_action,
                 matrix_from_json, matrix_to_json, require_dict, require_int,
                 require_keys, require_list, validate_density)
from .pauli import PauliString, check_cap, from_label, weight

PREP_TOL = 1e-10
_REVERSED = slice(None, None, -1)


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
# the gate types whose targets are a `qubits` tuple
_QUBIT_BODIES = frozenset((PauliGate, StatePrep, StatePrepAdjoint, OpaqueUnitary))


@dataclass(frozen=True, slots=True)
class Circuit:
    registers: tuple[tuple[str, int], ...]
    gates: tuple[Gate, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "registers", tuple((n, s) for n, s in self.registers))
        for name, size in self.registers:
            if type(name) is not str:
                raise ValueError(f"register name must be a string, got {name!r}")
            if require_int(size, "register size") < 0:
                raise ValueError("register sizes must be nonnegative")
        names = [n for n, _ in self.registers]
        if len(set(names)) != len(names):
            raise ValueError("duplicate register names")
        total = self.total_qubits
        gates = []
        for g in self.gates:  # a JSON gate is read here, just before its check
            try:
                gates.append(_check(g, total))
            except (TypeError, ValueError) as exc:
                raise _led_by(f"gate {len(gates)}", exc)
        object.__setattr__(self, "gates", tuple(gates))

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


def _check(gate: Gate, total: int) -> Gate:
    """The one gate validator, on `total` qubits: every gate enters a
    circuit through it.  Returns the gate.

    Dispatch is on the exact gate type.  One scan of the control and target
    qubits checks their types, range and distinctness; which duplicate it
    was (targets, controls or an overlap) is worked out only on failure.
    The checks and messages keep their order: qubit types, polarities,
    range, duplicates, then the body's own fields."""
    kind = type(gate)
    controls, body = (), gate
    if kind is Controlled:
        controls, body = gate.controls, gate.body
        kind = type(body)
        if kind is Controlled:
            raise ValueError("nest controls by merging control lists")
    if kind is ToffoliCompute or kind is ToffoliUncompute:
        targets, pols = (body.c1, body.c2, body.target), [body.p1, body.p2]
    elif kind in _QUBIT_BODIES:
        targets, pols = tuple(body.qubits), []
    else:
        raise TypeError(f"unknown gate {kind.__name__}")
    ctrl = []
    for q, p in controls:  # a control that is no pair fails here, first
        ctrl.append(q)
        pols.append(p)
    used = ctrl + list(targets) if ctrl else targets
    seen, outside, repeated = 0, False, False
    for q in used:
        if type(q) is not int:
            require_int(q, "qubit index")
        if 0 <= q < total:
            repeated = repeated or seen >> q & 1
            seen |= 1 << q
        else:
            outside = True
    for p in pols:
        if type(p) is not int or p not in (0, 1):
            raise ValueError(f"control polarity must be 0 or 1, got {p!r}")
    if outside:
        raise ValueError(f"gate uses qubits outside the circuit: {sorted(set(used))}")
    if repeated:
        if len(set(targets)) != len(targets):
            raise ValueError(f"gate qubits must be distinct, got {targets}")
        if len(set(ctrl)) != len(ctrl):
            raise ValueError("duplicate control qubits")
        raise ValueError("controls overlap the controlled body")
    if kind is PauliGate:
        if len(targets) != body.string.n:
            raise ValueError("qubit count does not match the Pauli string")
    elif kind is StatePrep or kind is StatePrepAdjoint:
        if len(body.amps) != 1 << len(targets):
            raise ValueError("amplitude vector length must be 2^(#qubits)")
        # the 2-norm as the hypotenuse of the moduli; NaN fails too
        if not abs(math.hypot(*map(abs, body.amps)) - 1.0) <= PREP_TOL:
            raise ValueError("amplitude vector is not unit norm")
    elif kind is OpaqueUnitary:
        if type(body.handle) is not str:
            raise ValueError(f"opaque gate handle must be a string, got {body.handle!r}")
        dim = 1 << len(targets)
        if body.matrix is not None and np.shape(body.matrix) != (dim, dim):
            raise ValueError("matrix shape does not match qubit count")
    return gate


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


# --- simulation -------------------------------------------------------------


@lru_cache(maxsize=256)
def _pauli_factor(ndim: int, zs: tuple, e: int) -> np.ndarray:
    """i^e (-1)^(the bits of the axes zs), broadcast over ndim axes."""
    f = np.full((1,) * ndim, 1j ** e)
    for a in zs:
        f = np.concatenate([f, -f], axis=a)
    f.flags.writeable = False
    return f


def _dense_in_place(v: np.ndarray, u: np.ndarray, axes, tail: bool) -> None:
    """v <- u on the axes (the first is the most significant), as one
    matrix product over them.  tail: the axes are consecutive and v is
    contiguous from the first on, so a reshape is a view of v and u @
    batches over the axes before them."""
    j = len(axes)
    if tail:
        x = v.reshape(v.shape[:axes[0]] + (1 << j, -1))
        x[...] = u @ x
    else:
        front = np.moveaxis(v, axes, range(j))
        front[...] = (u @ front.reshape(1 << j, -1)).reshape(front.shape)


def _apply_gate(t: np.ndarray, g: Gate) -> None:
    """Apply g in place to the (2,)*N + (cols,) state t, on the view with
    its control qubits (a Toffoli's two included) fixed to their
    polarities; each is kept as a length-1 axis, so axis q is qubit q."""
    controls, body = (g.controls, g.body) if isinstance(g, Controlled) else ((), g)
    if isinstance(body, (ToffoliCompute, ToffoliUncompute)):
        controls += ((body.c1, body.p1), (body.c2, body.p2))
    index = [slice(None)] * t.ndim
    for q, pol in controls:
        index[q] = slice(pol, pol + 1)
    v = t[tuple(index)]
    if isinstance(body, (StatePrep, StatePrepAdjoint, OpaqueUnitary)):
        if isinstance(body, StatePrep):
            u = householder_prep(np.array(body.amps))
        elif isinstance(body, StatePrepAdjoint):
            u = householder_prep(np.array(body.amps)).conj().T
        elif body.matrix is None:
            raise ValueError(f"opaque gate {body.handle!r} has no matrix to simulate")
        else:
            u = body.matrix
        qs = list(body.qubits)
        # consecutive targets after every control: t's trailing axes are
        # untouched from the first target on
        tail = (qs == list(range(qs[0], qs[0] + len(qs)))
                and all(q < qs[0] for q, _ in controls))
        _dense_in_place(v, u, qs, tail)
        return
    # i^e X^x Z^z with e = phase_exp + |x & z|: the view with the X/Y axes
    # reversed, times the signs of the Z/Y axes and the i-power, in one
    # pass; each Y axis is reversed after its sign, so e loses 2|x & z|
    if isinstance(body, PauliGate):
        s, sites = body.string, tuple(enumerate(body.qubits))
        xs = [q for k, q in sites if s.x_mask >> k & 1]
        zs = tuple(q for k, q in sites if s.z_mask >> k & 1)
        e = (s.phase_exp - (s.x_mask & s.z_mask).bit_count()) % 4
    else:  # a Toffoli flips its target
        xs, zs, e = [body.target], (), 0
    for q in xs:
        index[q] = _REVERSED
    src = t[tuple(index)]  # overlaps v: numpy buffers it
    if zs or e:
        np.multiply(src, _pauli_factor(t.ndim, zs, e), out=v)
    elif xs:
        v[...] = src


def apply_circuit(c: Circuit, state: np.ndarray) -> np.ndarray:
    """The circuit on each column of a (2^N, cols) state; the input is
    left unchanged."""
    total = c.total_qubits
    check_cap(total, "circuit")
    state = np.array(state, dtype=complex, order="C")  # a copy to work in
    if state.ndim != 2 or state.shape[0] != 1 << total:
        raise ValueError("state dimension does not match the circuit")
    t = state.reshape((2,) * total + state.shape[1:])
    for g in c.gates:
        _apply_gate(t, g)
    return state


def system_isometry(c: Circuit) -> np.ndarray:
    """Columns U|0...0, j> for each system basis state j (other regs zero)."""
    n = c.reg_size("system")
    if c.reg_qubits("system") != tuple(range(c.total_qubits - n, c.total_qubits)):
        raise ValueError("system register must occupy the trailing qubits")
    cols = np.zeros((1 << c.total_qubits, 1 << n), dtype=complex)
    cols[: 1 << n] = np.eye(1 << n)
    return apply_circuit(c, cols)


def run_channel(c: Circuit, rhos) -> tuple[np.ndarray, np.ndarray]:
    """Postselected, partially traced action on a system density matrix or
    each of a stack: (unnormalized outputs, success probabilities).

    be_anc is postselected on zero and every other register but the system
    is traced out.  The circuit is simulated once (one column per system
    basis state); its be_anc = 0 blocks, one per traced basis state, are the
    effective Kraus matrices that `ir.kraus_action` applies.
    """
    names = [name for name, _ in c.registers]
    if "be_anc" not in names:
        raise KeyError("no register named 'be_anc'")
    n = c.reg_size("system")
    rhos = validate_density(rhos, n)
    w = system_isometry(c)
    dims = [1 << s for _, s in c.registers] + [1 << n]
    # one axis per register (the system last), then system-in; keep be_anc = 0
    w = np.take(w.reshape(dims), 0, axis=names.index("be_anc"))
    outs = kraus_action(w.reshape(-1, 1 << n, 1 << n), rhos)
    return outs, np.trace(outs, axis1=-2, axis2=-1).real


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
        # all ints: a flat dict, without dataclasses.asdict's deep copy
        return {name: getattr(self, name) for name in _COST_FIELDS}


_COST_FIELDS = tuple(f.name for f in fields(CostReport))


def _control_t(c: int) -> int:
    return 0 if c <= 1 else 4 * (c - 1)


def cost_from_shapes(shapes: dict[tuple[int, int | None], int], toffolis: int,
                     ancillas: int) -> CostReport:
    """The cost model, given how many gates have each (controls, Pauli
    weight or None) shape."""
    wcc = t = cpauli = total = 0
    for (c, w), k in shapes.items():
        total += k
        t += k * _control_t(c)
        if w is not None and c:
            cpauli += k
            wcc += k * c * w
    return CostReport(wcc, t, toffolis, cpauli, total, ancillas)


def cost_report(c: Circuit) -> CostReport:
    shapes: Counter = Counter()
    toffolis = 0
    open_toffoli: dict[int, list] = {}
    for g in c.gates:
        body, nctrl = (g.body, len(g.controls)) if isinstance(g, Controlled) else (g, 0)
        if isinstance(body, PauliGate):
            shapes[nctrl, weight(body.string)] += 1
        elif isinstance(body, ToffoliCompute):
            toffolis += 1
            shapes[nctrl + 2, None] += 1
            open_toffoli.setdefault(body.target, []).append(body)
        elif isinstance(body, ToffoliUncompute):
            stack = open_toffoli.get(body.target, [])
            if not stack:
                raise ValueError(
                    f"ToffoliUncompute on qubit {body.target} has no open compute")
            prev = stack.pop()
            if (prev.c1, prev.c2, prev.p1, prev.p2) != (body.c1, body.c2,
                                                        body.p1, body.p2):
                raise ValueError(
                    f"ToffoliUncompute on qubit {body.target} does not match "
                    "its compute")
            shapes[0, None] += 1
        else:
            shapes[nctrl, None] += 1
    names = [n for n, _ in c.registers]
    sys_size = c.reg_size("system") if "system" in names else 0
    return cost_from_shapes(shapes, toffolis, c.total_qubits - sys_size)


# --- JSON -------------------------------------------------------------------


def _qubits(d: dict) -> tuple:
    return tuple(require_list(d["qubits"], "qubits"))


def gate_from_json(d: dict) -> Gate:
    """A gate from a record with a 'kind'; a field its kind needs is named
    if it is missing."""
    kind = d["kind"]
    what = f"{kind} gate"
    if kind == "pauli":
        require_keys(d, what, "pauli", "qubits")
        phase_exp = require_int(d.get("phase_exp", 0), "phase_exp")
        return PauliGate(from_label(d["pauli"], phase_exp), _qubits(d))
    if kind == "controlled":
        require_keys(d, what, "controls", "body")
        controls = require_list(d["controls"], "controls")
        for c in controls:
            if type(c) is not list or len(c) != 2:
                raise ValueError(f"a control must be a [qubit, polarity] pair, got {c!r}")
        body = gate_from_json(require_keys(d["body"], "gate body", "kind"))
        return Controlled(tuple((q, p) for q, p in controls), body)
    if kind in ("state_prep", "state_prep_adj"):
        require_keys(d, what, "qubits", "amps")
        amps = tuple(_pair2c(a) for a in require_list(d["amps"], "amps"))
        cls = StatePrep if kind == "state_prep" else StatePrepAdjoint
        return cls(_qubits(d), amps)
    if kind in ("toffoli", "toffoli_unc"):
        require_keys(d, what, "c1", "c2", "target")
        cls = ToffoliCompute if kind == "toffoli" else ToffoliUncompute
        return cls(d["c1"], d["c2"], d["target"], d.get("p1", 1), d.get("p2", 1))
    if kind == "opaque":
        require_keys(d, what, "handle", "qubits")
        m = None if d.get("matrix") is None else matrix_from_json(d["matrix"])
        return OpaqueUnitary(d["handle"], _qubits(d), m)
    raise ValueError(f"unknown gate kind {kind!r}")


def circuit_to_json(c: Circuit, alpha_sq_sum: float | None = None) -> str:
    """The circuit.json text of c: exactly the bytes of json.dumps(doc,
    sort_keys=True, indent=2) plus a newline, where doc holds the registers
    ({"name", "size"} records), one record per gate and, when given,
    alpha_sq_sum.  Each gate record is one ir._object template of its kind;
    the text of each distinct Pauli gate, qubit list and control list is
    formed once per document (see _GateText)."""
    text = _GateText()
    fields = {
        "gates": _array([text.record(g, "\n    ") for g in c.gates], "\n  "),
        "registers": _encode([{"name": n, "size": s} for n, s in c.registers], "\n  "),
    }
    if alpha_sq_sum is not None:
        fields["alpha_sq_sum"] = _encode(alpha_sq_sum, "\n  ")
    keys = tuple(sorted(fields))
    return _object(keys, "\n") % tuple([fields[k] for k in keys]) + "\n"


class _GateText:
    """Gate records as json.dumps(sort_keys=True, indent=2) writes them, for
    one document.  `nl` is the newline and indent that closes a record (its
    keys sit two spaces deeper).  Every int field holds an int, never a
    bool, since `_check` let the gate in, so %s writes it; amplitudes are
    written as float(part), and an opaque matrix, the one free-form field,
    goes through ir._encode.  The memo lives as long as the document."""

    def __init__(self):
        self.memo: dict = {}

    def record(self, g: Gate, nl: str) -> str:
        return _RECORD_TEXT[type(g)](self, g, nl)

    def _once(self, key, make, *args) -> str:
        """make(*args), formed once per key; a key with a list inside (a
        gate built with list fields) is not hashable and is formed each
        time."""
        try:
            return self.memo[key]
        except KeyError:
            text = self.memo[key] = make(*args)
        except TypeError:
            text = make(*args)
        return text

    def _pauli(self, g: PauliGate, nl: str) -> str:
        s = g.string
        # the string's fields, not the string: a tuple of ints hashes in C
        return self._once((s.n, s.x_mask, s.z_mask, s.phase_exp, g.qubits, nl),
                          self._pauli_text, g, nl)

    def _pauli_text(self, g: PauliGate, nl: str) -> str:
        k, s = nl + "  ", g.string
        return _object(("kind", "pauli", "phase_exp", "qubits"), nl) % (
            '"pauli"', encode_basestring_ascii(s.label()),
            _encode(s.phase_exp, k), _ints(g.qubits, k))

    def _controlled(self, g: Controlled, nl: str) -> str:
        k = nl + "  "
        return _object(("body", "controls", "kind"), nl) % (
            self.record(g.body, k),
            self._once((g.controls, k), _controls_text, g.controls, k),
            '"controlled"')

    def _prep(self, g: StatePrep | StatePrepAdjoint, nl: str) -> str:
        # keyed by the parts' bytes: equal tuples may differ in a zero's sign
        parts = np.array(g.amps, dtype=complex).view(float)
        return self._once((type(g), parts.tobytes(), g.qubits, nl), self._prep_text,
                          g, parts, nl)

    def _prep_text(self, g: StatePrep | StatePrepAdjoint, parts: np.ndarray,
                   nl: str) -> str:
        k = nl + "  "
        amps = _array([_array(["%r", "%r"], k + "  ")] * len(g.amps), k)
        kind = '"state_prep"' if type(g) is StatePrep else '"state_prep_adj"'
        return _object(("amps", "kind", "qubits"), nl) % (
            amps % tuple(parts.tolist()), kind, _ints(g.qubits, k))

    def _toffoli(self, g: ToffoliCompute | ToffoliUncompute, nl: str) -> str:
        kind = '"toffoli"' if type(g) is ToffoliCompute else '"toffoli_unc"'
        return _object(("c1", "c2", "kind", "p1", "p2", "target"), nl) % (
            g.c1, g.c2, kind, g.p1, g.p2, g.target)

    def _opaque(self, g: OpaqueUnitary, nl: str) -> str:
        k = nl + "  "
        matrix = None if g.matrix is None else matrix_to_json(g.matrix)
        return _object(("handle", "kind", "matrix", "qubits"), nl) % (
            encode_basestring_ascii(g.handle), '"opaque"',
            _encode(matrix, k), _ints(g.qubits, k))


def _ints(xs, nl: str) -> str:
    return _array(list(map(int.__repr__, xs)), nl)


def _controls_text(controls, nl: str) -> str:
    pair = _array(["%d", "%d"], nl + "  ")
    return _array([pair % (q, p) for q, p in controls], nl)


_RECORD_TEXT = {
    PauliGate: _GateText._pauli,
    Controlled: _GateText._controlled,
    StatePrep: _GateText._prep,
    StatePrepAdjoint: _GateText._prep,
    ToffoliCompute: _GateText._toffoli,
    ToffoliUncompute: _GateText._toffoli,
    OpaqueUnitary: _GateText._opaque,
}


def circuit_from_json(d: dict) -> Circuit:
    d = require_keys(d, "circuit", "registers", "gates")
    registers = [require_dict(r, f"register {i}")
                 for i, r in enumerate(require_list(d["registers"], "registers"))]
    # a missing name or size reads as None, which Circuit's check names
    return Circuit(tuple((r.get("name"), r.get("size")) for r in registers),
                   _gates_from_json(require_list(d["gates"], "gates")))


def _gates_from_json(gates: list):
    """Each gate record, read as the constructor reaches it.  An error in a
    record is led by its index; a record that is no object or has no kind
    names itself ("gate 2 must be an object")."""
    for i, g in enumerate(gates):
        g = require_keys(g, f"gate {i}", "kind")
        try:
            gate = gate_from_json(g)
        except (TypeError, ValueError, OverflowError) as exc:
            raise _led_by(f"gate {i}", exc)
        yield gate
