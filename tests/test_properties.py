"""Property tests: channel JSON round trips, the bulk term-list codecs,
rewrite soundness, the in-place circuit simulator, and the circuit.json
and report.json writers.

Skipped where hypothesis is not installed; examples are derandomized, so
every run draws the same ones.
"""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qchanc.circuits import (  # noqa: E402
    Circuit,
    Controlled,
    OpaqueUnitary,
    PauliGate,
    StatePrep,
    StatePrepAdjoint,
    ToffoliCompute,
    ToffoliUncompute,
    apply_circuit,
    circuit_from_json,
    circuit_to_json,
)
from qchanc.cli import _dump, _select_audits, report_to_json  # noqa: E402
from qchanc.ir import (  # noqa: E402
    BlockEncRef,
    ChannelExpr,
    _pauli_terms_in_bulk,
    _uniform_items,
    channel_from_json,
    channel_to_json,
    eval_kraus,
    typecheck,
)
from qchanc.pauli import PauliString, PauliSum  # noqa: E402
from qchanc.select_opt import SelectTable  # noqa: E402
from qchanc.synth import KrausEncoding  # noqa: E402
from qchanc.rewrite import apply_rule, canonical_kraus, minimize_kraus_rank  # noqa: E402

from helpers import parent_apply_circuit, parent_circuit_to_json, per_term_sum  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, max_examples=40)

unit = st.floats(min_value=-1.0, max_value=1.0)


@st.composite
def pauli_strings(draw, n):
    mask = st.integers(0, (1 << n) - 1)
    return PauliString(n, draw(mask), draw(mask), draw(st.integers(0, 3)))


@st.composite
def block_refs(draw, n):
    # arbitrary doubles from a seeded generator, at a drawn scale
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    m = draw(st.floats(-1e300, 1e300)) * (rng.normal(size=(1 << n, 1 << n))
                                          + 1j * rng.normal(size=(1 << n, 1 << n)))
    return BlockEncRef(draw(st.text(max_size=6)), n,
                       draw(st.floats(min_value=0, exclude_min=True,
                                      allow_infinity=False)),
                       draw(st.integers(0, 4)),
                       draw(st.sampled_from([m, None])))


@st.composite
def channels(draw, coeffs, opaque):
    n = draw(st.integers(1, 3))
    prims = pauli_strings(n)
    if opaque:
        prims = st.one_of(prims, block_refs(n))
    terms = st.lists(st.tuples(coeffs, prims), max_size=4)
    kraus = draw(st.lists(terms.map(lambda t: PauliSum(n, t)), min_size=1, max_size=4))
    return ChannelExpr(n, kraus)


@PROPERTY
@given(channels(st.complex_numbers(allow_nan=False, allow_infinity=False),
                opaque=True))
def test_channel_json_round_trip(chan):
    text = _dump(channel_to_json(chan))
    back = channel_from_json(json.loads(text))
    assert back.n == chan.n
    assert [k.terms for k in back.kraus] == [k.terms for k in chan.kraus]
    for k, kb in zip(chan.kraus, back.kraus):
        for (_, p), (_, q) in zip(k.terms, kb.terms):
            if isinstance(p, BlockEncRef):
                assert (p.matrix is None) == (q.matrix is None)
                assert p.matrix is None or np.array_equal(p.matrix, q.matrix)
    assert _dump(channel_to_json(back)) == text


# --- term lists: the bulk codecs against the per-term ones -----------------

finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                   st.sampled_from([-0.0, 5e-324, -5e-324, 1e308]))
odd_parts = st.one_of(st.sampled_from([float("nan"), float("inf"), float("-inf")]),
                      st.integers(-2 ** 70, 2 ** 70), st.booleans(), st.text(max_size=2))


@st.composite
def regular_terms(draw, n, label_alphabet="IXYZ"):
    return {"coeff": draw(st.lists(finite, min_size=2, max_size=2)),
            "pauli": draw(st.text(label_alphabet, min_size=n, max_size=n)),
            "phase_exp": draw(st.integers(-6, 6))}


@st.composite
def odd_terms(draw, n):
    """A regular term with one thing wrong or unusual about it."""
    t = draw(regular_terms(n))
    kind = draw(st.sampled_from([
        "part", "tuple-pair", "short-pair", "long-pair", "bad-letter",
        "non-ascii", "empty-label", "long-label", "bool-phase", "float-phase",
        "no-phase", "no-coeff", "no-pauli", "extra-key", "blockenc"]))
    if kind == "part":
        t["coeff"][draw(st.integers(0, 1))] = draw(odd_parts)
    elif kind == "tuple-pair":
        t["coeff"] = tuple(t["coeff"])
    elif kind == "short-pair":
        del t["coeff"][1]
    elif kind == "long-pair":
        t["coeff"].append(draw(finite))
    elif kind == "bad-letter":
        t["pauli"] = t["pauli"][:-1] + draw(st.sampled_from("ixyzA0 "))
    elif kind == "non-ascii":
        t["pauli"] = t["pauli"][:-1] + draw(st.sampled_from("\u00e9\u2603"))
    elif kind == "empty-label":
        t["pauli"] = ""
    elif kind == "long-label":
        t["pauli"] += "X"
    elif kind == "bool-phase":
        t["phase_exp"] = draw(st.booleans())
    elif kind == "float-phase":
        t["phase_exp"] = float(t["phase_exp"])
    elif kind == "no-phase":
        del t["phase_exp"]
    elif kind in ("no-coeff", "no-pauli"):
        del t[kind[3:]]
    elif kind == "extra-key":
        t[draw(st.sampled_from(["blockenc", "note", ""]))] = draw(finite)
    else:
        t = {"coeff": t["coeff"], "blockenc": {"handle": "h", "n": n,
                                               "alpha": 1.0, "anc": 0}}
    return t


@st.composite
def term_lists(draw):
    """(n, terms, regular): a list of regular terms, maybe with one odd term."""
    n = draw(st.integers(1, 3))
    terms = draw(st.lists(regular_terms(n), max_size=5))
    regular = bool(terms) and draw(st.booleans())
    if not regular:
        terms.insert(draw(st.integers(0, len(terms))), draw(odd_terms(n)))
    return n, terms, regular


def read(fn):
    """The terms fn() reads, with each coefficient's repr (which keeps the
    sign of a zero part), or the type and message of what it raises."""
    try:
        s = fn()
    except Exception as exc:  # the two readers must fail alike
        return type(exc), str(exc)
    return s.n, [(type(c), repr(c), p) for c, p in s.terms]


TERM_LISTS = settings(PROPERTY, max_examples=400)


@TERM_LISTS
@given(term_lists())
def test_bulk_reader_matches_per_term_reader(case):
    n, terms, regular = case
    per_term = read(lambda: per_term_sum(n, terms, "Kraus operator 0"))
    doc = {"n": n, "kraus": [terms]}
    assert read(lambda: channel_from_json(doc).kraus[0]) == per_term
    if regular:
        assert _pauli_terms_in_bulk(terms, n) is not None


def read_channel(fn):
    """read() of each operator of the channel fn() reads."""
    try:
        c = fn()
    except Exception as exc:
        return type(exc), str(exc)
    return c.n, [read(lambda k=k: k) for k in c.kraus]


@TERM_LISTS
@given(st.lists(term_lists(), min_size=1, max_size=4))
def test_channel_reader_matches_per_term_reader(cases):
    n = cases[0][0]
    cases = [case for case in cases if case[0] == n]
    kraus = [terms for _, terms, _ in cases]

    def per_term():
        c = ChannelExpr(n, [per_term_sum(n, k, f"Kraus operator {j}")
                            for j, k in enumerate(kraus)])
        typecheck(c)
        return c

    doc = {"n": n, "kraus": kraus}
    assert read_channel(lambda: channel_from_json(doc)) == read_channel(per_term)
    if all(regular for _, _, regular in cases):
        # one bulk read: equal strings of different operators are one object
        strings = [p for k in channel_from_json(doc).kraus for _, p in k.terms]
        assert len(set(map(id, strings))) == len(set(strings))


@TERM_LISTS
@given(term_lists(), st.booleans(), st.data())
def test_dump_matches_stdlib_on_term_lists(case, as_tuple, data):
    _, terms, regular = case
    if regular:
        assert _uniform_items(terms, "\n  ") is not None
    if data.draw(st.booleans()):  # labels the reader would reject
        terms.append(data.draw(regular_terms(2, "IXYZ\u00e9\u2603\"")))
    doc = {"n": 1, "kraus": [tuple(terms) if as_tuple else terms, []]}
    for x in (terms, doc):
        assert _dump(x) == json.dumps(x, sort_keys=True, indent=2) + "\n"


# --- the JSON writer's uniform lists against the stdlib encoder -----------

# each cell kind, with its edge values; exact types, as qchanc emits them
CELLS = {
    "int": st.integers(-2 ** 70, 2 ** 70),
    "float": st.one_of(finite, st.sampled_from([0.0, 0.1, 1 / 3, 1e-7, 1e22])),
    "str": st.text(max_size=4),
}
CELLS["int-pair"] = st.lists(CELLS["int"], min_size=2, max_size=2)
CELLS["float-pair"] = st.lists(CELLS["float"], min_size=2, max_size=2)
# values that break a list's shape, or that the writer must reject
odd_cells = st.one_of(
    st.sampled_from([True, False, None, float("nan"), float("inf"), float("-inf"),
                     [1, 2.0], [2.0, 1], [True, 0], [0.5, float("nan")], (1, 2),
                     [1], [1, 2, 3], [[1, 2], [3, 4]], {}, [{}]]),
    st.sampled_from(list(CELLS.values())).flatmap(lambda c: c))
record_keys = st.text(st.sampled_from("ab%\"\u00e9\u2603 "), max_size=3)


@st.composite
def uniform_lists(draw):
    """(a list of cells or of records, whether it keeps its shape)."""
    regular = draw(st.booleans())
    if draw(st.booleans()):
        kind = draw(st.sampled_from(list(CELLS)))
        o = draw(st.lists(CELLS[kind], min_size=1, max_size=6))
        if not regular:
            o.insert(draw(st.integers(0, len(o))), draw(odd_cells))
        return o, regular
    names = draw(st.lists(record_keys, min_size=1, max_size=4, unique=True))
    columns = {k: CELLS[draw(st.sampled_from(list(CELLS)))] for k in names}
    o = draw(st.lists(st.fixed_dictionaries(columns), min_size=1, max_size=5))
    if not regular:
        i = draw(st.integers(0, len(o) - 1))
        how = draw(st.sampled_from(["cell", "extra-key", "missing-key",
                                    "int-key", "empty", "all-empty", "tuple"]))
        if how == "cell":
            o[i][draw(st.sampled_from(names))] = draw(odd_cells)
        elif how == "extra-key":
            o[i][draw(record_keys.filter(lambda k: k not in names))] = 0
        elif how == "missing-key":
            del o[i][draw(st.sampled_from(names))]
        elif how == "int-key":
            o[i][draw(st.sampled_from([0, 1.5, None]))] = 0
        elif how == "empty":
            o.insert(i, {})
        elif how == "all-empty":  # [{}] or [{}, {}, ...]
            o = [{} for _ in o]
        else:
            o[i] = tuple(o[i].items())
    return o, regular


@TERM_LISTS
@given(uniform_lists(), st.booleans())
def test_dump_matches_stdlib_on_uniform_lists(case, as_tuple):
    o, regular = case
    if regular:
        assert _uniform_items(o, "\n  ") is not None
    doc = {"x": tuple(o) if as_tuple else o, "y": [o, 1]}
    for x in (o, doc):
        if any(type(k) is not str for d in o if type(d) is dict for k in d):
            with pytest.raises(TypeError):  # where the stdlib would write "0"
                _dump(x)
        else:
            assert _dump(x) == json.dumps(x, sort_keys=True, indent=2) + "\n"


def choi(chan):
    """Normalized Choi matrix sum_k vec(K) vec(K)^dag / 2^n."""
    vecs = np.array([eval_kraus(k).ravel() for k in chan.kraus])
    return vecs.T @ vecs.conj() / (1 << chan.n)


def assert_same_channel(a, b):
    m = max(len(a.kraus), len(b.kraus))
    assert np.max(np.abs(choi(a) - choi(b))) <= 1e-9 * (1 + m)


pauli_channels = channels(st.builds(complex, unit, unit), opaque=False)


@PROPERTY
@given(pauli_channels, st.integers(0, 2 ** 32 - 1))
def test_c2_random_unitary_is_sound(chan, seed):
    m = len(chan.kraus)
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]
    assert_same_channel(chan, apply_rule(chan, "C2", {"unitary": u}))


@PROPERTY
@given(pauli_channels, st.data())
def test_c3_proportional_pair_is_sound(chan, data):
    i = data.draw(st.integers(0, len(chan.kraus) - 1))
    r = data.draw(st.builds(complex, unit, unit).filter(lambda c: abs(c) > 1e-3))
    # Kraus i, kept clear of ZERO_TOL, and again scaled by r at a drawn
    # position after it
    kraus = list(chan.kraus)
    kraus[i] = canonical_kraus(kraus[i], 1e-6)
    j = data.draw(st.integers(i + 1, len(chan.kraus)))
    kraus.insert(j, kraus[i].scaled(r))
    pair = ChannelExpr(chan.n, kraus)
    assert_same_channel(pair, apply_rule(pair, "C3", {"indices": [i, j]}))


@PROPERTY
@given(pauli_channels, st.lists(st.builds(complex, unit, unit), min_size=4, max_size=4))
def test_minimize_kraus_rank_is_sound(chan, w):
    # plus one combination of the others, so the rank is below the count
    mix = [(c * a, p) for c, k in zip(w, chan.kraus) for a, p in k.terms]
    chan = ChannelExpr(chan.n, [*chan.kraus, PauliSum(chan.n, mix)])
    out, _ = minimize_kraus_rank(chan)
    assert len(out.kraus) < len(chan.kraus)
    assert_same_channel(chan, out)


@st.composite
def gates(draw, total):
    """One gate of any kind on `total` qubits, under up to all free qubits
    as controls of either polarity."""
    order = draw(st.permutations(range(total)))
    kinds = ["pauli", "state_prep", "state_prep_adj", "opaque"]
    kinds += ["toffoli", "toffoli_unc"] if total >= 3 else []
    kind = draw(st.sampled_from(kinds))
    if kind.startswith("toffoli"):
        cls = ToffoliCompute if kind == "toffoli" else ToffoliUncompute
        c1, c2, target = order[:3]
        body, used = cls(c1, c2, target, draw(st.integers(0, 1)),
                         draw(st.integers(0, 1))), 3
    else:
        used = draw(st.integers(1, min(total, 3 if kind != "pauli" else total)))
        qubits = tuple(order[:used])
        if kind == "pauli":
            mask = st.integers(0, (1 << used) - 1)
            body = PauliGate(PauliString(used, draw(mask), draw(mask),
                                         draw(st.integers(0, 3))), qubits)
        else:
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
            z = rng.normal(size=(1 << used, 1 << used)) + 1j * rng.normal(
                size=(1 << used, 1 << used))
            if kind == "opaque":
                body = OpaqueUnitary("u", qubits, np.linalg.qr(z)[0])
            else:
                cls = StatePrep if kind == "state_prep" else StatePrepAdjoint
                body = cls(qubits, tuple(z[0] / np.linalg.norm(z[0])))
    free = order[used:]
    ctrl = draw(st.integers(0, len(free)))
    if not ctrl:
        return body
    return Controlled(tuple((q, draw(st.integers(0, 1))) for q in free[:ctrl]),
                      body)


@st.composite
def circuits_and_states(draw):
    total = draw(st.integers(1, 6))
    sys_size = draw(st.integers(0, total))
    circ = Circuit((("anc", total - sys_size), ("system", sys_size)),
                   draw(st.lists(gates(total), min_size=1, max_size=8)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (1 << total, draw(st.integers(1, 4)))
    state = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
    return circ, state * (rng.random(shape) < 0.7)  # zero entries too


@settings(PROPERTY, max_examples=200)
@given(circuits_and_states())
def test_apply_circuit_matches_full_state_oracle(case):
    # gate by gate from the oracle's state: monomial gates (Pauli, Toffoli)
    # bit for bit, dense ones to rounding, since BLAS sums a smaller block
    circ, state = case
    for g in circ.gates:
        one = Circuit(circ.registers, [g])
        before = state.copy()
        got = apply_circuit(one, state)
        assert np.array_equal(state, before)  # the input is left unchanged
        want = parent_apply_circuit(one, state)
        body = g.body if isinstance(g, Controlled) else g
        if isinstance(body, (PauliGate, ToffoliCompute, ToffoliUncompute)):
            assert np.array_equal(got, want)
        else:
            assert np.max(np.abs(got - want)) <= 1e-14
        state = want


# --- the circuit.json writer against the dict oracle ----------------------


@st.composite
def written_gates(draw, total):
    """gates(total), with opaque gates also without a matrix and under any
    handle, and state preparations with signed zero parts, held as Python
    or numpy complex numbers."""
    g = draw(gates(total))
    controls, body = (g.controls, g.body) if isinstance(g, Controlled) else ((), g)
    if isinstance(body, OpaqueUnitary):
        body = OpaqueUnitary(draw(st.text(max_size=4)), body.qubits,
                             draw(st.sampled_from([body.matrix, None])))
    elif isinstance(body, (StatePrep, StatePrepAdjoint)):
        amps = np.array(body.amps)
        zero = draw(st.lists(st.booleans(), min_size=2 * len(amps),
                             max_size=2 * len(amps)))
        zero[0] = False  # one nonzero part
        signs = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=2 * len(amps),
                              max_size=2 * len(amps)))
        parts = amps.view(float).copy()
        parts[zero] = np.array(signs)[zero]
        amps = parts.view(complex) / np.linalg.norm(parts)
        amps = tuple(amps.tolist()) if draw(st.booleans()) else tuple(amps)
        body = type(body)(body.qubits, amps)
    return Controlled(controls, body) if controls else body


@st.composite
def written_circuits(draw):
    total = draw(st.integers(1, 5))
    sys_size = draw(st.integers(0, total))
    names = draw(st.lists(st.text(max_size=3), min_size=2, max_size=2, unique=True))
    circ = Circuit(((names[0], total - sys_size), (names[1], sys_size)),
                   draw(st.lists(written_gates(total), max_size=8)))
    return circ, draw(st.one_of(st.none(), st.floats()))


@settings(PROPERTY, max_examples=300)
@given(written_circuits())
def test_circuit_writer_matches_dict_oracle(case):
    # every gate kind, controlled or not, Toffoli polarities, opaque gates
    # with and without a matrix (2 x 2 included), signed zeros, no gates
    circ, alpha = case
    doc = parent_circuit_to_json(circ)
    if alpha is not None:
        doc["alpha_sq_sum"] = alpha
    text = circuit_to_json(circ, alpha)
    assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    back = circuit_from_json(json.loads(text))
    assert back.registers == circ.registers
    assert circuit_to_json(back, alpha) == text


@st.composite
def select_tables(draw):
    """A SelectTable on s = 1..10 address bits over n = 1..12 sites, its
    targets and factors at drawn addresses; the writers read no phase."""
    s, n = draw(st.integers(1, 10)), draw(st.integers(1, 12))
    entries = st.dictionaries(st.integers(0, (1 << s) - 1), pauli_strings(n),
                              max_size=6)
    return SelectTable(s, draw(entries), draw(entries), {})


@st.composite
def audited_records(draw):
    """Records of the kinds the audits list: opaque, trivial (one term) and
    tabled ones, the tables drawn from a pool, so some are shared."""
    pool = draw(st.lists(select_tables(), min_size=1, max_size=3))
    x = PauliString(1, 1, 0)
    records = []
    for kind in draw(st.lists(st.sampled_from(["opaque", "trivial", "table"]),
                              max_size=8)):
        if kind == "opaque":
            ref = BlockEncRef("u", 1, 1.0, 0)
            records.append(KrausEncoding(((1.0, ref),), 1.0, 0, ref=ref))
        elif kind == "trivial":
            records.append(KrausEncoding(((1.0, x),), 1.0, 0, pauli=x))
        else:
            table = draw(st.sampled_from(pool))
            records.append(KrausEncoding(((0.5, x), (0.5j, x)), None, table.s,
                                         table=table))
    return records


json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text()),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)


@settings(PROPERTY, max_examples=200)
@given(st.dictionaries(st.text(alphabet="arsz_%", max_size=14), json_values,
                       max_size=6), audited_records())
def test_report_writer_matches_stdlib(report, records):
    # report keys sort before and after "select_audits" (one may be it)
    want = json.dumps({**report, "select_audits": _select_audits(records)},
                      sort_keys=True, indent=2) + "\n"
    assert report_to_json(report, records) == want
