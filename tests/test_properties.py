"""Property tests: channel JSON round trips and rewrite soundness.

Skipped where hypothesis is not installed; examples are derandomized, so
every run draws the same ones.
"""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qchanc.cli import _dump  # noqa: E402
from qchanc.ir import (  # noqa: E402
    BlockEncRef,
    ChannelExpr,
    channel_from_json,
    channel_to_json,
    eval_kraus,
)
from qchanc.pauli import PauliString, PauliSum  # noqa: E402
from qchanc.rewrite import apply_rule, canonical_kraus, minimize_kraus_rank  # noqa: E402

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
    chan = ChannelExpr(chan.n, chan.kraus + [PauliSum(chan.n, mix)])
    out, _ = minimize_kraus_rank(chan)
    assert len(out.kraus) < len(chan.kraus)
    assert_same_channel(chan, out)
