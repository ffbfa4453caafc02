"""Top-level acceptance suite: one test per shipping criterion.

Each test pins the end-to-end behavior the package promises; module
tests cover the finer-grained contracts.
"""

import json
import time

import numpy as np
import pytest

from qchanc.pauli import PauliString, PauliSum, from_label
from qchanc.ir import (
    ChannelExpr,
    apply_channel,
    channel_distance,
    eval_kraus,
    haar_states,
    lindblad_to_json,
    probe_states,
    trace_distance,
)
from qchanc.rewrite import (
    RuleNotApplicable,
    apply_rule,
    combine_kraus,
    minimize_kraus_rank,
    simplify,
)
from qchanc.lindblad import (
    QuadratureSpec,
    exact_propagator,
    first_order,
    higher_order,
    lindblad_opnorm,
    propagate,
)
from qchanc.bench import gen_decay, gen_hypercube_like, gen_random_pauli, gen_tfim
from qchanc.synth import block_encode, channel_alphas, channel_lcu
from qchanc.select_opt import (
    flatten_select,
    naive_select,
    optimize_pauli_select,
)
from qchanc.circuits import (
    Circuit,
    PauliGate,
    cost_report,
    run_channel,
)
from qchanc.cli import main as cli_main

from helpers import select_cost, simulate_unitary, wrapping

from test_select_opt import (
    best_assignment_cost,
    coeffs_of,
    reconstruct,
    tfim3_terms,
)


# --- 1. rewrite soundness fuzzing -------------------------------------------


def _random_channel(rng):
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 5))
    kraus = []
    for _ in range(m):
        kind = rng.random()
        if kind < 0.15 and kraus:
            base = kraus[int(rng.integers(0, len(kraus)))]
            c = complex(rng.normal(), rng.normal())
            kraus.append(PauliSum(n, [(c * a, p) for a, p in base.terms]))
            continue
        if kind < 0.25:
            kraus.append(PauliSum(n, []))
            continue
        terms = []
        for _ in range(int(rng.integers(1, 5))):
            coeff = complex(rng.normal(), rng.normal())
            p = PauliString(n, int(rng.integers(0, 1 << n)),
                            int(rng.integers(0, 1 << n)))
            terms.append((coeff, p))
        kraus.append(PauliSum(n, terms))
    return ChannelExpr(n, kraus)


def _random_step(rng, chan):
    m = len(chan.kraus)
    # K1 can strip a lone zero operator; nothing left to rewrite after that
    if m == 0:
        return chan
    rule = ["PS1", "PS2", "K2", "C1", "C2", "C2p", "C3p", "K1"][
        int(rng.integers(0, 8))]
    try:
        if rule in ("PS1", "PS2"):
            return apply_rule(chan, rule, {"kraus": int(rng.integers(0, m))})
        if rule == "K2":
            return apply_rule(chan, rule, {"kraus": int(rng.integers(0, m)),
                                           "theta": float(rng.uniform(0, 6.3))})
        if rule == "C1":
            return apply_rule(chan, rule,
                              {"perm": [int(x) for x in rng.permutation(m)]})
        if rule == "C2":
            a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
            q = np.linalg.qr(a)[0]
            return apply_rule(chan, rule, {"unitary": q})
        if rule == "C2p" and m >= 2:
            i, j = (int(x) for x in rng.choice(m, size=2, replace=False))
            phi, psi = rng.uniform(0, 6.3, size=2)
            return apply_rule(chan, rule, {
                "i": i, "j": j,
                "a": np.cos(phi), "b": np.sin(phi) * np.exp(1j * psi)})
        if rule == "C3p" and m >= 2:
            i, j = (int(x) for x in rng.choice(m, size=2, replace=False))
            return apply_rule(chan, rule, {"i": i, "j": j})
        if rule == "K1":
            return apply_rule(chan, rule, {"kraus": int(rng.integers(0, m)),
                                           "tol": 1e-10})
    except RuleNotApplicable:
        return chan
    return chan


def test_criterion_01_rewrite_soundness_fuzz():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for trial in range(200):
        chan = _random_channel(rng)
        work = chan
        for _ in range(int(rng.integers(2, 7))):
            work = _random_step(rng, work)
        dist = channel_distance(chan, work)
        assert dist < 1e-9, (trial, dist)
    assert time.monotonic() - start < 30.0


# --- 2. Kraus-rank minimization ---------------------------------------------


def _gram_rank(chan):
    mats = [eval_kraus(k) for k in chan.kraus]
    g = np.array([[np.trace(a.conj().T @ b) for b in mats] for a in mats])
    if not len(mats):
        return 0
    lam = np.linalg.eigvalsh(g)
    top = float(lam.max()) if lam.size else 0.0
    if top <= 0:
        return 0
    return int(np.sum(lam > 1e-9 * top))


def _redundant_channel(rng):
    n = int(rng.integers(1, 4))
    r = int(rng.integers(1, 4))
    m = r + int(rng.integers(1, 4))
    base = []
    for _ in range(r):
        terms = []
        for _ in range(int(rng.integers(1, 4))):
            coeff = complex(rng.normal(), rng.normal())
            p = PauliString(n, int(rng.integers(0, 1 << n)),
                            int(rng.integers(0, 1 << n)))
            terms.append((coeff, p))
        base.append(PauliSum(n, terms))
    padded = base + [PauliSum(n, []) for _ in range(m - r)]
    q = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]
    mixed = [combine_kraus(n, [(q[i, k], padded[k]) for k in range(m)])
             for i in range(m)]
    return ChannelExpr(n, mixed)


def test_criterion_02_rank_minimization_matches_gram_oracle():
    rng = np.random.default_rng(202)
    for trial in range(50):
        chan = _redundant_channel(rng)
        want = _gram_rank(chan)
        out, _ = minimize_kraus_rank(chan)
        assert len(out.kraus) == want, (trial, len(out.kraus), want)
        assert channel_distance(chan, out, samples=8, seed=3) < 1e-9, trial

    # dephasing example reduces to {I/sqrt2, Z/sqrt2} up to phase
    half_i = (0.5, from_label("I"))
    half_z = (0.5, from_label("Z"))
    dephase = ChannelExpr(1, [
        PauliSum(1, [half_i, half_z]),
        PauliSum(1, [half_i, (-0.5, half_z[1])]),
    ])
    out, _ = minimize_kraus_rank(dephase)
    assert len(out.kraus) == 2
    got = {}
    for k in out.kraus:
        assert len(k.terms) == 1
        c, p = k.terms[0]
        got[p.label()] = abs(c)
    assert got.keys() == {"I", "Z"}
    assert got["I"] == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert got["Z"] == pytest.approx(np.sqrt(0.5), abs=1e-12)


# --- 3. block-encoding correctness ------------------------------------------


def _block_suite():
    suite = []
    for spec, delta in ((gen_decay(1.0, 1.0), 0.01),
                        (gen_tfim(3, 1.0), 0.01),
                        (gen_tfim(4, 1.0), 0.01)):
        suite.extend(first_order(spec, delta).kraus)
    for n in range(1, 5):
        for m in (1, 3, min(16, (1 << (2 * n)) - 1)):
            suite.append(gen_random_pauli(n, m, seed=300 + 10 * n + m))
    return suite


def test_criterion_03_block_encoding_correctness():
    for idx, k in enumerate(_block_suite()):
        want = eval_kraus(k)
        dim = 1 << k.n
        for mode in ("naive", "optimized"):
            circ, alpha = block_encode(k, select_mode=mode)
            block = simulate_unitary(circ)[:dim, :dim]
            err = np.max(np.abs(block - want / alpha))
            assert err <= 1e-10, (idx, mode, err)


# --- 4. channel-LCU correctness ---------------------------------------------


def _check_channel_lcu(chan, mode, flatten, tol=1e-9):
    circ = channel_lcu(chan, select_mode=mode, flatten=flatten)
    alphas = channel_alphas(chan, mode)
    scale = 1.0 / float(np.sum(np.square(alphas)))
    for rho in haar_states(chan.n, 32, seed=21):
        (out,), (prob,) = run_channel(circ, [rho])
        direct = apply_channel(chan, [rho])[0]
        assert np.max(np.abs(out - scale * direct)) <= tol
        assert abs(prob - scale) <= tol


def test_criterion_04_channel_lcu_correctness():
    decay = first_order(gen_decay(1.0, 1.0), 1e-5)
    _check_channel_lcu(decay, "naive", False)
    _check_channel_lcu(decay, "optimized", True)
    tfim = first_order(gen_tfim(3, 1.0), 1e-6)
    _check_channel_lcu(tfim, "naive", False)
    _check_channel_lcu(tfim, "optimized", False)


# --- 5. Technique II reconstruction and optimality --------------------------


def test_criterion_05_select_optimization():
    # exact integer reconstruction on fuzz cases
    rng = np.random.default_rng(505)
    for trial in range(40):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, min(17, 1 << (2 * n))))
        seen, terms = set(), []
        while len(terms) < m:
            x = int(rng.integers(0, 1 << n))
            z = int(rng.integers(0, 1 << n))
            if (x, z) in seen:
                continue
            seen.add((x, z))
            terms.append((complex(rng.normal(), rng.normal()),
                          PauliString(n, x, z)))
        reconstruct(*optimize_pauli_select(terms), coeffs_of(terms))

    # TFIM-3: weighted cost 9, optimal per exhaustive oracle
    terms = tfim3_terms()
    table, _ = optimize_pauli_select(terms)
    assert select_cost(table) == 9
    targets = [(p.x_mask, p.z_mask) for _, p in terms if not p.is_identity()]
    assert best_assignment_cost(targets, table.s, 9) == 9

    # all 16 two-qubit strings: weighted cost 4 = 2n (one-hot generators)
    terms2 = [(1.0 + 0j, from_label(a + b)) for a in "IXYZ" for b in "IXYZ"]
    table2, _ = optimize_pauli_select(terms2)
    assert select_cost(table2) == 4
    targets2 = [(p.x_mask, p.z_mask) for _, p in terms2 if not p.is_identity()]
    assert best_assignment_cost(targets2, table2.s, 4) == 4


# --- 6. Technique I flattening ----------------------------------------------


_BODIES = ["XI", "IZ", "ZX", "YY", "XX", "ZZ", "IY", "YX"]


def _walk_circuits(n_branches):
    s = max(1, (n_branches - 1).bit_length())
    nsys = 2

    def build(registers, select):
        layout = Circuit(registers)
        sysq = layout.reg_qubits("system")
        branches = [(a, wrapping([PauliGate(from_label(_BODIES[a]), sysq)]))
                    for a in range(n_branches)]
        return Circuit(registers, select(branches, layout.reg_qubits))

    naive = build((("sel", s), ("system", nsys)),
                  lambda b, qubits: naive_select(b, qubits("sel")))
    flat = build((("sel", s), ("walk", s + 1), ("system", nsys)),
                 lambda b, qubits: flatten_select(b, qubits("sel"), qubits("walk")))
    return naive, flat, s, nsys


def test_criterion_06_flatten_matches_naive():
    for n_branches in (2, 4, 8):
        naive, flat, s, nsys = _walk_circuits(n_branches)
        u_naive = simulate_unitary(naive)
        u_flat = simulate_unitary(flat)
        da, dw, dy = 1 << s, 1 << (s + 1), 1 << nsys
        w = u_flat.reshape(da, dw, dy, da, dw, dy)
        block = w[:, 0, :, :, 0, :].reshape(da * dy, da * dy)
        assert np.max(np.abs(block - u_naive)) <= 1e-10
        assert cost_report(flat).t_count == 4 * n_branches - 4


# --- 7. first-order error bound ---------------------------------------------


def test_criterion_07_first_order_error_bound():
    start = time.monotonic()
    spec = gen_decay(1.0, 1.0)
    lops = lindblad_opnorm(spec)
    assert lops == pytest.approx(3.0)
    errs = []
    for delta in (0.02, 0.01, 0.005):
        chan = first_order(spec, delta)
        sup = exact_propagator(spec, delta)
        worst = 0.0
        for rho in probe_states(1, 8, seed=7):
            worst = max(worst, trace_distance(apply_channel(chan, [rho])[0],
                                              propagate(sup, rho)))
        assert worst <= 5.0 * (delta * lops) ** 2
        errs.append(worst)
    for big, small in zip(errs, errs[1:]):
        assert big / small >= 2.85
    assert time.monotonic() - start < 60.0


# --- 8. higher-order trend ----------------------------------------------------


def test_criterion_08_higher_order_trend():
    spec = gen_decay(1.0, 1.0)
    delta = 0.1
    sup = exact_propagator(spec, delta)

    def err(order):
        chan = higher_order(spec, delta, QuadratureSpec(order, 6, 3))
        worst = 0.0
        for rho in probe_states(1, 8, seed=7):
            worst = max(worst, trace_distance(apply_channel(chan, [rho])[0],
                                              propagate(sup, rho)))
        return worst

    assert err(2) < err(1)


# --- 9. optimization ordering -------------------------------------------------


def test_criterion_09_optimization_ordering():
    cases = [
        simplify(first_order(gen_tfim(3, 1.0), 0.01)),
        simplify(first_order(gen_tfim(4, 1.0), 0.01)),
        gen_hypercube_like(8, seed=11),
        gen_hypercube_like(12, seed=11),
    ]
    for case_idx, chan in enumerate(cases):
        grid = {}
        for name, flatten, order in (
            ("basic+basic", False, False), ("flat+basic", True, False),
            ("basic+order", False, True), ("flat+order", True, True),
        ):
            mode = "optimized" if order else "naive"
            rep = cost_report(channel_lcu(chan, select_mode=mode,
                                          flatten=flatten))
            grid[name] = (rep.weighted_control_cost, rep.t_count)
        for metric in (0, 1):
            fo = grid["flat+order"][metric]
            mid = min(grid["flat+basic"][metric], grid["basic+order"][metric])
            bb = grid["basic+basic"][metric]
            assert fo < mid < bb, (case_idx, metric, grid)


# --- 10. determinism ----------------------------------------------------------


def test_criterion_10_byte_identical_reports(tmp_path, capsys):
    src = tmp_path / "decay.json"
    src.write_text(json.dumps(lindblad_to_json(gen_decay(1.0, 1.0))))
    outs = []
    for sub in ("a", "b"):
        code = cli_main(["compile", str(src), "--delta", "0.01", "--flatten",
                         "--order", "--minimize-rank",
                         "--out", str(tmp_path / sub)])
        capsys.readouterr()
        assert code == 0
        outs.append(((tmp_path / sub / "report.json").read_bytes(),
                     (tmp_path / sub / "circuit.json").read_bytes()))
    assert outs[0] == outs[1]
