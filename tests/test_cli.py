"""End-to-end tests for the command-line pipeline."""

import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qchanc.pauli import PauliString, PauliSum
from qchanc.ir import (
    ChannelExpr,
    channel_from_json,
    channel_to_json,
    eval_kraus,
    lindblad_to_json,
)
from qchanc.bench import gen_decay, gen_hypercube_like, gen_random_pauli, gen_tfim
from qchanc.lindblad import QuadratureSpec, first_order, higher_order
from qchanc.rewrite import simplify
from qchanc.cli import _dump, _select_audits, compile_pipeline, main, report_to_json


GRAM_OVERFLOW = "the Kraus coefficients overflow: their Gram matrix is not finite"


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def decay_file(tmp_path):
    return write_json(tmp_path / "decay.json",
                      lindblad_to_json(gen_decay(1.0, 1.0)))


def _without(record, key):
    return {k: v for k, v in record.items() if k != key}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def replay_trace(capsys, tmp_path, path, entries):
    """Apply each trace entry with `rewrite --rule --rule-args`, each step
    reading the previous step's output, checking the Kraus count after each;
    returns the last channel document."""
    doc = None
    for i, entry in enumerate(entries):
        out = str(tmp_path / f"step{i}.json")
        code, _, err = run(capsys, "rewrite", path, "--rule", entry["rule"],
                           "--rule-args", json.dumps(entry["args"]),
                           "--out", out)
        assert (code, err) == (0, ""), (i, entry["rule"])
        doc = json.loads(Path(out).read_text())["channel"]
        assert len(doc["kraus"]) == entry["kraus_count_after"]
        path = out
    return doc


class TestCompile:
    def test_writes_outputs(self, tmp_path, decay_file, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run(capsys, "compile", decay_file,
                              "--delta", "0.01", "--out", str(out))
        assert code == 0
        assert (out / "circuit.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["setting"] == "basic+basic"
        assert report["kraus_count"] == 3
        assert report["rewrite_trace"] == []
        assert report["select_audits"] == []
        assert set(report["cost_grid"]) == {
            "basic+basic", "flat+basic", "basic+order", "flat+order"}
        assert report["registers"]["system"] == 1
        total = sum(a * a for a in report["alphas"])
        assert report["alpha_sq_sum"] == pytest.approx(total)
        assert report["success_prob_tp"] == pytest.approx(1 / total)

    def test_byte_identical_reports(self, tmp_path, decay_file, capsys):
        args = ["compile", decay_file, "--delta", "0.01",
                "--flatten", "--order"]
        code1, _, _ = run(capsys, *args, "--out", str(tmp_path / "a"))
        code2, _, _ = run(capsys, *args, "--out", str(tmp_path / "b"))
        assert code1 == code2 == 0
        a = (tmp_path / "a" / "report.json").read_bytes()
        b = (tmp_path / "b" / "report.json").read_bytes()
        assert a == b
        ca = (tmp_path / "a" / "circuit.json").read_bytes()
        cb = (tmp_path / "b" / "circuit.json").read_bytes()
        assert ca == cb

    def test_back_to_back_calls_share_no_state(self, tmp_path, decay_file, capsys):
        # main parses with one parser per process: no flag of a call may
        # reach the next one
        spec = ("compile", decay_file, "--delta", "0.01")
        flags = ("--flatten", "--order", "--minimize-rank", "--cap", "3")
        for out, extra in (("a", ()), ("b", flags), ("c", ())):
            assert run(capsys, *spec, *extra, "--out", str(tmp_path / out))[0] == 0
        plain = (tmp_path / "c" / "report.json").read_bytes()
        assert plain == (tmp_path / "a" / "report.json").read_bytes()
        report = json.loads(plain)
        assert report["setting"] == "basic+basic"
        assert not any(report["options"].values())

    def test_flat_order_beats_basic(self, tmp_path, decay_file, capsys):
        out = tmp_path / "run"
        code, _, _ = run(capsys, "compile", decay_file, "--delta", "0.01",
                         "--flatten", "--order", "--out", str(out))
        assert code == 0
        grid = json.loads((out / "report.json").read_text())["cost_grid"]
        for metric in ("weighted_control_cost", "t_count"):
            assert grid["flat+order"][metric] < grid["basic+basic"][metric]

    def test_tfim3_gtable_audit(self, tmp_path, capsys):
        spec = write_json(tmp_path / "tfim.json",
                          lindblad_to_json(gen_tfim(3, 1.0)))
        out = tmp_path / "run"
        code, _, _ = run(capsys, "compile", spec, "--delta", "0.01",
                         "--order", "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        audit = report["select_audits"][0]
        assert audit["kraus"] == 0 and audit["select_bits"] == 4
        got = {e["address"]: e["g"] for e in audit["g_table"]}
        assert got == {"0001": "ZII", "0010": "IZI", "0100": "IIZ",
                       "1001": "YII", "1010": "IYI", "1100": "IIY"}
        assert report["cost_grid"]["basic+order"]["weighted_control_cost"] > 0

    def test_minimize_rank_traces_rules(self, tmp_path, capsys):
        x = PauliString(1, 1, 0)
        chan = ChannelExpr(1, [PauliSum(1, [(0.6, x)]),
                               PauliSum(1, [(0.3, x)])])
        path = write_json(tmp_path / "red.json", channel_to_json(chan))
        out = tmp_path / "run"
        code, _, _ = run(capsys, "compile", path, "--frontend", "channel",
                         "--minimize-rank", "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["kraus_count"] == 1
        assert any(e["rule"] == "C3" for e in report["rewrite_trace"])

    def test_channel_passthrough_identity(self, tmp_path, capsys):
        ident = ChannelExpr(1, [PauliSum(
            1, [(1.0, PauliString(1, 0, 0))])])
        path = write_json(tmp_path / "id.json", channel_to_json(ident))
        out = tmp_path / "run"
        code, _, _ = run(capsys, "compile", path, "--frontend", "channel",
                         "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["cost"]["t_count"] == 0
        assert report["cost"]["weighted_control_cost"] == 0
        assert report["alpha_sq_sum"] == pytest.approx(1.0)

    def test_spec_needs_delta(self, tmp_path, decay_file, capsys):
        code, _, err = run(capsys, "compile", decay_file,
                           "--out", str(tmp_path / "x"))
        assert code == 2 and "delta" in err

    def test_bad_frontend(self, tmp_path, decay_file, capsys):
        code, _, err = run(capsys, "compile", decay_file, "--frontend",
                           "fancy", "--delta", "0.1",
                           "--out", str(tmp_path / "x"))
        assert code == 2 and "frontend" in err
        code, _, err = run(capsys, "compile", decay_file, "--frontend",
                           "orderfoo", "--delta", "0.1",
                           "--out", str(tmp_path / "y"))
        assert code == 2 and "frontend" in err

    def test_equal_refs_with_different_matrices_rejected(self, tmp_path, capsys):
        # 0.5*I + 0.5*X through two references equal apart from their matrices
        def ref(matrix):
            return {"coeff": [1, 0], "blockenc": {
                "handle": "u", "n": 1, "alpha": 1.0, "anc": 1,
                "matrix": [[[v, 0] for v in row] for row in matrix]}}
        doc = {"n": 1, "kraus": [[ref([[0.5, 0], [0, 0.5]]),
                                  ref([[0, 0.5], [0.5, 0]])]]}
        path = write_json(tmp_path / "c.json", doc)
        code, _, err = run(capsys, "compile", path, "--frontend", "channel",
                           "--out", str(tmp_path / "x"))
        assert code == 2
        assert "block encoding 'u' is given two different matrices" in err

    @pytest.mark.parametrize("doc, message", [
        ({"bogus": 1}, "kraus"),
        ({"n": 1, "kraus": 5}, "failed to parse"),
        (5, "failed to parse"),
        ({"n": 1, "kraus": [[{"coeff": [1], "pauli": "X"}]]},
         "failed to parse"),
        ({"n": 1, "kraus": [[{"coeff": [1, 0], "blockenc": {
            "handle": "h", "n": 1, "alpha": float("nan"), "anc": 1}}]]},
         "failed to parse"),
        ({"n": 1, "kraus": [[{"coeff": [1, 0], "blockenc": {
            "handle": "h", "n": 1, "alpha": 1.0, "anc": 1.5}}]]},
         "failed to parse"),
        ({"n": 1, "kraus": [[{"coeff": [1, 0], "blockenc": {
            "handle": "h", "n": 1, "alpha": 1.0, "anc": True}}]]},
         "failed to parse: Kraus operator 0 term 0: blockenc anc must be an integer, got True"),
        ({"n": 1, "kraus": [[{"coeff": [1, 0], "blockenc": {
            "handle": "h", "n": 1.5, "alpha": 1.0, "anc": 1}}]]},
         "failed to parse: Kraus operator 0 term 0: blockenc n must be an integer, got 1.5"),
        ({"n": 1.5, "kraus": [[{"coeff": [1, 0], "pauli": "X"}]]},
         "failed to parse: n must be an integer, got 1.5"),
        ({"n": True, "kraus": [[{"coeff": [1, 0], "pauli": "X"}]]},
         "failed to parse: n must be an integer, got True"),
        ({"n": "1", "kraus": [[{"coeff": [1, 0], "pauli": "X"}]]},
         "failed to parse: n must be an integer, got '1'"),
        ({"n": 1, "kraus": [[{"coeff": [1, 0], "pauli": "X",
                              "phase_exp": 1.5}]]},
         "failed to parse: Kraus operator 0 term 0: phase_exp must be an integer, got 1.5"),
        ({"n": 1, "kraus": [[{"coeff": [1, 0], "pauli": "X",
                              "phase_exp": "1"}]]},
         "failed to parse: Kraus operator 0 term 0: phase_exp must be an integer, got '1'"),
        ({"n": 1.9, "H": [{"coeff": [1, 0], "pauli": "Z"}], "jumps": []},
         "failed to parse: n must be an integer, got 1.9"),
        ({"n": 1, "kraus": [[{"coeff": [1, 0, 5], "pauli": "X"}]]},
         "failed to parse: Kraus operator 0 term 0: complex numbers are [re, im] pairs, got [1, 0, 5]"),
        ({"n": 1, "kraus": [[{"coeff": [True, 0], "pauli": "X"}]]},
         "failed to parse: Kraus operator 0 term 0: real part must be a number, got True"),
        ({"n": 1, "kraus": [[{"coeff": [1, 0], "blockenc": {
            "handle": "h", "n": 1, "alpha": True, "anc": 1}}]]},
         "failed to parse: Kraus operator 0 term 0: blockenc alpha must be a number, got True"),
        ({"n": 1, "kraus": [[{"coeff": [1, 0], "blockenc": {
            "handle": "h", "n": 1, "alpha": 1.0, "anc": 1,
            "matrix": [[[1, 0], [False, 0]], [[0, 0], [1, 0]]]}}]]},
         "failed to parse: Kraus operator 0 term 0: real part must be a number, got False"),
        ({"n": 1, "kraus": [[{"coeff": [1, 0], "blockenc": {
            "handle": "h", "n": 1, "alpha": 1.0, "anc": 1,
            "matrix": [[[True, 0], [0, 0]], [[0, 0], [1, 0]]]}}]]},
         "failed to parse: Kraus operator 0 term 0: real part must be a number, got True"),
        ({"n": 1, "H": [{"coeff": [1, 0], "blockenc": {
            "handle": "h", "n": 1, "alpha": 1.0, "anc": 0}}], "jumps": []},
         "failed to parse: Hamiltonian term 0 is not a Pauli string"),
        ({"n": 1, "H": [], "jumps": [[{"coeff": [1, 0], "pauli": "X"}], [
            {"coeff": [1, 0], "blockenc": {
                "handle": "h", "n": 1, "alpha": 1.0, "anc": 0}}]]},
         "failed to parse: jump 1 term 0 is not a Pauli string"),
        ({"n": -1, "kraus": []}, "failed to parse: n must be at least 1, got -1"),
        ({"n": 0, "H": [], "jumps": []}, "failed to parse: n must be at least 1, got 0"),
        ({"n": 1, "kraus": [[{"coeff": [1, 0], "blockenc": {
            "handle": 5, "n": 1, "alpha": 1.0, "anc": 0}}]]},
         "failed to parse: Kraus operator 0 term 0: blockenc handle must be a string, got 5"),
        ({"n": 1, "kraus": [[{"coeff": [1, 0], "blockenc": {
            "handle": None, "n": 1, "alpha": 1.0, "anc": 0}}]]},
         "failed to parse: Kraus operator 0 term 0: blockenc handle must be a string, got None"),
        ({"n": 1, "H": {}, "jumps": {}}, "failed to parse: H must be a list, got dict"),
        ({"n": 1, "H": "", "jumps": []}, "failed to parse: H must be a list, got str"),
        ({"n": 1, "H": [], "jumps": {}},
         "failed to parse: jumps must be a list, got dict"),
        ({"n": 1, "H": [], "jumps": [{"terms": []}]},
         "failed to parse: jump 0 must be a list, got dict"),
        ({"n": 1, "H": [], "jumps": [[{"coeff": [1, 0], "pauli": "X"}], "X"]},
         "failed to parse: jump 1 must be a list, got str"),
        ({"n": 1, "kraus": {}}, "failed to parse: kraus must be a list, got dict"),
        ({"n": 1, "kraus": [[{"coeff": [1, 0], "pauli": "X"}], {}]},
         "failed to parse: Kraus operator 1 must be a list, got dict"),
        ({"n": 1, "kraus": [None]},
         "failed to parse: Kraus operator 0 must be a list, got NoneType"),
        ({"n": 1, "kraus": [[5]]},
         "failed to parse: Kraus operator 0 term 0 must be an object, got int"),
        ({"n": 1, "kraus": [[{"coeff": [1, 0], "pauli": "X"}], [[1, 0]]]},
         "failed to parse: Kraus operator 1 term 0 must be an object, got list"),
        ({"n": 1, "kraus": [[{"coeff": [1, 0], "blockenc": 5}]]},
         "failed to parse: Kraus operator 0 term 0: blockenc must be an object, got int"),
        ({"n": 1, "H": [5], "jumps": []},
         "failed to parse: H term 0 must be an object, got int"),
        ({"n": 1, "H": [], "jumps": [[{"coeff": [1, 0], "pauli": "X"}, "X"]]},
         "failed to parse: jump 0 term 1 must be an object, got str"),
        ({"n": 1, "kraus": [[{"pauli": "X"}]]}, "failed to parse: Kraus operator 0 term 0: term has no 'coeff'"),
        ({"n": 1, "kraus": [[{"coeff": [1, 0]}]]},
         "failed to parse: Kraus operator 0 term 0: term has no 'pauli' or 'blockenc'"),
        ({"n": 1, "kraus": [[{"coeff": [1, 0], "blockenc": {
            "handle": "h", "n": 1, "anc": 0}}]]},
         "failed to parse: Kraus operator 0 term 0: blockenc has no 'alpha'"),
        ({"kraus": [[{"coeff": [1, 0], "pauli": "X"}]]},
         "failed to parse: channel has no 'n'"),
        ({"channel": {"n": 1}}, "failed to parse: channel has no 'kraus'"),
        ({"H": [], "jumps": []}, "failed to parse: spec has no 'n'"),
        ({"n": 1, "kraus": [[{"coeff": [1, 0], "pauli": "X"}], [{"pauli": "X"}]]},
         "failed to parse: Kraus operator 1 term 0: term has no 'coeff'"),
        ({"n": 1, "H": [{"coeff": [1, 0], "pauli": "Z"}], "jumps": [[{"pauli": "X"}]]},
         "failed to parse: jump 0 term 0: term has no 'coeff'"),
        ({"n": 1, "kraus": [[{"coeff": 5, "pauli": "X"}]]},
         "failed to parse: Kraus operator 0 term 0: complex numbers are [re, im] pairs, got 5"),
        ({"n": 1, "kraus": [[{"coeff": "ab", "pauli": "X"}]]},
         "failed to parse: Kraus operator 0 term 0: complex numbers are [re, im] pairs, "
         "got 'ab'"),
        ({"n": 1, "H": [], "jumps": [{"matrix": 5}]},
         "failed to parse: jump 0: matrix must be a list, got int"),
        ({"n": 1, "H": [], "jumps": [{"matrix": [[1, 0], [0, 1]]}]},
         "failed to parse: jump 0: complex numbers are [re, im] pairs, got 1"),
        ({"n": 1, "H": [], "jumps": [{"matrix": [[[1, 0], [0, 0]], [[0, 0]]]}]},
         "failed to parse: jump 0: matrix row 1 has 1 entries, not 2"),
        ({"n": 1, "H": [], "jumps": [{"matrix": [[[1, 0], [0, 0]], 7]}]},
         "failed to parse: jump 0: matrix row 1 must be a list, got int"),
        ({"n": 1, "H": [], "jumps": [
            {"matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]},
            {"matrix": [[[0, 0], [1, 0], [0, 0], [0, 0]]] * 4}]},
         "failed to parse: jump 1: dimension does not match the site count"),
        ({"n": 2, "kraus": [[{"coeff": [1, 0], "pauli": "XX"}],
                            [{"coeff": [1, 0], "pauli": "X"}]]},
         "failed to parse: Kraus operator 1: term 0 (PauliString): size 1 != 2"),
        ({"n": 1, "kraus": [[{"coeff": [1, 0], "blockenc": {
            "handle": "h", "n": 1, "alpha": 1.0, "anc": 1, "matrix": {}}}]]},
         "failed to parse: Kraus operator 0 term 0: blockenc matrix must be a list, got dict"),
    ], ids=["no-key", "kraus-not-list", "top-level-number", "short-coeff",
            "blockenc-nan-alpha", "blockenc-fractional-anc", "blockenc-bool-anc",
            "blockenc-fractional-n", "fractional-n", "bool-n", "string-n",
            "fractional-phase-exp", "string-phase-exp", "spec-fractional-n",
            "long-coeff", "bool-coeff", "blockenc-bool-alpha", "blockenc-matrix-false",
            "blockenc-matrix-true", "spec-blockenc-H", "spec-blockenc-jump",
            "negative-n", "spec-zero-n", "blockenc-int-handle",
            "blockenc-null-handle", "spec-H-dict", "spec-H-str", "spec-jumps-dict",
            "spec-jump-dict", "spec-jump-str", "kraus-dict", "kraus-operator-dict",
            "kraus-operator-null", "kraus-term-int", "kraus-term-list",
            "blockenc-int", "spec-H-term-int", "spec-jump-term-str",
            "term-no-coeff", "term-no-primitive", "blockenc-no-alpha",
            "channel-no-n", "rewrite-channel-no-kraus", "spec-no-n",
            "second-kraus-term-no-coeff", "jump-term-no-coeff", "int-coeff",
            "string-coeff", "dense-jump-int", "dense-jump-int-entries",
            "dense-jump-ragged", "dense-jump-int-row", "second-dense-jump-wrong-size",
            "second-kraus-wrong-size", "blockenc-matrix-dict"])
    def test_bad_input_file(self, tmp_path, capsys, doc, message):
        # with --delta, so that a spec read leniently would compile
        bad = write_json(tmp_path / "bad.json", doc)
        code, _, err = run(capsys, "compile", bad, "--delta", "0.01", "--out",
                           str(tmp_path / "x"))
        assert code == 2 and message in err
        assert "Traceback" not in err

    def test_nan_coefficient_named(self, tmp_path, capsys):
        bad = tmp_path / "nan.json"
        bad.write_text('{"n": 1, "kraus": [[{"coeff": [NaN, 0], '
                       '"pauli": "X"}]]}')
        code, _, err = run(capsys, "compile", str(bad), "--frontend",
                           "channel", "--out", str(tmp_path / "x"))
        assert code == 2 and "failed to parse" in err and "nan" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_delta_rejected(self, tmp_path, decay_file, capsys,
                                       value):
        with pytest.raises(SystemExit) as exc:
            main(["compile", decay_file, "--delta", value,
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert f"got '{value}'" in capsys.readouterr().err

    # a numpy overflow warning would fail these tests (pytest makes it an error)
    @pytest.mark.parametrize("frontend, delta, message", [
        ("order:2,2,2", "1e308",
         "lowering failed: delta = 1e+308 overflows the order-2 expansion"),
        ("first", "1e308", "compilation failed at --delta 1e+308: "
                           "the coefficients' l1 norm overflows"),
        ("first", "1e200", "compilation failed at --delta 1e+200: "
                           "the sum of the squared alphas overflows"),
    ], ids=["order-lowering", "first-l1-norm", "first-alpha-squares"])
    def test_huge_delta_named(self, tmp_path, capsys, frontend, delta, message):
        path = write_json(tmp_path / "tfim3.json",
                          lindblad_to_json(gen_tfim(3, 1.0)))
        code, stdout, err = run(capsys, "compile", path, "--frontend", frontend,
                                "--delta", delta, "--out", str(tmp_path / "x"))
        assert (code, stdout, err) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "x").exists()

    def test_huge_channel_alphas_rejected(self, tmp_path, capsys):
        big = {"coeff": [1e200, 0], "pauli": "X"}
        path = write_json(tmp_path / "big.json", {"n": 1, "kraus": [[big], [big]]})
        code, _, err = run(capsys, "compile", path, "--frontend", "channel",
                           "--out", str(tmp_path / "x"))
        assert code == 2
        assert err == "error: compilation failed: the sum of the squared alphas overflows\n"

    @pytest.mark.parametrize("delta", ["1e200", "1e308"])
    def test_huge_delta_rank_minimization_named(self, tmp_path, capsys, delta):
        path = write_json(tmp_path / "tfim3.json",
                          lindblad_to_json(gen_tfim(3, 1.0)))
        code, stdout, err = run(capsys, "compile", path, "--frontend", "first",
                                "--delta", delta, "--minimize-rank",
                                "--out", str(tmp_path / "x"))
        assert (code, stdout) == (2, "")
        assert err == (f"error: compilation failed at --delta {float(delta):g}: "
                       f"{GRAM_OVERFLOW}\n")

    @pytest.mark.parametrize("big", [
        {"coeff": [1e308, 1e308], "pauli": "X"},
        {"coeff": [0, 1e200], "blockenc": {
            "handle": "h", "n": 1, "alpha": 1e200, "anc": 0}},
    ], ids=["pauli", "blockenc"])
    def test_huge_lone_term_alpha_rejected(self, tmp_path, capsys, big):
        # simplify strips the phase through numpy, which leaves one real
        # alpha near 1.4e308, or one whose product with alpha overflows
        path = write_json(tmp_path / "big.json", {"n": 1, "kraus": [[big], [big]]})
        code, _, err = run(capsys, "compile", path, "--frontend", "channel",
                           "--out", str(tmp_path / "x"))
        assert code == 2
        assert err == "error: compilation failed: the sum of the squared alphas overflows\n"

    def test_huge_integer_coefficient_rejected(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text('{"n": 1, "kraus": [[{"coeff": [1' + "0" * 400
                        + ', 0], "pauli": "X"}]]}')
        code, _, err = run(capsys, "compile", str(path), "--frontend", "channel",
                           "--out", str(tmp_path / "x"))
        assert code == 2
        assert err == (f"error: {path} failed to parse: Kraus operator 0 term 0: "
                       "int too large to convert to float\n")

    def test_cap_lasts_one_command(self, tmp_path, capsys, monkeypatch):
        # main sets --cap for one command and resets it after: neither a
        # library call nor the next command in the process may inherit it
        monkeypatch.delenv("QCHANC_CAP", raising=False)
        spec = gen_tfim(3, 1.0)
        path = write_json(tmp_path / "tfim3.json", lindblad_to_json(spec))
        argv = ("compile", path, "--frontend", "order:2,2,2", "--delta", "0.01")
        assert run(capsys, *argv, "--cap", "2", "--out", str(tmp_path / "a"))[0] == 2
        assert higher_order(spec, 0.01, QuadratureSpec(2, 2, 2)).kraus
        assert run(capsys, *argv, "--out", str(tmp_path / "b"))[0] == 0

    def test_cap_below_need_named(self, tmp_path, capsys):
        path = write_json(tmp_path / "tfim3.json",
                          lindblad_to_json(gen_tfim(3, 1.0)))
        code, _, err = run(capsys, "compile", path, "--frontend", "order:2,2,2",
                           "--delta", "0.01", "--cap", "2",
                           "--out", str(tmp_path / "x"))
        assert (code, err) == (2, "error: lowering failed: drift generator "
                                  "needs 3 qubits, above the cap of 2\n")

    @pytest.mark.parametrize("value", ["0", "-5", "1.5"])
    def test_cap_must_be_positive(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["compile", "in.json", "--out", "x", "--cap", value])
        assert exc.value.code == 2
        assert (f"argument --cap: expected a positive integer, got '{value}'"
                in capsys.readouterr().err)

    def test_compile_never_typechecks(self, tmp_path, capsys, monkeypatch):
        # a channel checks itself when built, so no stage checks it again
        import qchanc.ir as ir
        import qchanc.synth as synth

        calls = []

        def spy(expr):
            calls.append(type(expr).__name__)
            return real(expr)

        real = ir.typecheck
        for name, mod in list(sys.modules.items()):
            if name.startswith("qchanc.") and getattr(mod, "typecheck", None) is real:
                monkeypatch.setattr(mod, "typecheck", spy)
        path = write_json(tmp_path / "tfim3.json", lindblad_to_json(gen_tfim(3, 1.0)))
        code, _, err = run(capsys, "compile", path, "--frontend", "order:2,2,2",
                           "--delta", "0.01", "--flatten", "--order",
                           "--out", str(tmp_path / "x"))
        assert (code, err, calls) == (0, "", [])
        # the spy is wired: a lone term list is still checked
        synth.block_encode(PauliSum(1, [(1.0, PauliString(1, 1, 0))]))
        assert calls == ["PauliSum"]

    def test_each_kraus_encoded_once(self, tmp_path, capsys, monkeypatch):
        import qchanc.cli as cli
        import qchanc.synth as synth

        calls = {"optimize": 0, "cost": 0}

        def counting(fn, key):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(synth, "optimize_pauli_select", counting(
            synth.optimize_pauli_select, "optimize"))
        monkeypatch.setattr(cli, "cost_report",
                            counting(cli.cost_report, "cost"))
        spec = write_json(tmp_path / "tfim.json",
                          lindblad_to_json(gen_tfim(3, 1.0)))
        out = tmp_path / "run"
        code, _, _ = run(capsys, "compile", spec, "--delta", "0.01",
                         "--flatten", "--order", "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert 0 < calls["optimize"] <= report["kraus_count"]
        assert calls["cost"] == 0  # every grid cell is priced from the records
        assert report["cost"] == report["cost_grid"][report["setting"]]

    def test_cost_only_tables_form_no_prepare(self, monkeypatch):
        # without --order the optimized records only price the grid: their
        # tables come from select_opt.select_table, and no PREPARE vector
        # (optimize_pauli_select) is formed; the grid is the --order one
        import qchanc.synth as synth

        calls = []
        real = synth.optimize_pauli_select
        monkeypatch.setattr(synth, "optimize_pauli_select",
                            lambda *args: calls.append(args) or real(*args))
        grids = {}
        for order in (False, True):
            calls.clear()
            _, report, _ = compile_pipeline(gen_tfim(3, 1.0), "order:2,2,2", 0.01,
                                            True, order, False)
            grids[order] = report["cost_grid"]
            assert bool(calls) == order
        assert grids[False] == grids[True]

    def test_record_shapes_listed_once_per_mode(self, tmp_path, capsys,
                                                monkeypatch):
        # the basic and flattened cells of a select mode share one listing
        import qchanc.synth as synth

        listed = []
        shapes = synth._record_shapes
        monkeypatch.setattr(synth, "_record_shapes",
                            lambda enc: listed.append(enc) or shapes(enc))
        spec = write_json(tmp_path / "tfim.json",
                          lindblad_to_json(gen_tfim(3, 1.0)))
        out = tmp_path / "run"
        code, _, _ = run(capsys, "compile", spec, "--frontend", "order:2,2,2",
                         "--delta", "0.01", "--flatten", "--order",
                         "--out", str(out))
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert len(listed) == 2 * report["kraus_count"]
        assert len({id(enc) for enc in listed}) == len(listed)

    def test_each_gate_checked_once(self, tmp_path, capsys, monkeypatch):
        import qchanc.circuits as circuits
        import qchanc.cli as cli

        gate_classes = (circuits.PauliGate, circuits.Controlled,
                        circuits.StatePrep, circuits.StatePrepAdjoint,
                        circuits.ToffoliCompute, circuits.ToffoliUncompute,
                        circuits.OpaqueUnitary)
        assert not any("__post_init__" in vars(cls) for cls in gate_classes)
        checks, built = [], []
        check = circuits._check
        lcu = cli.channel_lcu

        def spy_check(gate, total):
            checks.append(gate)
            return check(gate, total)

        def spy_lcu(*args, **kwargs):
            built.append(lcu(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(circuits, "_check", spy_check)
        monkeypatch.setattr(cli, "channel_lcu", spy_lcu)
        spec = write_json(tmp_path / "tfim.json",
                          lindblad_to_json(gen_tfim(3, 1.0)))
        code, _, _ = run(capsys, "compile", spec, "--delta", "0.01",
                         "--flatten", "--order", "--out", str(tmp_path / "run"))
        assert code == 0
        # the emitted circuit is the only circuit the compile builds
        assert len(built) == 1
        assert len(checks) == len(built[0].gates) > 0


def stdlib_dump(data):
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("argv, message", [
    (["compile", "--frontend", "order:30,1,1", "--delta", "0.01", "--out", "x"],
     "lowering failed: the order-30 expansion would form 2.15e+09 Kraus operators, "
     "more than 65536"),
    (["error-sweep", "--orders", "12", "--delta", "0.01"],
     "the order-12 expansion would form 2.24e+07 Kraus operators, more than 65536"),
    (["compile", "--frontend", "order:1,100000000,1", "--delta", "0.01", "--out", "x"],
     "bad quadrature orders: drift_taylor_order must be at most 64, got 100000000"),
], ids=["compile", "error-sweep", "drift-taylor-order"])
def test_unbounded_expansion_exits_2(tmp_path, argv, message):
    # each ran for minutes before the operator count and the drift Taylor
    # order were bounded
    path = write_json(tmp_path / "tfim2.json", lindblad_to_json(gen_tfim(2, 1.0)))
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "qchanc.cli", argv[0], path, *argv[1:]],
        env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path, capture_output=True,
        text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert message in proc.stderr and "Traceback" not in proc.stderr


def test_cli_import_leaves_scipy_out():
    # scipy backs only the tests' dense oracle, exact_propagator
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qchanc.cli; sys.exit('scipy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0


class TestDump:
    def test_matches_stdlib_on_outputs(self, tmp_path, capsys, monkeypatch):
        import qchanc.cli as cli

        dumped = []
        dump = cli._dump

        def spy(data):
            dumped.append(data)
            return dump(data)

        monkeypatch.setattr(cli, "_dump", spy)
        tfim = write_json(tmp_path / "tfim.json", lindblad_to_json(gen_tfim(3, 1.0)))
        decay = write_json(tmp_path / "decay.json", lindblad_to_json(gen_decay(1.0, 1.0)))
        hc = write_json(tmp_path / "hc.json", channel_to_json(gen_hypercube_like(8, 1)))
        opt = ["--flatten", "--order", "--minimize-rank"]
        runs = [
            ["compile", tfim, "--delta", "0.01", "--out", str(tmp_path / "a")],
            ["compile", tfim, "--delta", "0.01", *opt, "--out", str(tmp_path / "b")],
            ["compile", tfim, "--frontend", "order:2,2,2", "--delta", "0.01",
             "--flatten", "--order", "--out", str(tmp_path / "c")],
            ["compile", hc, "--frontend", "channel", *opt, "--out", str(tmp_path / "d")],
            ["compile", decay, "--delta", "0.01", "--out", str(tmp_path / "v")],
            ["rewrite", hc, "--minimize-rank"],
            ["rewrite", hc, "--rule", "K2", "--rule-args", '{"kraus": 1, "theta": 0.5}'],
            ["bench", "rndpauli", "--seed", "3", "--out", str(tmp_path / "e")],
            ["bench", "decay", "--out", str(tmp_path / "e")],
            ["verify", str(tmp_path / "v" / "circuit.json"), "--reference", decay,
             "--delta", "0.01"],
        ]
        for argv in runs:
            assert run(capsys, *argv)[0] == 0
        # one document per run but compile, whose circuit.json is written by
        # circuits.circuit_to_json and report.json by cli.report_to_json:
        # those files are compared below
        assert len(dumped) == 5
        for data in dumped:
            assert dump(data) == stdlib_dump(data)
        # every file a compile wrote is the stdlib encoder's bytes
        for name in "abcdv":
            for f in ("circuit.json", "report.json"):
                text = (tmp_path / name / f).read_text()
                assert text == stdlib_dump(json.loads(text))

    def test_matches_stdlib_on_edge_values(self):
        data = {
            "floats": [float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
                       5e-324, 1e300, 0.1, 1 / 3],
            "ints": [0, -1, 2 ** 70, -(2 ** 70)],
            "strings": ["", "caf\u00e9", "\u2603\U0001f600", '"', "\\",
                        "\x00\x1f\n\t\r\x7f", "a/b"],
            "empty": [[], {}, (), [[]], [{}], {"x": {}}, {"y": []}],
            "tuples": (1, (2, (3,)), ("a", None)),
            "literals": [True, False, None],
            "": "empty key",
            "\u00e9": {"b": 1, "a": [2, {"d": 3, "c": 4}]},
        }
        assert _dump(data) == stdlib_dump(data)
        for value in [[], {}, "x", 1, 1.5, None, True, float("nan"), ()]:
            assert _dump(value) == stdlib_dump(value)

    @pytest.mark.parametrize("value", [1j, np.int64(3), np.float64(0.5), {1: "a"},
                                       {"a": 1, 2: 3}, [{(1,): 2}], {1, 2}],
                             ids=["complex", "int64", "float64", "int-key",
                                  "mixed-keys", "tuple-key", "set"])
    def test_rejects_other_types(self, value):
        with pytest.raises(TypeError):
            _dump(value)


FLAGS = list(itertools.product((False, True), repeat=3))  # flatten, order, minimize_rank


class TestReportWriter:
    """report_to_json against the stdlib encoder of the report dict with
    its select_audits built by _select_audits."""

    @staticmethod
    def audits(obj, frontend, delta, flags):
        _, report, audited = compile_pipeline(obj, frontend, delta, *flags)
        want = stdlib_dump({**report, "select_audits": _select_audits(audited)})
        assert report_to_json(report, audited) == want
        return json.loads(want)["select_audits"]

    @pytest.mark.parametrize("flags", FLAGS, ids=lambda f: "-".join(map(str, f)))
    @pytest.mark.parametrize("sites, frontend", [(2, "order:3,3,2"), (3, "order:2,2,2")],
                             ids=["tfim2-o332", "tfim3-o222"])
    def test_matches_stdlib_on_tfim(self, sites, frontend, flags):
        audits = self.audits(gen_tfim(sites, 1.0), frontend, 0.01, flags)
        assert bool(audits) == flags[1]

    @pytest.mark.parametrize("flags", [f for f in FLAGS if not f[2]],
                             ids=lambda f: "-".join(map(str, f[:2])))
    def test_opaque_and_trivial_entries(self, flags):
        from qchanc.ir import BlockEncRef

        z = np.diag([1.0, -1.0]).astype(complex)
        x, y = PauliString(1, 1, 0), PauliString(1, 1, 1)
        chan = ChannelExpr(1, [
            PauliSum(1, [(0.5, BlockEncRef("u", 1, 1.0, 1, z))]),
            PauliSum(1, [(0.4, x)]),
            PauliSum(1, [(0.3j, y)]),
            PauliSum(1, [(0.2, PauliString(1, 0, 0)), (0.1j, y)]),
            PauliSum(1, [(0.2, x), (0.1, PauliString(1, 0, 1))]),
        ])
        audits = self.audits(chan, "channel", None, flags)
        if flags[1]:
            assert [sorted(a) for a in audits] == [
                ["kraus", "opaque"], ["kraus", "trivial"], ["kraus", "trivial"],
                ["g_table", "kraus", "mode_table", "select_bits"],
                ["g_table", "kraus", "mode_table", "select_bits"]]

    def test_shared_tables_written_once_per_table(self):
        # tfim2 order:3,3,2: 85 operators over 15 SelectTables
        _, report, audited = compile_pipeline(gen_tfim(2, 1.0), "order:3,3,2", 0.01,
                                              True, True, False)
        assert len(audited) == 85 and len({id(e.table) for e in audited}) == 15
        assert report_to_json(report, audited) == stdlib_dump(
            {**report, "select_audits": _select_audits(audited)})
        assert report_to_json(report, []) == stdlib_dump({**report, "select_audits": []})


class TestVerify:
    def compile_decay(self, tmp_path, decay_file, capsys, *extra):
        out = tmp_path / "run"
        code, _, _ = run(capsys, "compile", decay_file, "--delta", "0.01",
                         *extra, "--out", str(out))
        assert code == 0
        return str(out / "circuit.json")

    def test_internal_consistency(self, tmp_path, decay_file, capsys):
        circ = self.compile_decay(tmp_path, decay_file, capsys,
                                  "--flatten", "--order")
        lowered = write_json(tmp_path / "lowered.json",
                             channel_to_json(first_order(gen_decay(1, 1), 0.01)))
        code, stdout, _ = run(capsys, "verify", circ,
                              "--reference", lowered)
        assert code == 0
        stats = json.loads(stdout)
        assert stats["max_trace_distance"] < 1e-9
        assert "bound" not in stats

    def test_against_exact_propagator(self, tmp_path, decay_file, capsys):
        circ = self.compile_decay(tmp_path, decay_file, capsys)
        code, stdout, _ = run(capsys, "verify", circ, "--reference",
                              decay_file, "--delta", "0.01")
        assert code == 0
        stats = json.loads(stdout)
        assert stats["bound"] == pytest.approx(5 * (0.01 * 3) ** 2)
        assert stats["max_trace_distance"] <= stats["bound"]
        assert 0 < stats["success_prob"]["min"] <= 1

    def test_cap_overrides_env(self, tmp_path, decay_file, capsys, monkeypatch):
        circ = self.compile_decay(tmp_path, decay_file, capsys)
        monkeypatch.setenv("QCHANC_CAP", "3")
        argv = ("verify", circ, "--reference", decay_file, "--delta", "0.01")
        code, _, err = run(capsys, *argv)
        assert code == 2 and "above the cap of 3" in err
        code, stdout, _ = run(capsys, *argv, "--cap", "14")
        assert code == 0
        assert json.loads(stdout)["max_trace_distance"] < 1e-3

    def test_identity_roundtrip(self, tmp_path, capsys):
        ident = ChannelExpr(1, [PauliSum(
            1, [(1.0, PauliString(1, 0, 0))])])
        path = write_json(tmp_path / "id.json", channel_to_json(ident))
        out = tmp_path / "run"
        run(capsys, "compile", path, "--frontend", "channel",
            "--out", str(out))
        code, stdout, _ = run(capsys, "verify", str(out / "circuit.json"),
                              "--reference", path)
        stats = json.loads(stdout)
        assert code == 0
        assert stats["max_trace_distance"] <= 1e-12
        assert stats["success_prob"]["min"] == pytest.approx(1.0)

    def test_non_finite_delta_rejected(self, tmp_path, decay_file, capsys):
        circuit = self.compile_decay(tmp_path, decay_file, capsys)
        with pytest.raises(SystemExit) as exc:
            main(["verify", circuit, "--reference", decay_file,
                  "--delta", "nan"])
        assert exc.value.code == 2
        assert "got 'nan'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-0.01", "0", "-0"])
    def test_non_positive_delta_rejected(self, tmp_path, decay_file, capsys,
                                         value):
        circuit = self.compile_decay(tmp_path, decay_file, capsys)
        code, stdout, err = run(capsys, "verify", circuit, "--reference",
                                decay_file, "--delta", value)
        assert code == 2 and stdout == ""
        assert "--delta must be positive" in err

    def test_channel_reference_ignores_delta(self, tmp_path, decay_file,
                                             capsys):
        circuit = self.compile_decay(tmp_path, decay_file, capsys)
        lowered = write_json(tmp_path / "lowered.json",
                             channel_to_json(first_order(gen_decay(1, 1), 0.01)))
        code, _, _ = run(capsys, "verify", circuit, "--reference", lowered,
                         "--delta", "-0.01")
        assert code == 0

    def test_huge_delta_hits_step_limit(self, tmp_path, decay_file, capsys):
        circuit = self.compile_decay(tmp_path, decay_file, capsys)
        code, stdout, err = run(capsys, "verify", circuit, "--reference",
                                decay_file, "--delta", "1e308")
        assert code == 2 and stdout == ""
        assert "t = 1e+308" in err and "norm bound" in err

    @pytest.mark.parametrize("value", ["-3", "x"])
    def test_bad_sample_count_rejected(self, tmp_path, decay_file, capsys,
                                       value):
        circuit = self.compile_decay(tmp_path, decay_file, capsys)
        with pytest.raises(SystemExit) as exc:
            main(["verify", circuit, "--reference", decay_file,
                  "--delta", "0.01", "--samples", value])
        assert exc.value.code == 2
        assert f"got '{value}'" in capsys.readouterr().err

    def test_zero_samples_uses_basis_states(self, tmp_path, decay_file,
                                            capsys):
        circuit = self.compile_decay(tmp_path, decay_file, capsys)
        code, stdout, _ = run(capsys, "verify", circuit, "--reference",
                              decay_file, "--delta", "0.01", "--samples", "0")
        assert code == 0
        assert json.loads(stdout)["samples"] == 2

    @pytest.mark.parametrize("register",
                             ["system", "be_anc", "kraus_sel", "flat_anc"])
    def test_missing_register_named(self, tmp_path, decay_file, capsys,
                                    register):
        doc = json.loads(Path(self.compile_decay(tmp_path, decay_file,
                                                 capsys)).read_text())
        for reg in doc["registers"]:
            if reg["name"] == register:
                reg["name"] = "renamed"
        circuit = write_json(tmp_path / "renamed.json", doc)
        code, _, err = run(capsys, "verify", circuit, "--reference",
                           decay_file, "--delta", "0.01")
        assert code == 2
        assert f"no '{register}' register" in err

    @pytest.mark.parametrize("command, field, value", [
        ("verify", "alpha_sq_sum", float("nan")),
        ("verify", "alpha_sq_sum", "abc"),
        ("verify", "alpha_sq_sum", None),
        ("verify", "alpha_sq_sum", -1.0),
        ("verify", "alpha_sq_sum", [1]),
        ("verify", "alpha_sq_sum", True),
        ("verify", "amps", float("nan")),
        ("cost", "amps", float("nan")),
        ("verify", "amps", True),
        ("cost", "amps", True),
        pytest.param("verify", "alpha_sq_sum", 10 ** 400, id="verify-alpha_sq_sum-huge-int"),
        pytest.param("verify", "amps", 10 ** 400, id="verify-amps-huge-int"),
        pytest.param("cost", "amps", 10 ** 400, id="cost-amps-huge-int"),
    ])
    def test_bad_circuit_number_rejected(self, tmp_path, decay_file, capsys,
                                         command, field, value):
        doc = json.loads(Path(self.compile_decay(tmp_path, decay_file,
                                                 capsys)).read_text())
        if field == "amps":
            prep = next(g for g in doc["gates"] if g["kind"] == "state_prep")
            prep["amps"][0][0] = value
        else:
            doc[field] = value
        circuit = write_json(tmp_path / "bad.json", doc)
        argv = [command, circuit]
        if command == "verify":
            argv += ["--reference", decay_file, "--delta", "0.01"]
        code, _, err = run(capsys, *argv)
        assert code == 2 and "cannot load circuit" in err

    @pytest.mark.parametrize("amps, shown", [
        ([[True, 0], [0, 0]], "real part must be a number, got True"),
        ([[0, 0], [1, False]], "imaginary part must be a number, got False"),
        ([[1.0, 0], [None, 0]], "real part must be a number, got None"),
        ([[1, 0, 7], [0, 0]], "[re, im] pairs, got [1, 0, 7]")])
    def test_malformed_amplitude_rejected(self, tmp_path, capsys, amps, shown):
        # each is a unit vector if read leniently
        doc = {"registers": [{"name": "system", "size": 1}],
               "gates": [{"kind": "state_prep", "qubits": [0], "amps": amps}]}
        code, _, err = run(capsys, "cost", write_json(tmp_path / "c.json", doc))
        assert code == 2 and "cannot load circuit" in err and shown in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["verify", "cost"])
    @pytest.mark.parametrize("kind, key, edit, shown", [
        ("pauli", "qubits", lambda qs: [qs[0] + 0.7, *qs[1:]], ".7"),
        ("toffoli", "target", lambda t: 2.5, "2.5"),
        ("controlled", "controls", lambda cs: [[cs[0][0], 1.9], *cs[1:]], "1.9"),
        ("controlled", "controls", lambda cs: [[cs[0][0], True], *cs[1:]], "True"),
        ("pauli", "qubits", lambda qs: ["0", *qs[1:]], "'0'"),
        ("controlled", "controls", lambda cs: {}, "controls must be a list, got dict"),
        ("pauli", "qubits", lambda qs: {}, "qubits must be a list, got dict"),
        ("state_prep", "amps", lambda a: {}, "amps must be a list, got dict"),
        (None, "gates", lambda gs: "", "gates must be a list, got str"),
        (None, "registers", lambda rs: {}, "registers must be a list, got dict"),
        (None, "gates", lambda gs: [*gs[:2], 5, *gs[2:]], "gate 2 must be an object, got int"),
        ("controlled", "body", lambda b: 5, "gate body must be an object, got int"),
        (None, "registers", lambda rs: [rs[0], 5, *rs[2:]],
         "register 1 must be an object, got int"),
        (None, "registers", lambda rs: [{"name": rs[0]["name"]}, *rs[1:]],
         "register size must be an integer, got None"),
        (None, "registers", lambda rs: [{"size": rs[0]["size"]}, *rs[1:]],
         "register name must be a string, got None"),
        (None, "gates", lambda gs: [_without(gs[0], "kind"), *gs[1:]],
         "gate 0 has no 'kind'"),
        (None, "gates", lambda gs: [_without(g, "qubits") if g["kind"] == "pauli" else g
                                    for g in gs],
         "pauli gate has no 'qubits'"),
        ("controlled", "body", lambda b: _without(b, "kind"), "gate body has no 'kind'"),
        ("controlled", "controls", lambda cs: [5, *cs[1:]],
         "a control must be a [qubit, polarity] pair, got 5"),
        ("controlled", "controls", lambda cs: [[*cs[0], 1], *cs[1:]],
         "a control must be a [qubit, polarity] pair, got ["),
    ], ids=["pauli-qubit-plus-0.7", "toffoli-target-2.5", "polarity-1.9",
            "polarity-true", "qubit-string", "controls-dict", "qubits-dict",
            "amps-dict", "gates-string", "registers-dict", "gate-int", "body-int",
            "register-int", "register-no-size", "register-no-name", "gate-no-kind",
            "pauli-no-qubits", "body-no-kind", "control-int", "control-triple"])
    def test_bad_gate_field_rejected(self, tmp_path, decay_file, capsys,
                                     command, kind, key, edit, shown):
        # kind None edits a field of the circuit itself
        doc = json.loads(Path(self.compile_decay(
            tmp_path, decay_file, capsys, "--flatten", "--order")).read_text())
        before = json.loads(json.dumps(doc["gates"]))
        gate = doc if kind is None else next(g for g in doc["gates"] if g["kind"] == kind)
        gate[key] = edit(gate[key])
        circuit = write_json(tmp_path / "bad.json", doc)
        argv = [command, circuit]
        if command == "verify":
            argv += ["--reference", decay_file, "--delta", "0.01"]
        code, _, err = run(capsys, *argv)
        assert code == 2 and "cannot load circuit" in err and shown in err
        assert "Traceback" not in err
        # the first edited gate is the bad one, named once by its index
        # (compared as JSON text, since True == 1)
        after = doc["gates"]
        edited = ([i for i, (a, b) in enumerate(zip(before, after))
                   if json.dumps(a) != json.dumps(b)] if type(after) is list else [])
        assert re.findall(r"gate (\d+)", err) == [str(i) for i in edited[:1]]

    @pytest.mark.parametrize("command", ["verify", "cost"])
    @pytest.mark.parametrize("doc, shown", [
        ([], "circuit must be an object, got list"),
        ({"registers": [{"name": "system", "size": 1}]}, "circuit has no 'gates'"),
    ], ids=["list", "no-gates"])
    def test_circuit_document_must_be_object(self, tmp_path, decay_file, capsys,
                                             command, doc, shown):
        argv = [command, write_json(tmp_path / "bad.json", doc)]
        if command == "verify":
            argv += ["--reference", decay_file, "--delta", "0.01"]
        code, _, err = run(capsys, *argv)
        assert code == 2 and "cannot load circuit" in err and shown in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["verify", "cost"])
    @pytest.mark.parametrize("handle", ["u", 5, None])
    def test_opaque_handle_must_be_string(self, tmp_path, decay_file, capsys,
                                          command, handle):
        # an identity opaque gate on the system qubit, loadable with handle "u"
        doc = json.loads(Path(self.compile_decay(tmp_path, decay_file,
                                                 capsys)).read_text())
        total = sum(reg["size"] for reg in doc["registers"])
        doc["gates"].append({"kind": "opaque", "handle": handle,
                             "qubits": [total - 1],
                             "matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]})
        circuit = write_json(tmp_path / "opaque.json", doc)
        argv = [command, circuit]
        if command == "verify":
            argv += ["--reference", decay_file, "--delta", "0.01"]
        code, _, err = run(capsys, *argv)
        if handle == "u":
            assert (code, err) == (0, "")
        else:
            assert code == 2 and "cannot load circuit" in err
            assert f"opaque gate handle must be a string, got {handle!r}" in err

    @pytest.mark.parametrize("matrix, shown", [
        (3, "gate 0: matrix must be a list, got int"),
        ([[1, 0], [0, 1]], "gate 0: complex numbers are [re, im] pairs, got 1"),
        ([[[1, 0], [0, 0]], [[0, 0]]], "gate 0: matrix row 1 has 1 entries, not 2"),
        ([[[1, 0], [0, 0]], "ab"], "gate 0: matrix row 1 must be a list, got str"),
    ], ids=["int", "int-entries", "ragged", "string-row"])
    def test_opaque_matrix_shape_named(self, tmp_path, capsys, matrix, shown):
        doc = {"registers": [{"name": "system", "size": 1}],
               "gates": [{"kind": "opaque", "handle": "u", "qubits": [0],
                          "matrix": matrix}]}
        code, _, err = run(capsys, "cost", write_json(tmp_path / "c.json", doc))
        assert code == 2 and "cannot load circuit" in err and shown in err
        assert "Traceback" not in err

    def test_spec_reference_needs_delta(self, tmp_path, decay_file, capsys):
        circ = self.compile_decay(tmp_path, decay_file, capsys)
        code, _, err = run(capsys, "verify", circ, "--reference", decay_file)
        assert code == 2 and "delta" in err

    def test_verify_simulates_circuit_once(self, tmp_path, capsys, monkeypatch):
        import qchanc.circuits as circuits
        import qchanc.ir as ir

        calls = {"isometry": 0, "eval": 0}

        def counting(fn, key):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        spec = gen_tfim(3, 1.0)
        spec_path = write_json(tmp_path / "tfim.json", lindblad_to_json(spec))
        lowered = first_order(spec, 0.01)
        chan_path = write_json(tmp_path / "lowered.json", channel_to_json(lowered))
        out = tmp_path / "run"
        code, _, _ = run(capsys, "compile", spec_path, "--delta", "0.01",
                         "--out", str(out))
        assert code == 0
        monkeypatch.setattr(circuits, "system_isometry", counting(
            circuits.system_isometry, "isometry"))
        monkeypatch.setattr(ir, "eval_kraus", counting(ir.eval_kraus, "eval"))
        for ref, extra in ((spec_path, ("--delta", "0.01")), (chan_path, ())):
            calls.update(isometry=0, eval=0)
            code, stdout, _ = run(capsys, "verify", str(out / "circuit.json"),
                                  "--reference", ref, *extra)
            assert code == 0
            assert json.loads(stdout)["samples"] == 8 + 8
            assert calls["isometry"] == 1
            assert calls["eval"] <= len(lowered.kraus)


class TestCost:
    def test_empty_circuit(self, tmp_path, capsys):
        doc = {"registers": [{"name": "system", "size": 1}], "gates": []}
        path = write_json(tmp_path / "c.json", doc)
        code, stdout, _ = run(capsys, "cost", path)
        assert code == 0
        rep = json.loads(stdout)
        assert all(v == 0 for v in rep.values())

    def test_flattened_eight_branch_t_count(self, tmp_path, capsys):
        # eight single-Pauli Kraus branches: walk Toffolis dominate, 4N-4
        strings = [PauliString(2, x, z) for x, z in
                   [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0), (1, 1), (2, 2)]]
        chan = ChannelExpr(2, [
            PauliSum(2, [(1 / np.sqrt(8), p)]) for p in strings])
        path = write_json(tmp_path / "m8.json", channel_to_json(chan))
        out = tmp_path / "run"
        code, _, _ = run(capsys, "compile", path, "--frontend", "channel",
                         "--flatten", "--out", str(out))
        assert code == 0
        code, stdout, _ = run(capsys, "cost", str(out / "circuit.json"))
        rep = json.loads(stdout)
        assert rep["t_count"] == 4 * 8 - 4
        assert rep["toffoli_count"] == 7


GRID_INSTANCES = {
    "tfim2": lambda: lindblad_to_json(gen_tfim(2, 1.0)),
    "tfim3": lambda: lindblad_to_json(gen_tfim(3, 1.0)),
    "decay": lambda: lindblad_to_json(gen_decay(1.0, 0.5)),
    "hc8": lambda: channel_to_json(gen_hypercube_like(8, seed=1)),
    "rp5x16": lambda: channel_to_json(
        ChannelExpr(5, [gen_random_pauli(5, 16, seed=1)])),
}


class TestCostGrid:
    """Every cost-grid cell equals `qchanc cost` of the circuit that the
    compile emits for that setting."""

    @pytest.mark.parametrize("inst, frontend", [
        ("tfim2", "first"), ("tfim2", "order:2,2,2"),
        ("tfim3", "first"), ("tfim3", "order:2,2,2"),
        ("decay", "first"), ("decay", "order:2,2,2"),
        ("hc8", "channel"), ("rp5x16", "channel"),
    ])
    def test_each_cell_is_the_emitted_circuit_cost(self, tmp_path, capsys,
                                                   inst, frontend):
        path = write_json(tmp_path / "in.json", GRID_INSTANCES[inst]())
        delta = () if frontend == "channel" else ("--delta", "0.01")

        def compile_and_cost(*flags):
            out = tmp_path / "_".join(("run",) + flags)
            code, _, err = run(capsys, "compile", path, "--frontend", frontend,
                               *delta, *flags, "--out", str(out))
            assert (code, err) == (0, "")
            report = json.loads((out / "report.json").read_text())
            code, stdout, _ = run(capsys, "cost", str(out / "circuit.json"))
            assert code == 0 and stdout == _dump(report["cost"])
            return report

        grids = [compile_and_cost(*flags)["cost_grid"] for flags in
                 [(), ("--flatten",), ("--order",), ("--flatten", "--order")]]
        assert all(grid == grids[0] for grid in grids)
        compile_and_cost("--flatten", "--order", "--minimize-rank")


class TestBench:
    def test_decay_file_name_and_content(self, tmp_path, capsys):
        code, stdout, _ = run(capsys, "bench", "decay", "--gamma", "1",
                              "--nbar", "1", "--out", str(tmp_path))
        assert code == 0
        path = tmp_path / "decay-gamma1-nbar1.json"
        assert str(path) in stdout
        doc = json.loads(path.read_text())
        assert doc["n"] == 1 and len(doc["jumps"]) == 2

    @pytest.mark.parametrize("argv", [
        ["decay", "--gamma", "nan"],
        ["decay", "--nbar", "inf"],
        ["tfim", "--gamma", "inf"],
    ])
    def test_non_finite_rate_rejected(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["bench", *argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"got '{argv[-1]}'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_all_families(self, tmp_path, capsys):
        for argv, name in [
            (["bench", "tfim", "--sites", "4"], "tfim4-gamma1.json"),
            (["bench", "rndpauli", "--sites", "2", "--terms", "5",
              "--seed", "3"], "rndpauli-n2-m5-seed3.json"),
            (["bench", "hypercube", "--vertices", "8", "--seed", "2"],
             "hypcube8-seed2.json"),
        ]:
            code, _, _ = run(capsys, *argv, "--out", str(tmp_path))
            assert code == 0
            assert (tmp_path / name).exists()

    def test_hypercube_instance_compiles(self, tmp_path, capsys):
        # vertices=4 keeps kraus_sel + flat_anc + be_anc + system under the cap
        run(capsys, "bench", "hypercube", "--vertices", "4", "--seed", "2",
            "--out", str(tmp_path))
        src = str(tmp_path / "hypcube4-seed2.json")
        out = tmp_path / "run"
        code, _, _ = run(capsys, "compile", src, "--frontend", "channel",
                         "--order", "--flatten", "--out", str(out))
        assert code == 0
        code, stdout, _ = run(capsys, "verify", str(out / "circuit.json"),
                              "--reference", src, "--samples", "2")
        assert code == 0
        assert json.loads(stdout)["max_trace_distance"] < 1e-9


class TestRewrite:
    def test_drop_zero_kraus_rule(self, tmp_path, capsys):
        x = PauliString(1, 1, 0)
        z = PauliString(1, 0, 1)
        chan = ChannelExpr(1, [PauliSum(1, [(1.0, x)]),
                               PauliSum(1, [(0.0, z)])])
        path = write_json(tmp_path / "c.json", channel_to_json(chan))
        code, stdout, _ = run(capsys, "rewrite", path, "--rule", "K1",
                              "--rule-args", '{"kraus": 1}')
        assert code == 0
        doc = json.loads(stdout)
        assert len(doc["channel"]["kraus"]) == 1
        assert doc["trace"][0]["rule"] == "K1"

    def test_minimize_flag(self, tmp_path, capsys):
        chan = gen_hypercube_like(4, seed=0)
        path = write_json(tmp_path / "c.json", channel_to_json(chan))
        outfile = tmp_path / "min.json"
        code, _, _ = run(capsys, "rewrite", path, "--minimize-rank",
                         "--out", str(outfile))
        assert code == 0
        doc = json.loads(outfile.read_text())
        assert len(doc["channel"]["kraus"]) <= len(chan.kraus)

    @pytest.mark.parametrize("vertices", [4, 32], ids=["hc4", "hc32"])
    def test_minimize_trace_replays(self, tmp_path, capsys, vertices):
        # the C2 unitary goes back in as the trace writes it, [re, im] pairs
        path = write_json(tmp_path / "c.json",
                          channel_to_json(gen_hypercube_like(vertices, seed=0)))
        code, _, _ = run(capsys, "rewrite", path, "--minimize-rank",
                         "--out", str(tmp_path / "min.json"))
        assert code == 0
        written = json.loads((tmp_path / "min.json").read_text())
        assert "C2" in [entry["rule"] for entry in written["trace"]]
        doc = replay_trace(capsys, tmp_path, path, written["trace"])
        replayed = channel_from_json(doc)
        want = channel_from_json(written["channel"])
        assert len(replayed.kraus) == len(want.kraus)
        for k, w in zip(replayed.kraus, want.kraus):
            assert np.max(np.abs(eval_kraus(k) - eval_kraus(w))) <= 1e-9

    def test_minimize_trace_replays_merges_and_transform(self, tmp_path, capsys):
        # tfim2 at order:3,3,2: the operators K1 drops are up to 9e-6, above
        # K1's largest tol, so only the C3 merges and the C2 are replayed
        chan = simplify(higher_order(gen_tfim(2, 1.0), 0.01,
                                     QuadratureSpec(3, 3, 2)))
        path = write_json(tmp_path / "c.json", channel_to_json(chan))
        code, _, _ = run(capsys, "rewrite", path, "--minimize-rank",
                         "--out", str(tmp_path / "min.json"))
        assert code == 0
        trace = json.loads((tmp_path / "min.json").read_text())["trace"]
        rules = [entry["rule"] for entry in trace]
        c2 = rules.index("C2")
        assert set(rules[:c2]) == {"C3"} and set(rules[c2 + 1:]) == {"K1"}
        replay_trace(capsys, tmp_path, path, trace[:c2 + 1])

    def test_rewrite_output_reads_back(self, tmp_path, capsys):
        # a rewrite's {"channel", "trace"} document is itself an input
        path = write_json(tmp_path / "c.json",
                          channel_to_json(gen_hypercube_like(8, seed=0)))
        minimized = str(tmp_path / "min.json")
        code, _, err = run(capsys, "rewrite", path, "--minimize-rank",
                           "--out", minimized)
        assert (code, err) == (0, "")
        want = json.loads(Path(minimized).read_text())["channel"]
        perm = list(range(len(want["kraus"])))[::-1]
        code, stdout, err = run(capsys, "rewrite", minimized, "--rule", "C1",
                                "--rule-args", json.dumps({"perm": perm}))
        assert (code, err) == (0, "")
        assert json.loads(stdout)["channel"]["kraus"] == want["kraus"][::-1]
        # compiled as the channel it holds, byte for byte
        extracted = write_json(tmp_path / "chan.json", want)
        for name, src in (("doc", minimized), ("chan", extracted)):
            code, _, err = run(capsys, "compile", src, "--frontend", "channel",
                               "--order", "--out", str(tmp_path / name))
            assert (code, err) == (0, "")
        for f in ("report.json", "circuit.json"):
            assert ((tmp_path / "doc" / f).read_bytes()
                    == (tmp_path / "chan" / f).read_bytes())
        report = json.loads((tmp_path / "doc" / "report.json").read_text())
        assert report["kraus_count"] == len(want["kraus"])

    @pytest.mark.parametrize("doc", [{"channel": 5}, {"channel": {"n": 1}}],
                             ids=["number", "no-kraus"])
    def test_bad_channel_document_rejected(self, tmp_path, capsys, doc):
        bad = write_json(tmp_path / "bad.json", doc)
        for argv in (("rewrite", bad, "--minimize-rank"),
                     ("compile", bad, "--frontend", "channel",
                      "--out", str(tmp_path / "x"))):
            code, stdout, err = run(capsys, *argv)
            assert (code, stdout) == (2, "")
            assert f"{bad} failed to parse" in err and "Traceback" not in err

    @pytest.mark.parametrize("n, argv", [
        (-1, ("--rule", "C1", "--rule-args", '{"perm": []}')),
        (0, ("--minimize-rank",)),
    ], ids=["negative-C1", "zero-minimize"])
    def test_site_count_below_one_rejected(self, tmp_path, capsys, n, argv):
        path = write_json(tmp_path / "c.json", {"n": n, "kraus": []})
        code, stdout, err = run(capsys, "rewrite", path, *argv)
        assert (code, stdout) == (2, "")
        assert err == f"error: {path} failed to parse: n must be at least 1, got {n}\n"

    @pytest.mark.parametrize("scale, message", [
        (1e200, GRAM_OVERFLOW), (1e150, None)], ids=["overflow", "finite"])
    def test_minimize_overflow_rejected(self, tmp_path, capsys, scale, message):
        # X and X + Z: squared norms of 1e400 overflow, 1e300 do not
        def term(label):
            return {"coeff": [scale, 0], "pauli": label}
        doc = {"n": 1, "kraus": [[term("X")], [term("Z"), term("X")]]}
        path = write_json(tmp_path / "c.json", doc)
        out = tmp_path / "min.json"
        code, _, err = run(capsys, "rewrite", path, "--minimize-rank",
                           "--out", str(out))
        if message is None:
            assert code == 0 and err == ""
            assert len(json.loads(out.read_text())["channel"]["kraus"]) == 2
        else:
            assert (code, err) == (2, f"error: rewrite failed: {message}\n")
            assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("--rule", "C1", "--rule-args", "5"),
        ("--rule", "C1", "--rule-args", '{"perm": 5}'),
        ("--rule", "C3", "--rule-args", '{"indices": 5}'),
        ("--rule", "C2p", "--rule-args", '{"i": 0, "j": 1, "a": [1], "b": 0}'),
        ("--rule", "K2", "--rule-args", '{"kraus": 0, "theta": NaN}'),
        ("--rule", "PS2", "--rule-args", '{"kraus": 0, "tolerance": 0.9}'),
        ("--rule", "PS2", "--rule-args", '{"kraus": 0, "tol": 0.9}'),
    ], ids=["args-not-object", "perm-not-list", "indices-not-list",
            "coeff-not-number", "theta-not-finite", "unknown-key",
            "tol-too-large"])
    @pytest.mark.parametrize("kraus", [1, 2])
    def test_bad_rule_args_rejected(self, tmp_path, capsys, kraus, argv):
        ops = [PauliSum(1, [(1.0, PauliString(1, 1, 0))]),
               PauliSum(1, [(0.5, PauliString(1, 0, 1))])]
        path = write_json(tmp_path / "c.json",
                          channel_to_json(ChannelExpr(1, ops[:kraus])))
        code, _, err = run(capsys, "rewrite", path, *argv)
        assert code == 2
        assert "rewrite failed:" in err or "--rule-args" in err

    @pytest.mark.parametrize("rule, args", [
        ("K2", {"kraus": True, "theta": 0.5}),
        ("K2", {"kraus": 0, "theta": True}),
        ("PS2", {"kraus": 0, "tol": False}),
        ("C1", {"perm": [True, False]}),
        ("C2", {"unitary": [[False, True], [True, False]]}),
        ("C2p", {"i": False, "j": True, "a": 1, "b": 0}),
        ("C2p", {"i": 0, "j": 1, "a": True, "b": 0}),
        ("C2p", {"i": 0, "j": 1, "a": 1, "b": False}),
        ("C3", {"indices": [False, True]}),
        ("C3p", {"i": 0, "j": True}),
    ], ids=["K2-kraus", "K2-theta", "PS2-tol", "C1-perm", "C2-unitary",
            "C2p-index", "C2p-a", "C2p-b", "C3-indices", "C3p-j"])
    def test_bool_rule_args_rejected(self, tmp_path, capsys, rule, args):
        # each argument is accepted with the bool replaced by its int
        ops = [PauliSum(1, [(0.6, PauliString(1, 1, 0))]),
               PauliSum(1, [(0.8, PauliString(1, 1, 0))])]
        path = write_json(tmp_path / "c.json", channel_to_json(ChannelExpr(1, ops)))
        code, _, err = run(capsys, "rewrite", path, "--rule", rule,
                           "--rule-args", json.dumps(args))
        assert code == 2
        assert "rewrite failed:" in err and "bad argument" in err

    def test_rule_args_echoed_in_trace(self, tmp_path, capsys):
        ops = [PauliSum(1, [(0.6, PauliString(1, 1, 0))]),
               PauliSum(1, [(0.8, PauliString(1, 0, 1))])]
        path = write_json(tmp_path / "c.json", channel_to_json(ChannelExpr(1, ops)))
        for rule, args in [("C2", {"unitary": [[0, 1], [1, 0]]}),
                           ("C2p", {"i": 0, "j": 1, "a": "0.6+0.8j", "b": 0})]:
            code, stdout, _ = run(capsys, "rewrite", path, "--rule", rule,
                                  "--rule-args", json.dumps(args))
            assert code == 0
            assert json.loads(stdout)["trace"] == [
                {"rule": rule, "args": args, "kraus_count_after": 2}]

    def test_inapplicable_rule_fails(self, tmp_path, capsys):
        x = PauliString(1, 1, 0)
        chan = ChannelExpr(1, [PauliSum(1, [(1.0, x)])])
        path = write_json(tmp_path / "c.json", channel_to_json(chan))
        code, _, err = run(capsys, "rewrite", path, "--rule", "K1",
                           "--rule-args", '{"kraus": 0}')
        assert code == 2 and "rewrite failed" in err


class TestErrorSweep:
    def test_delta_sweep_below_bound(self, tmp_path, decay_file, capsys):
        code, stdout, _ = run(capsys, "error-sweep", decay_file,
                              "--deltas", "0.02,0.01,0.005")
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "delta,error,bound"
        rows = [tuple(float(v) for v in ln.split(",")) for ln in lines[1:]]
        errs = [r[1] for r in rows]
        assert errs == sorted(errs, reverse=True)
        for _, err, bound in rows:
            assert err <= bound

    def test_delta_zero_row(self, tmp_path, decay_file, capsys):
        code, stdout, _ = run(capsys, "error-sweep", decay_file,
                              "--deltas", "0")
        assert code == 0
        row = stdout.strip().splitlines()[1].split(",")
        assert float(row[1]) == 0.0

    @pytest.mark.parametrize("deltas", ["0.01,nan", "inf", "0.01,x"])
    def test_bad_delta_list_named(self, decay_file, capsys, deltas):
        code, _, err = run(capsys, "error-sweep", decay_file,
                           "--deltas", deltas)
        bad = deltas.split(",")[-1]
        assert code == 2 and f"got '{bad}'" in err

    @pytest.mark.parametrize("deltas", ["-1000", "0.01,-20"])
    def test_negative_delta_named(self, decay_file, capsys, deltas):
        # named before any evolution or lowering runs
        code, stdout, err = run(capsys, "error-sweep", decay_file,
                                "--deltas", deltas)
        bad = deltas.split(",")[-1]
        assert code == 2 and stdout == ""
        assert f"--deltas must be nonnegative, got {bad}\n" in err

    def test_empty_sweep_list(self, decay_file, capsys):
        code, _, err = run(capsys, "error-sweep", decay_file, "--deltas", ",")
        assert code == 2 and "empty" in err

    def test_frontend_option_removed(self, decay_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["error-sweep", decay_file, "--frontend", "first",
                  "--deltas", "0.01"])
        assert exc.value.code == 2

    def test_order_sweep_trend(self, tmp_path, decay_file, capsys):
        code, stdout, _ = run(capsys, "error-sweep", decay_file,
                              "--orders", "1,2", "--delta", "0.1")
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "order,error,bound"
        e1 = float(lines[1].split(",")[1])
        e2 = float(lines[2].split(",")[1])
        assert e2 < e1

    def test_deterministic_file_output(self, tmp_path, decay_file, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "error-sweep", decay_file, "--deltas", "0.02,0.01",
            "--out", str(a))
        run(capsys, "error-sweep", decay_file, "--deltas", "0.02,0.01",
            "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_negative_sample_count_rejected(self, decay_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["error-sweep", decay_file, "--deltas", "0.01",
                  "--samples", "-5"])
        assert exc.value.code == 2
        assert "got '-5'" in capsys.readouterr().err

    def test_requires_exactly_one_sweep(self, decay_file, capsys):
        code, _, err = run(capsys, "error-sweep", decay_file)
        assert code == 2
        code, _, err = run(capsys, "error-sweep", decay_file,
                           "--deltas", "0.01", "--orders", "1")
        assert code == 2

    def test_rejects_channel_input(self, tmp_path, capsys):
        chan = gen_hypercube_like(4, seed=0)
        path = write_json(tmp_path / "c.json", channel_to_json(chan))
        code, _, err = run(capsys, "error-sweep", path, "--deltas", "0.01")
        assert code == 2 and "spec" in err

    def test_sweep_evaluates_each_kraus_once_per_row(self, tmp_path, capsys,
                                                     monkeypatch):
        import qchanc.ir as ir
        from qchanc.lindblad import QuadratureSpec, higher_order

        calls = []
        original = ir.eval_kraus

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        spec = gen_tfim(2, 1.0)
        path = write_json(tmp_path / "tfim.json", lindblad_to_json(spec))
        monkeypatch.setattr(ir, "eval_kraus", counting)
        code, _, _ = run(capsys, "error-sweep", path, "--orders", "1,2",
                         "--delta", "0.05")
        assert code == 0
        expected = sum(len(higher_order(spec, 0.05, QuadratureSpec(k, max(k, 2), 2)).kraus)
                       for k in (1, 2))
        assert len(calls) == expected

    def test_order_sweep_evolves_probes_once(self, tmp_path, capsys,
                                             monkeypatch):
        import qchanc.cli as cli

        calls = []
        original = cli.evolve

        def counting(*args, **kwargs):
            calls.append((args[1], len(args[2])))
            return original(*args, **kwargs)

        path = write_json(tmp_path / "tfim.json",
                          lindblad_to_json(gen_tfim(2, 1.0)))
        monkeypatch.setattr(cli, "evolve", counting)
        code, stdout, _ = run(capsys, "error-sweep", path, "--orders", "1,2,3",
                              "--delta", "0.05")
        assert code == 0 and len(stdout.splitlines()) == 4
        # one call, on the 4 basis states and the 8 default samples
        assert calls == [(0.05, 12)]

    def test_delta_sweep_draws_probes_once(self, tmp_path, capsys,
                                           monkeypatch):
        import qchanc.cli as cli

        calls = []
        original = cli.probe_states

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "probe_states", counting)
        path = write_json(tmp_path / "tfim.json",
                          lindblad_to_json(gen_tfim(2, 1.0)))
        code, stdout, _ = run(capsys, "error-sweep", path,
                              "--deltas", "0.02,0.01,0.005")
        assert code == 0 and len(stdout.splitlines()) == 4
        assert len(calls) == 1

    @pytest.mark.parametrize("flags", [("--deltas", "0.01,1e308"),
                                       ("--orders", "1", "--delta", "1e308")])
    def test_huge_delta_hits_step_limit(self, decay_file, capsys, flags):
        code, stdout, err = run(capsys, "error-sweep", decay_file, *flags)
        assert code == 2 and stdout == ""
        assert "t = 1e+308" in err and "norm bound" in err
        assert "Taylor steps" in err
