"""Command-line driver: ingest, lower, rewrite, synthesize, and report.

Subcommands: compile | verify | cost | bench | rewrite | error-sweep.
Reports are JSON with sorted keys and no timestamps, so identical
inputs and flags produce byte-identical output.  `_dump` writes exactly the
bytes of json.dumps(data, sort_keys=True, indent=2) plus a newline, without
the stdlib's pure-Python encoder that indent=2 selects.  Pauli term lists
are read and written in bulk: `ir.pauli_sum_from_json` checks a whole list
at once with every check of the per-term reader, `ir.pauli_sum_to_json`
builds labels and [re, im] pairs with numpy, and `_dump` writes each term
from one template.  Any list the bulk paths do not take goes term by term,
with the same bytes and error messages.
"""

import argparse
import json
import math
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

import numpy as np

from .bench import gen_decay, gen_hypercube_like, gen_random_pauli, gen_tfim
from .circuits import (
    circuit_from_json,
    circuit_to_json,
    cost_report,
    run_channel,
)
from .ir import (
    ChannelExpr,
    TypecheckError,
    apply_channel,
    channel_from_json,
    channel_to_json,
    lindblad_from_json,
    lindblad_to_json,
    probe_states,
    trace_distance,
)
from .lindblad import (
    QuadratureSpec,
    evolve,
    first_order,
    higher_order,
    lindblad_opnorm,
    short_time_bound,
)
from .rewrite import (
    RewriteError,
    apply_rule,
    minimize_kraus_rank,
    simplify,
    trace_to_json,
)
from .select_opt import g_table_json, mode_table_json
from .synth import (
    SELECT_MODES,
    channel_alphas,
    channel_lcu,
    cost_cells,
    encode_channel,
)

# the evaluation grid: (flatten, order) per named setting
SETTINGS = (
    ("basic+basic", False, False),
    ("flat+basic", True, False),
    ("basic+order", False, True),
    ("flat+order", True, True),
)

VERIFY_SEED = 7


class CliError(Exception):
    """Input or pipeline failure that maps to a nonzero exit code."""


def _finite_float(text: str) -> float:
    """argparse type (and --deltas element): a finite float."""
    try:
        if math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _int_from(low: int, what: str):
    """argparse type: an integer of at least `low`, described as `what`."""
    def parse(text: str) -> int:
        try:
            if (value := int(text)) >= low:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_nonnegative_int = _int_from(0, "a nonnegative integer")
_positive_int = _int_from(1, "a positive integer")


def load_input(path: str):
    """Read a LindbladSpec or ChannelExpr JSON file, sniffing the kind; a
    rewrite output ({"channel": ..., "trace": ...}) reads as its channel."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise CliError(f"{path} failed to parse: expected a JSON object, "
                       f"got {type(data).__name__}")
    try:
        if "kraus" in data:
            return channel_from_json(data)
        if "H" in data:
            return lindblad_from_json(data)
        if "channel" in data:
            if not isinstance(data["channel"], dict):
                raise TypeError("channel must be a JSON object, got "
                                f"{type(data['channel']).__name__}")
            return channel_from_json(data["channel"])
    # OverflowError: an integer too large for a float
    except (TypecheckError, ValueError, LookupError, TypeError, AttributeError,
            OverflowError) as exc:
        raise CliError(f"{path} failed to parse: {exc}") from exc
    raise CliError(f"{path}: expected a 'kraus', 'H' or 'channel' key")


def _parse_frontend(text: str):
    """first | order:K,K',q | channel."""
    if text == "first":
        return ("first", None)
    if text == "channel":
        return ("channel", None)
    if text == "order" or text.startswith("order:"):
        params = (1, 1, 1)
        if text != "order":
            try:
                parts = [int(p) for p in text.split(":", 1)[1].split(",")]
            except ValueError as exc:
                raise CliError(f"bad frontend parameters in {text!r}") from exc
            if len(parts) > 3:
                raise CliError(f"frontend {text!r} takes at most K,K',q")
            params = tuple(parts) + params[len(parts):]
        try:
            return ("order", QuadratureSpec(*params))
        except ValueError as exc:
            raise CliError(f"bad quadrature orders: {exc}") from exc
    raise CliError(f"unknown frontend {text!r}")


def lower_input(obj, frontend: str, delta: float, cap=None) -> ChannelExpr:
    kind, quad = _parse_frontend(frontend)
    if isinstance(obj, ChannelExpr):
        if kind != "channel":
            raise CliError("input is already a channel; use --frontend channel")
        return obj
    if kind == "channel":
        raise CliError("--frontend channel needs a channel input, got a spec")
    if delta is None:
        raise CliError("lowering a Lindblad spec requires --delta")
    try:
        if kind == "first":
            return first_order(obj, delta)
        return higher_order(obj, delta, quad, cap)
    except (ValueError, TypecheckError) as exc:
        raise CliError(f"lowering failed: {exc}") from exc


def _select_audits(encodings: list) -> list:
    """SelectTable JSON per Pauli-sum Kraus operator's optimized encoding."""
    audits = []
    for idx, enc in enumerate(encodings):
        if enc.ref is not None:
            audits.append({"kraus": idx, "opaque": True})
        elif len(enc.terms) < 2:
            audits.append({"kraus": idx, "trivial": True})
        else:
            audits.append({
                "kraus": idx,
                "select_bits": enc.width,
                "mode_table": mode_table_json(enc.table),
                "g_table": g_table_json(enc.table),
            })
    return audits


def compile_pipeline(obj, frontend: str, delta, flatten: bool, order: bool,
                     minimize_rank: bool, cap=None):
    """Shared by cmd_compile and the tests; returns (circuit, report dict)."""
    chan = lower_input(obj, frontend, delta, cap)
    setting = next(nm for nm, fl, om in SETTINGS
                   if (fl, om) == (flatten, order))
    mode = "optimized" if order else "naive"
    try:
        chan = simplify(chan)
        trace = []
        if minimize_rank:
            chan, trace = minimize_kraus_rank(chan, cap)
        # one record per Kraus and select mode: every circuit, alpha and audit reads it
        encodings = {m: encode_channel(chan, m) for m in SELECT_MODES}
        circ = channel_lcu(chan, mode, flatten, encodings[mode])
        alphas = channel_alphas(chan, mode, encodings[mode])
    except (RewriteError, TypecheckError, ValueError) as exc:
        at = "" if isinstance(obj, ChannelExpr) else f" at --delta {delta:g}"
        raise CliError(f"compilation failed{at}: {exc}") from exc
    alpha_sq = float(np.sum(np.square(alphas)))
    # every setting is priced from its records, the emitted one included;
    # each select mode lists its record shapes once for both of its cells
    cells = {m: cost_cells(encodings[m]) for m in SELECT_MODES}
    grid = {name: cells["optimized" if om else "naive"][fl].to_json()
            for name, fl, om in SETTINGS}
    report = {
        "n": chan.n,
        "frontend": frontend,
        "delta": delta,
        "options": {"flatten": flatten, "order": order,
                    "minimize_rank": minimize_rank},
        "setting": setting,
        "kraus_count": len(chan.kraus),
        "alphas": [float(a) for a in alphas],
        "alpha_sq_sum": alpha_sq,
        "success_prob_tp": 1.0 / alpha_sq,
        "registers": {name: size for name, size in circ.registers},
        "rewrite_trace": trace_to_json(trace),
        "select_audits": _select_audits(encodings["optimized"]) if order else [],
        "cost": grid[setting],
        "cost_grid": grid,
    }
    return circ, report


_TERM_PARTS = itemgetter("coeff", "pauli", "phase_exp")


def _encode_terms(o, nl: str) -> str | None:
    """_encode of a Pauli term list, one %-template per term, or None unless
    every term is a dict with exactly the keys coeff, pauli and phase_exp,
    holding a list of two finite floats, a str and an int."""
    if set(map(type, o)) != {dict} or set(map(len, o)) != {3}:
        return None
    try:
        cs, labels, phases = zip(*map(_TERM_PARTS, o))
    except KeyError:
        return None
    if (set(map(type, cs)) != {list} or set(map(len, cs)) != {2}
            or set(map(type, labels)) != {str} or set(map(type, phases)) != {int}):
        return None
    parts = list(chain.from_iterable(cs))
    if set(map(type, parts)) != {float} or not all(map(math.isfinite, parts)):
        return None
    item = nl + "  "
    key, part = item + "  ", item + "    "
    # %r and %d write float.__repr__ and int.__repr__ of these exact types
    template = ("{" + key + '"coeff": [' + part + "%r," + part + "%r" + key
                + "]," + key + '"pauli": %s,' + key + '"phase_exp": %d' + item + "}")
    return ("[" + item + ("," + item).join([
        template % (c[0], c[1], encode_basestring_ascii(label), phase)
        for c, label, phase in zip(cs, labels, phases)]) + nl + "]")


def _encode(o, nl: str) -> str:
    """o as json.dumps(sort_keys=True, indent=2) writes it, at the
    indentation that `nl` (a newline and the current indent) opens.

    Takes the exact types qchanc emits; any other value, subclasses such as
    numpy scalars included, raises TypeError.
    """
    t = type(o)
    if t is list or t is tuple:
        if not o:
            return "[]"
        if type(o[0]) is dict and (terms := _encode_terms(o, nl)) is not None:
            return terms
        inner = nl + "  "
        return ("[" + inner + ("," + inner).join([_encode(v, inner) for v in o])
                + nl + "]")
    if t is float:
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    if t is str:
        return encode_basestring_ascii(o)
    if t is int:
        return int.__repr__(o)
    if t is dict:
        if not o:
            return "{}"
        inner = nl + "  "
        # a key that is not a str fails in sorted() or the string encoder
        return ("{" + inner + ("," + inner).join([
            encode_basestring_ascii(k) + ": " + _encode(o[k], inner)
            for k in sorted(o)]) + nl + "}")
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _dump(data) -> str:
    return _encode(data, "\n") + "\n"


def cmd_compile(args) -> int:
    obj = load_input(args.input)
    circ, report = compile_pipeline(
        obj, args.frontend, args.delta, args.flatten, args.order,
        args.minimize_rank, args.cap)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    circuit_doc = circuit_to_json(circ)
    circuit_doc["alpha_sq_sum"] = report["alpha_sq_sum"]
    (out / "circuit.json").write_text(_dump(circuit_doc))
    (out / "report.json").write_text(_dump(report))
    print(str(out / "report.json"))
    return 0


def _load_circuit(path: str):
    try:
        data = json.loads(Path(path).read_text())
        circ, scale = circuit_from_json(data), data.get("alpha_sq_sum", 1.0)
        if type(scale) not in (int, float) or not 0 < float(scale) < math.inf:  # not bool, NaN
            raise ValueError(f"alpha_sq_sum must be a finite positive number, got {scale!r}")
        return circ, scale
    # OverflowError: an integer too large for a float
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError,
            OverflowError) as exc:
        raise CliError(f"cannot load circuit {path}: {exc}") from exc


def verify_stats(circ, scale, reference, delta, samples, cap=None) -> dict:
    """Max trace distance of the rescaled circuit channel vs the reference."""
    n = reference.n
    is_spec = not isinstance(reference, ChannelExpr)
    if is_spec and delta is None:
        raise CliError("verifying against a spec requires --delta")
    if is_spec and not delta > 0:
        raise CliError(f"--delta must be positive, got {delta!r}")
    names = [name for name, _ in circ.registers]
    for reg in ("system", "be_anc", "kraus_sel", "flat_anc"):
        if reg not in names:
            raise CliError(f"circuit has no {reg!r} register")
    if circ.reg_size("system") != n:
        raise CliError(f"circuit system has {circ.reg_size('system')} qubits, "
                       f"reference has {n}")
    states = probe_states(n, samples, seed=VERIFY_SEED)
    if is_spec:
        refs = evolve(reference, delta, states, cap)
        bound = short_time_bound(delta, lindblad_opnorm(reference, cap), 1)
    else:
        refs = apply_channel(reference, states, cap)
        bound = None
    runs = run_channel(circ, states, cap=cap)
    worst = 0.0
    probs = []
    for (out, prob), ref in zip(runs, refs):
        worst = max(worst, trace_distance(scale * out, ref))
        probs.append(prob)
    stats = {
        "max_trace_distance": worst,
        "samples": len(probs),
        "success_prob": {"min": min(probs), "max": max(probs),
                         "mean": float(np.mean(probs))},
    }
    if bound is not None:
        stats["bound"] = bound
    return stats


def cmd_verify(args) -> int:
    circ, scale = _load_circuit(args.circuit)
    reference = load_input(args.reference)
    stats = verify_stats(circ, scale, reference, args.delta, args.samples,
                         args.cap)
    sys.stdout.write(_dump(stats))
    return 0


def cmd_cost(args) -> int:
    circ, _ = _load_circuit(args.circuit)
    sys.stdout.write(_dump(cost_report(circ).to_json()))
    return 0


def cmd_bench(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fam = args.family
    if fam == "decay":
        doc = lindblad_to_json(gen_decay(args.gamma, args.nbar))
        name = f"decay-gamma{args.gamma:g}-nbar{args.nbar:g}.json"
    elif fam == "tfim":
        doc = lindblad_to_json(gen_tfim(args.sites, args.gamma))
        name = f"tfim{args.sites}-gamma{args.gamma:g}.json"
    elif fam == "rndpauli":
        k = gen_random_pauli(args.sites, args.terms, args.seed)
        doc = channel_to_json(ChannelExpr(k.n, [k]))
        name = f"rndpauli-n{args.sites}-m{args.terms}-seed{args.seed}.json"
    elif fam == "hypercube":
        doc = channel_to_json(gen_hypercube_like(args.vertices, args.seed))
        name = f"hypcube{args.vertices}-seed{args.seed}.json"
    else:
        raise CliError(f"unknown family {fam!r}")
    path = out / name
    path.write_text(_dump(doc))
    print(str(path))
    return 0


def cmd_rewrite(args) -> int:
    obj = load_input(args.input)
    if not isinstance(obj, ChannelExpr):
        raise CliError("rewrite operates on channel JSON")
    try:
        if args.minimize_rank:
            chan, trace = minimize_kraus_rank(obj, args.cap)
            trace = trace_to_json(trace)
        elif args.rule:
            rule_args = json.loads(args.rule_args) if args.rule_args else {}
            if not isinstance(rule_args, dict):
                raise CliError(f"--rule-args must be a JSON object, got {args.rule_args}")
            chan = apply_rule(obj, args.rule, rule_args, args.cap)
            # the arguments came from JSON, so they are echoed as given
            trace = [{"rule": args.rule, "args": rule_args,
                      "kraus_count_after": len(chan.kraus)}]
        else:
            raise CliError("rewrite needs --rule or --minimize-rank")
    except RewriteError as exc:
        raise CliError(f"rewrite failed: {exc}") from exc
    doc = {"channel": channel_to_json(chan), "trace": trace}
    text = _dump(doc)
    if args.out:
        Path(args.out).write_text(text)
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


def sweep_rows(spec, deltas, orders, delta, cap=None, samples=8):
    """(parameter, error, bound) rows for the requested sweep."""
    lops = lindblad_opnorm(spec, cap)
    states = probe_states(spec.n, samples, seed=VERIFY_SEED)
    rows = []

    def worst(chan, refs):
        return max((trace_distance(out, ref) for out, ref in
                    zip(apply_channel(chan, states, cap), refs)), default=0.0)

    if deltas is not None:
        for d in deltas:
            if d == 0:
                rows.append(("delta", 0.0, 0.0, 0.0))
                continue
            # the reference first: it rejects a delta too large to evolve
            refs = evolve(spec, d, states, cap)
            err = worst(first_order(spec, d), refs)
            rows.append(("delta", d, err, short_time_bound(d, lops, 1)))
    else:
        # every order is measured against the same exp(delta L) rho
        refs = evolve(spec, delta, states, cap)
        for k in orders:
            quad = QuadratureSpec(k, max(k, 2), 2)
            err = worst(higher_order(spec, delta, quad, cap), refs)
            rows.append(("order", k, err, short_time_bound(delta, lops, k)))
    return rows


def _parse_list(text, conv):
    try:
        return [conv(p) for p in text.split(",") if p != ""]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise CliError(f"bad list {text!r}: {exc}") from exc


def cmd_error_sweep(args) -> int:
    spec = load_input(args.input)
    if isinstance(spec, ChannelExpr):
        raise CliError("error-sweep needs a Lindblad spec input")
    if (args.deltas is None) == (args.orders is None):
        raise CliError("give exactly one of --deltas or --orders")
    deltas = None if args.deltas is None else _parse_list(args.deltas, _finite_float)
    orders = None if args.orders is None else _parse_list(args.orders, int)
    if not (deltas or orders):
        raise CliError("the sweep list is empty")
    if orders and args.delta is None:
        raise CliError("an order sweep requires --delta")
    rows = sweep_rows(spec, deltas, orders, args.delta, args.cap,
                      args.samples)
    lines = [f"{rows[0][0]},error,bound"]
    for _, p, err, bound in rows:
        lines.append(f"{p:.12g},{err:.12e},{bound:.12e}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(args.out)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qchanc",
        description="Channel-level quantum compiler pipeline.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--cap", type=_positive_int, default=None,
                       help="dense-matrix qubit cap (env QCHANC_CAP)")

    p = sub.add_parser("compile", help="lower, synthesize, and report")
    p.add_argument("input")
    p.add_argument("--frontend", default="first",
                   help="first | order[:K,K',q] | channel")
    p.add_argument("--delta", type=_finite_float, default=None)
    p.add_argument("--flatten", action="store_true")
    p.add_argument("--order", action="store_true",
                   help="use the optimized SELECT decomposition")
    p.add_argument("--minimize-rank", action="store_true")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("verify", help="circuit vs reference trace distance")
    p.add_argument("circuit")
    p.add_argument("--reference", required=True)
    p.add_argument("--delta", type=_finite_float, default=None)
    p.add_argument("--samples", type=_nonnegative_int, default=8)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("cost", help="cost report for a circuit")
    p.add_argument("circuit")
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("bench", help="write a benchmark instance")
    p.add_argument("family", choices=["decay", "tfim", "rndpauli", "hypercube"])
    p.add_argument("--gamma", type=_finite_float, default=1.0)
    p.add_argument("--nbar", type=_finite_float, default=1.0)
    p.add_argument("--sites", type=int, default=3)
    p.add_argument("--terms", type=int, default=8)
    p.add_argument("--vertices", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("rewrite", help="apply a rewrite rule or minimize rank")
    p.add_argument("input")
    p.add_argument("--rule", default=None)
    p.add_argument("--rule-args", default=None, help="JSON argument object")
    p.add_argument("--minimize-rank", action="store_true")
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_rewrite)

    p = sub.add_parser("error-sweep", help="CSV of error vs delta or order")
    p.add_argument("input")
    p.add_argument("--deltas", default=None, help="comma-separated deltas")
    p.add_argument("--orders", default=None, help="comma-separated K values")
    p.add_argument("--delta", type=_finite_float, default=None,
                   help="fixed delta for an order sweep")
    p.add_argument("--samples", type=_nonnegative_int, default=8)
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_error_sweep)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
