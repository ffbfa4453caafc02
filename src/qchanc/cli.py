"""Command-line driver: ingest, lower, rewrite, synthesize, and report.

Subcommands: compile | verify | cost | bench | rewrite | error-sweep.
Reports are JSON with sorted keys and no timestamps, so identical
inputs and flags produce byte-identical output: every document is exactly
the bytes of json.dumps(data, sort_keys=True, indent=2) plus a newline,
laid out by `ir._array` and `ir._object` alone.  `_dump` writes all but
compile's two through `ir._encode`; compile's circuit.json is written by
`circuits.circuit_to_json`, with no dict per gate, and its report.json by
`report_to_json`, whose SELECT audits come straight from the SelectTables
(`_audit_text`), each shared table's text formed once.  A channel or spec
file's Pauli term lists are read in one bulk pass per document
(`ir.channel_from_json`, `ir.lindblad_from_json`), with every check of the
per-term reader; a document with an irregular term goes term by term, with
the same result and error messages, each led by the term's position
("Kraus operator 1 term 0: ...").
"""

import argparse
import functools
import json
import math
import sys
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
    _array,
    _encode,
    _object,
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
from .pauli import command_cap
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
    encode_modes,
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
    except (ValueError, LookupError, TypeError, AttributeError, OverflowError) as exc:
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


def lower_input(obj, frontend: str, delta: float) -> ChannelExpr:
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
        return higher_order(obj, delta, quad)
    except ValueError as exc:
        raise CliError(f"lowering failed: {exc}") from exc


def _select_audits(encodings: list) -> list:
    """SelectTable JSON per Pauli-sum Kraus operator's optimized encoding;
    a table shared by several operators is listed once and its lists are
    shared.  The oracle of report_to_json's audits (_audit_text)."""
    audits = []
    tables = {}  # id(SelectTable) -> (mode_table, g_table), for this call only
    for idx, enc in enumerate(encodings):
        if enc.ref is not None:
            audits.append({"kraus": idx, "opaque": True})
        elif len(enc.terms) < 2:
            audits.append({"kraus": idx, "trivial": True})
        else:
            if (lists := tables.get(id(enc.table))) is None:
                lists = tables[id(enc.table)] = (mode_table_json(enc.table),
                                                 g_table_json(enc.table))
            audits.append({
                "kraus": idx,
                "select_bits": enc.width,
                "mode_table": lists[0],
                "g_table": lists[1],
            })
    return audits


def _audit_text(encodings: list, nl: str) -> str:
    """_select_audits(encodings) as ir._encode writes it at the indentation
    `nl` opens, straight from the records: one ir._object template per
    entry kind, and the text of each shared SelectTable formed once."""
    i1 = nl + "  "  # an entry
    i2 = i1 + "  "  # an entry's keys
    i3 = i2 + "  "  # a table's rows
    table = _object(("g_table", "kraus", "mode_table", "select_bits"), i1)
    # each row template with its constant 0 and its two quoted %s slots
    # filled in (an address or label needs no escaping, a key holds no %)
    mode_row = _object(("address", "phase_exp", "target"), i3) % ('"%s"', 0, '"%s"')
    g_row = _object(("address", "g", "theta"), i3) % ('"%s"', '"%s"', 0)

    def rows(row: str, entries: dict, s: int) -> str:
        spec = f"0{s}b"
        return _array([row % (format(a, spec), p.label())
                       for a, p in sorted(entries.items())], i2)

    texts = {}  # id(SelectTable) -> (g_table, mode_table) text, for this call only
    entries = []
    for idx, enc in enumerate(encodings):
        if enc.ref is not None:
            entries.append(_object(("kraus", "opaque"), i1) % (idx, "true"))
        elif len(enc.terms) < 2:
            entries.append(_object(("kraus", "trivial"), i1) % (idx, "true"))
        else:
            t = enc.table
            if (lists := texts.get(id(t))) is None:
                lists = texts[id(t)] = (rows(g_row, t.factors, t.s),
                                        rows(mode_row, t.targets, t.s))
            entries.append(table % (lists[0], idx, lists[1], enc.width))
    return _array(entries, nl)


def compile_pipeline(obj, frontend: str, delta, flatten: bool, order: bool,
                     minimize_rank: bool):
    """cmd_compile's work: (circuit, report dict, audited records), where
    the report holds every field but select_audits, which lists the
    SelectTables of the audited records (the optimized ones under --order,
    else none): see _select_audits and report_to_json."""
    chan = lower_input(obj, frontend, delta)
    setting = next(nm for nm, fl, om in SETTINGS
                   if (fl, om) == (flatten, order))
    mode = "optimized" if order else "naive"
    try:
        chan = simplify(chan)
        trace = []
        if minimize_rank:
            chan, trace = minimize_kraus_rank(chan)
        # one record per Kraus and select mode, from one fold per operator:
        # every circuit, alpha, cost cell and audit reads them
        encodings = encode_modes(chan, mode)
        circ = channel_lcu(chan, mode, flatten, encodings[mode])
        alphas = channel_alphas(chan, mode, encodings[mode])
    except ValueError as exc:
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
        "cost": grid[setting],
        "cost_grid": grid,
    }
    return circ, report, encodings["optimized"] if order else []


def report_to_json(report: dict, audited: list) -> str:
    """The report.json text: exactly the bytes of _dump({**report,
    "select_audits": _select_audits(audited)}), with the audits written by
    _audit_text and every other field by ir._encode."""
    fields = {k: _encode(v, "\n  ") for k, v in report.items()}
    fields["select_audits"] = _audit_text(audited, "\n  ")
    keys = tuple(sorted(fields))
    return _object(keys, "\n") % tuple([fields[k] for k in keys]) + "\n"


def _dump(data) -> str:
    return _encode(data, "\n") + "\n"


def _write_out(text: str, out: str | None) -> None:
    """Write text to the --out file and print its path, else to stdout."""
    if out:
        Path(out).write_text(text)
        print(out)
    else:
        sys.stdout.write(text)


def cmd_compile(args) -> int:
    obj = load_input(args.input)
    circ, report, audited = compile_pipeline(
        obj, args.frontend, args.delta, args.flatten, args.order,
        args.minimize_rank)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(report_to_json(report, audited))
    del audited  # the records and their tables: the circuit text needs neither
    (out / "circuit.json").write_text(circuit_to_json(circ, report["alpha_sq_sum"]))
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


def verify_stats(circ, scale, reference, delta, samples) -> dict:
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
    refs = (evolve(reference, delta, states) if is_spec
            else apply_channel(reference, states))
    outs, probs = run_channel(circ, states)
    outs *= scale  # in place: one fewer probe-sized stack alive
    stats = {
        "max_trace_distance": float(trace_distance(outs, refs).max()),
        "samples": len(probs),
        "success_prob": {"min": float(probs.min()), "max": float(probs.max()),
                         "mean": float(np.mean(probs))},
    }
    if is_spec:
        stats["bound"] = short_time_bound(delta, lindblad_opnorm(reference), 1)
    return stats


def cmd_verify(args) -> int:
    circ, scale = _load_circuit(args.circuit)
    reference = load_input(args.reference)
    stats = verify_stats(circ, scale, reference, args.delta, args.samples)
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
            chan, trace = minimize_kraus_rank(obj)
            trace = trace_to_json(trace)
        elif args.rule:
            rule_args = json.loads(args.rule_args) if args.rule_args else {}
            if not isinstance(rule_args, dict):
                raise CliError(f"--rule-args must be a JSON object, got {args.rule_args}")
            chan = apply_rule(obj, args.rule, rule_args)
            # the arguments came from JSON, so they are echoed as given
            trace = [{"rule": args.rule, "args": rule_args,
                      "kraus_count_after": len(chan.kraus)}]
        else:
            raise CliError("rewrite needs --rule or --minimize-rank")
    except RewriteError as exc:
        raise CliError(f"rewrite failed: {exc}") from exc
    _write_out(_dump({"channel": channel_to_json(chan), "trace": trace}), args.out)
    return 0


def sweep_rows(spec, deltas, orders, delta, samples=8):
    """(parameter, error, bound) rows for the requested sweep."""
    lops = lindblad_opnorm(spec)
    states = probe_states(spec.n, samples, seed=VERIFY_SEED)
    rows = []

    def worst(chan, refs):
        return trace_distance(apply_channel(chan, states), refs).max()

    if deltas is not None:
        for d in deltas:
            if d == 0:
                rows.append(("delta", 0.0, 0.0, 0.0))
                continue
            # the reference first: it rejects a delta too large to evolve
            refs = evolve(spec, d, states)
            err = worst(first_order(spec, d), refs)
            rows.append(("delta", d, err, short_time_bound(d, lops, 1)))
    else:
        # every order is measured against the same exp(delta L) rho
        refs = evolve(spec, delta, states)
        for k in orders:
            quad = QuadratureSpec(k, max(k, 2), 2)
            err = worst(higher_order(spec, delta, quad), refs)
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
    if deltas and (negative := [d for d in deltas if d < 0]):
        raise CliError(f"--deltas must be nonnegative, got {negative[0]:g}")
    if orders and args.delta is None:
        raise CliError("an order sweep requires --delta")
    rows = sweep_rows(spec, deltas, orders, args.delta, args.samples)
    lines = [f"{rows[0][0]},error,bound"]
    for _, p, err, bound in rows:
        lines.append(f"{p:.12g},{err:.12e},{bound:.12e}")
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args writes only
    to the fresh Namespace it returns, so in-process calls share no state."""
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
    # --cap holds for this one command; the reset keeps it from the next call
    token = command_cap.set(getattr(args, "cap", None))
    try:
        return args.func(args)
    except (CliError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        command_cap.reset(token)


if __name__ == "__main__":
    sys.exit(main())
