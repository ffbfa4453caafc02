"""qchanc benchmark: run one workload of real CLI commands and print metrics.

    python3 perfbench/run.py --workload compile --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout (the directory holding `src/qchanc`
and `BENCHMARK.json`).  Each operation is an in-process
`qchanc.cli.main([...])` call on files generated in set-up, timed with
`time.perf_counter`; correctness checks and output digests are taken
after each pass, outside the timed region.  Passes repeat until the next
one would end past `--seconds` of measured time (at least one pass), and
each op's latency is its median over the passes.

The last line of standard output is the result JSON.  With `--trace 0` it
holds the `end_to_end` metrics of BENCHMARK.json, with `--trace 1` the
`per_layer` ones from a traced run (see tracing.py).  A fuller record
(environment, per-op samples, digests) goes to
`.perfbench/<workload>-seed<n>-trace<t>/result.json`.  README.md explains
the workloads and metrics.
"""

import os

# Pin BLAS/OpenMP pools before anything imports numpy: unpinned threads
# made the same op vary by up to 2x on a 2-core box.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"
# the dense-verification cap stays at the program's default of 14 qubits
os.environ.pop("QCHANC_CAP", None)

import argparse
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from tracing import SPANS, Tracer
from workloads import GROUPS, LOWERED, WORKLOADS, instance_argv

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
CHANNEL_TOL = 1e-9  # verify checks against a channel reference
# Rank minimization drops Gram eigenvalues below 1e-9 of the largest, and
# the largest is at most the dimension for a trace-preserving channel, so
# each dropped operator may move the normalized Choi matrix by up to 1e-9.
RANK_RTOL = 1e-9
COMMAND = {"compile": "compile", "verify": "verify", "rewrite": "rewrite",
           "sweep": "error-sweep"}
OUT_KEYS = ("t_count", "weighted_control_cost", "gates", "ancillas",
            "alpha_sq_sum")


class BenchError(Exception):
    """The checkout cannot be benchmarked (no program, or set-up failed)."""


SRC = ROOT / "src"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import qchanc.cli; "
                "print(time.perf_counter() - t)")


def import_program():
    """Import qchanc from this checkout's src/; returns name -> module."""
    if not (SRC / "qchanc" / "cli.py").is_file():
        raise BenchError(f"no qchanc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module(f"qchanc.{name}")
            for name in list(SPANS) + ["bench"]}
    if Path(mods["cli"].__file__).resolve().parent != SRC / "qchanc":
        raise BenchError(f"imported qchanc from {mods['cli'].__file__}")
    return mods


def import_seconds():
    """Seconds a fresh interpreter takes to import qchanc.cli."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"importing qchanc failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


def median(xs):
    return statistics.median(xs) if xs else 0.0


def quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3


class Bench:
    """Runs one workload's ops and keeps its failure counts and digests."""

    def __init__(self, mods, workload, seed):
        self.cli = mods["cli"]
        self.ir = mods["ir"]
        self.workload = workload
        self.seed = seed
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digests = {}  # op id -> digest of its first pass
        self._checked = {}  # (op id, digests) -> result of _check

    # -- set-up ----------------------------------------------------------

    def setup(self, base):
        """Generate instance files under `base`, then run the warm-up ops.

        Returns (instance paths, generation seconds, set-up seconds); the
        set-up seconds include a fresh interpreter's import of qchanc."""
        imported = import_seconds()
        start = time.perf_counter()
        inputs = base / "inputs"
        paths = {}
        names = self.workload.instances()
        specs = [LOWERED[n][0] for n in names if n in LOWERED]
        for name in dict.fromkeys(specs + [n for n in names if n not in LOWERED]):
            buf = io.StringIO()
            with redirect_stdout(buf):
                rc = self.cli.main(["bench", *instance_argv(name, self.seed),
                                    "--out", str(inputs)])
            if rc != 0:
                raise BenchError(f"qchanc bench failed for {name}")
            paths[name] = buf.getvalue().strip()
        for name in names:
            if name in LOWERED:
                spec, frontend, delta = LOWERED[name]
                chan = self.cli.lower_input(self.cli.load_input(paths[spec]),
                                            frontend, delta)
                path = inputs / f"{name}.json"
                path.write_text(json.dumps(
                    self.ir.channel_to_json(chan), sort_keys=True))
                paths[name] = str(path)
        generate = time.perf_counter() - start
        self.run_pass(self.workload.warmup, paths, base / "warmup", digest=False)
        return paths, generate, imported + time.perf_counter() - start

    # -- operations ------------------------------------------------------

    def _out_path(self, op, outdir):
        stem = outdir / op.id.replace(":", "_")
        return {"compile": stem, "rewrite": stem.with_suffix(".json"),
                "sweep": stem.with_suffix(".csv")}.get(op.kind)

    def _argv(self, op, paths, outdir):
        argv = [COMMAND[op.kind]]
        for a in op.args:
            if a.startswith("@@"):
                argv.append(str(outdir / a[2:].replace(":", "_") / "circuit.json"))
            elif a.startswith("@"):
                argv.append(paths[a[1:]])
            elif a == "%out":
                argv.append(str(self._out_path(op, outdir)))
            else:
                argv.append(a)
        return argv

    def run_pass(self, ops, paths, outdir, digest=True, label=""):
        """Run `ops` back to back, then check each output.

        Returns the per-op seconds and the Kraus count / cost totals of the
        pass.  Failures are counted on `self`."""
        outdir.mkdir(parents=True, exist_ok=True)
        timed = []
        tr = self.tracer
        for op in ops:
            argv = self._argv(op, paths, outdir)
            buf = io.StringIO()
            if tr is not None:
                tr.op = f"{label}{op.id}"
                tr.active = True
            start = time.perf_counter()
            try:
                with redirect_stdout(buf):
                    rc = self.cli.main(argv)
            except Exception:  # a traceback is a failed op, not a dead run
                traceback.print_exc()
                rc = -1
            seconds = time.perf_counter() - start
            if tr is not None:
                tr.active = False
            timed.append((op, seconds, rc, buf.getvalue()))
        totals = dict.fromkeys(("kraus_out",) + OUT_KEYS, 0.0)
        totals["verify_err_max"] = 0.0
        for op, seconds, rc, stdout in timed:
            self.attempted += 1
            why = self._judge(op, rc, stdout, paths, outdir, digest, totals)
            if why:
                self.failed += 1
                self.failures.append(f"{label}{op.id}: {why}")
                print(f"FAILED {label}{op.id}: {why}", file=sys.stderr)
        return [(op, seconds) for op, seconds, _, _ in timed], totals

    def _judge(self, op, rc, stdout, paths, outdir, digest, totals):
        """Why the op failed, or '' when it passed; adds its sizes to totals."""
        if rc != 0:
            return f"exit code {rc}"
        out = self._out_path(op, outdir)
        try:
            if op.kind == "compile":
                files = {f: (out / f).read_bytes()
                         for f in ("report.json", "circuit.json")}
            elif op.kind == "verify":
                files = {"stdout": stdout.encode()}
            else:
                files = {out.name: out.read_bytes()}
        except OSError as exc:
            return f"missing output: {exc}"
        dig = {name: sha256(data) for name, data in files.items()}
        key = (op.id, json.dumps(dig, sort_keys=True))
        if key not in self._checked:
            self._checked[key] = self._check(op, files, paths)
        why, sizes = self._checked[key]
        for name, value in sizes.items():
            if name == "verify_err_max":
                totals[name] = max(totals[name], value)
            else:
                totals[name] += value
        if digest and self.digests.setdefault(op.id, dig) != dig:
            return "output differs from the first pass"
        return why

    def _check(self, op, files, paths):
        """Correctness of one output: (why it is wrong or '', its sizes)."""
        try:
            if op.kind == "compile":
                report = json.loads(files["report.json"])
                circuit = json.loads(files["circuit.json"])
                cost = report["cost"]
                sizes = {"kraus_out": report["kraus_count"],
                         "t_count": cost["t_count"],
                         "weighted_control_cost": cost["weighted_control_cost"],
                         "gates": cost["total_gates"],
                         "ancillas": cost["ancillas"],
                         "alpha_sq_sum": report["alpha_sq_sum"]}
                if report["kraus_count"] < 1:
                    return "report has no Kraus operators", sizes
                if len(circuit["gates"]) != cost["total_gates"]:
                    return "circuit gate count differs from the report", sizes
                return "", sizes
            if op.kind == "verify":
                stats = json.loads(files["stdout"])
                err = stats["max_trace_distance"]
                # only a Lindblad-spec reference reports an analytic bound
                limit = stats.get("bound", CHANNEL_TOL)
                why = f"trace distance {err} above {limit}" if err > limit else ""
                return why, {"verify_err_max": err}
            if op.kind == "rewrite":
                doc = json.loads(next(iter(files.values())))
                after = self.ir.channel_from_json(doc["channel"])
                before = self.ir.channel_from_json(
                    json.loads(Path(paths[op.args[0][1:]]).read_text()))
                dist = self.choi_distance(before, after)
                limit = CHANNEL_TOL + len(before.kraus) * RANK_RTOL
                why = f"Choi distance {dist} above {limit}" if dist > limit else ""
                return why, {"kraus_out": len(after.kraus)}
            rows = [r.split(",") for r in
                    next(iter(files.values())).decode().splitlines()[1:]]
            bad = [r for r in rows if float(r[1]) > float(r[2])]
            if not rows or bad:
                return f"sweep rows above their bound: {bad}", {}
            return "", {}
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return f"malformed output: {exc!r}", {}

    def choi_distance(self, a, b):
        """Trace distance of the normalized Choi matrices of two channels,
        from each Kraus operator's dense matrix (ir.eval_kraus)."""
        if a.n != b.n:
            return float("inf")

        def choi(c):
            rows = np.array([self.ir.eval_kraus(k).ravel() for k in c.kraus])
            return rows.T @ rows.conj()

        diff = (choi(a) - choi(b)) / (1 << a.n)
        return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def pass_summary(timed):
    return {"total": sum(s for _, s in timed), "ops": {op.id: s for op, s in timed}}


def layer_metrics(tr, first):
    """Per-layer metrics of one traced pass (spans from index `first`)."""
    incl, self_s, layer_self, calls = tr.aggregate(first)
    opt_calls = calls["select_opt.optimize_pauli_select"]
    scanned = tr.sums["pauli.decompose.scanned"]
    m = {
        "select_opt.optimize.s": incl["select_opt.optimize_pauli_select"],
        "select_opt.optimize.calls": opt_calls,
        "select_opt.optimize.unique_ratio":
            len(tr.distinct["select_opt.optimize"]) / opt_calls if opt_calls else 0.0,
        "select_opt.greedy.s": incl["select_opt.greedy_basis_selection"],
        "select_opt.greedy.calls": calls["select_opt.greedy_basis_selection"],
        "select_opt.span_contains.calls": tr.calls["select_opt.Gf2Span.contains"],
        "select_opt.terms_in": tr.sums["select_opt.terms_in"],
        "synth.channel_lcu.self_s": self_s["synth.channel_lcu"],
        "synth.channel_lcu.calls": calls["synth.channel_lcu"],
        "synth.encode_kraus.calls": calls["synth.encode_kraus_gates"],
        "synth.channel_alphas.s": incl["synth.channel_alphas"],
        "rewrite.simplify.s": incl["rewrite.simplify"],
        "rewrite.minimize.s": incl["rewrite.minimize_kraus_rank"],
        "rewrite.proportionality.calls": tr.calls["rewrite.proportionality"],
        "rewrite.kraus_in": tr.sums["rewrite.kraus_in"],
        "rewrite.kraus_out": tr.sums["rewrite.kraus_out"],
        "pauli.decompose.s": incl["pauli.pauli_decompose"],
        "pauli.decompose.calls": calls["pauli.pauli_decompose"],
        "pauli.decompose.kept_ratio":
            tr.sums["pauli.decompose.kept"] / scanned if scanned else 0.0,
        "pauli.canonicalize_sum.calls": tr.calls["pauli.canonicalize_sum"],
        "lindblad.higher_order.self_s": self_s["lindblad.higher_order"],
        "lindblad.first_order.s": incl["lindblad.first_order"],
        "lindblad.exact_propagator.s": incl["lindblad.exact_propagator"],
        "lindblad.opnorm.s": incl["lindblad.lindblad_opnorm"],
        "circuits.run_channel.self_s": self_s["circuits.run_channel"],
        "circuits.run_channel.calls": calls["circuits.run_channel"],
        "circuits.system_isometry.s": incl["circuits.system_isometry"],
        "circuits.sim_qubits_max": tr.maxes.get("circuits.sim_qubits_max", 0),
        "circuits.cost_report.s": incl["circuits.cost_report"],
        "circuits.json.s": incl["circuits.circuit_to_json"]
            + incl["circuits.circuit_from_json"],
        "ir.apply_channel.s": incl["ir.apply_channel"],
        "ir.apply_channel.calls": calls["ir.apply_channel"],
        "ir.typecheck.s": incl["ir.typecheck"],
        "ir.json.s": sum(incl[f"ir.{f}"] for f in (
            "channel_to_json", "channel_from_json", "lindblad_to_json",
            "lindblad_from_json")),
        "cli.compile_pipeline.self_s": self_s["cli.compile_pipeline"],
        "cli.dump_s": incl["cli._dump"],
        "cli.bytes_out": tr.sums["cli.bytes_out"],
    }
    for layer in SPANS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def environment():
    import scipy
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "commit": commit,
            "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                                   "OPENBLAS_NUM_THREADS")},
            "qchanc_cap": "default"}


def percentile_summary(xs):
    """Median and the highest whole percentile with ten samples beyond it."""
    xs = sorted(xs)
    out = {"n": len(xs), "p50": median(xs)}
    if len(xs) > 10:
        k = len(xs) - 10  # 1-based rank with ten samples above it
        out[f"p{100 * k // len(xs)}"] = xs[k - 1]
    return out


def run(args):
    wl = WORKLOADS[args.workload]
    mods = import_program()
    work = ROOT / ".perfbench" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    bench = Bench(mods, wl, args.seed)

    # Set-ups and passes take turns on the allowed CPUs: the host slows one
    # vCPU at a time, so a run samples both instead of whichever it got.
    cpus = sorted(os.sched_getaffinity(0))

    def pin(turn):
        os.sched_setaffinity(0, {cpus[turn % len(cpus)]})

    setups = []
    for i in range(SETUP_REPEATS):
        pin(i)
        setups.append(bench.setup(work / f"setup{i}"))
    paths = setups[-1][0]
    setup_s = median([total for _, _, total in setups])
    generate_s = median([gen for _, gen, _ in setups])

    passes, traced, layers = [], [], []
    totals = None
    measured = 0.0

    def one(label, trace):
        nonlocal measured, totals
        pin(len(traced if trace else passes))
        first = len(bench.tracer.spans) if trace else 0
        if trace:
            bench.tracer.reset_counts()
        timed, tot = bench.run_pass(wl.ops, paths, work / "out",
                                    label=label)
        summary = pass_summary(timed)
        measured += summary["total"]
        totals = totals or tot
        (traced if trace else passes).append(summary)
        if trace:
            layers.append(layer_metrics(bench.tracer, first))
        return summary["total"]

    if args.trace:
        # untraced and traced passes alternate, so host drift hits both
        bench.tracer = Tracer()
        bench.tracer.install(mods)
        try:
            while True:
                last = one(f"p{len(passes)}:", False)
                last += one(f"t{len(traced)}:", True)
                if measured + last > args.seconds:
                    break
        finally:
            bench.tracer.uninstall()
        bench.tracer.write(work / "spans.json")
    else:
        last = one("p0:", False)
        while measured + last <= args.seconds:
            last = one(f"p{len(passes)}:", False)

    os.sched_setaffinity(0, cpus)
    pass_totals = [p["total"] for p in passes]
    samples = {op.id: [p["ops"][op.id] for p in passes] for op in wl.ops}
    # Each op's latency is its median over the passes, and every timing is
    # a sum or maximum of those.  The host's CPU speed moves by up to 2x in
    # phases from under a second to minutes; over eight or more passes the
    # medians steady a run better than per-op minima (README.md, "How a
    # run works").
    med = {i: median(xs) for i, xs in samples.items()}
    kinds = {op.id: op.kind for op in wl.ops}
    cmd = {f"{k}_s": sum(s for i, s in med.items() if kinds[i] == k)
           for k in ("compile", "verify", "rewrite", "sweep")}
    cmd["compile_max_s"] = max(
        (s for i, s in med.items() if kinds[i] == "compile"), default=0.0)
    groups = {op.id: op.group for op in wl.ops}
    group_s = {g: sum(s for i, s in med.items() if groups[i] == g)
               for g in GROUPS}
    values = {
        "setup_s": setup_s,
        "pass_s": sum(med.values()),
        "op_max_s": max(med.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "kraus_out": totals["kraus_out"],
        "bench.generate_s": generate_s,
        "out.verify_err_max": totals["verify_err_max"],
        "out.fail_ratio": bench.failed / bench.attempted,
    }
    values.update({f"cmd.{k}": v for k, v in cmd.items()})
    values.update({f"group.{g}_s": v for g, v in group_s.items()})
    values.update({f"out.{k}": totals[k] for k in OUT_KEYS})
    if layers:
        for name in layers[0]:
            values[name] = statistics.fmean(l[name] for l in layers)
        traced_med = sum(median([p["ops"][op.id] for p in traced])
                         for op in wl.ops)
        values["bench.trace_overhead_s"] = traced_med - values["pass_s"]
        values["bench.trace_overhead_ratio"] = (
            values["bench.trace_overhead_s"] / values["pass_s"])

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section}
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "passes": len(passes), "traced_passes": len(traced),
        "pass_s": {"quartiles": quartiles(pass_totals), "n": len(pass_totals)},
        "op_latency_s": percentile_summary(
            [s for p in passes for s in p["ops"].values()]),
        "op_best_s": {i: min(xs) for i, xs in samples.items()},
        "op_median_s": med,
        "op_samples_s": samples,
        "values": values, "failures": bench.failures,
        "digests": bench.digests,
        "digest": sha256(json.dumps(bench.digests, sort_keys=True).encode()),
    }
    (work / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print("diagnostics: " + json.dumps(
        {k: record[k] for k in ("passes", "traced_passes", "pass_s",
                                "op_latency_s", "digest")}
        | {"cmd": cmd, "group": group_s}, sort_keys=True))
    return {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
