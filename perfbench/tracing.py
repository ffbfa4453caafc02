"""Per-layer tracing from outside the program.

`Tracer.install` replaces public functions of the qchanc modules with
wrappers, in every module namespace that holds them, so names re-bound
by `from ... import` in cli, synth, lindblad and select_opt are traced
too.  A span wrapper records (name, start, end, parent span, op id); the
hottest inner calls get count-only wrappers that record no span.  Spans
stay in memory until `write`.  Wrappers record only while `active` is
set, so the benchmark's own correctness checks are not traced.
"""

import json
import time
from collections import Counter, defaultdict

# layer (module) -> functions that get a span
SPANS = {
    "cli": ("main", "load_input", "lower_input", "compile_pipeline",
            "_select_audits", "_dump", "verify_stats", "sweep_rows"),
    "pauli": ("pauli_decompose",),
    "ir": ("typecheck", "eval_kraus", "apply_channel", "channel_distance",
           "probe_states", "trace_distance", "channel_to_json",
           "channel_from_json", "lindblad_to_json", "lindblad_from_json"),
    "rewrite": ("simplify", "minimize_kraus_rank", "apply_rule",
                "trace_to_json"),
    "lindblad": ("first_order", "higher_order", "exact_propagator",
                 "lindblad_opnorm", "propagate"),
    "circuits": ("run_channel", "system_isometry", "apply_circuit",
                 "cost_report", "circuit_to_json", "circuit_from_json"),
    "select_opt": ("optimize_pauli_select", "greedy_basis_selection",
                   "assign_additional_modes", "invert_modes_with_phases",
                   "build_monotone_select", "naive_select", "flatten_select",
                   "mode_table_json", "g_table_json"),
    "synth": ("channel_lcu", "channel_alphas", "encode_kraus_gates",
              "block_encode", "prepare_pair"),
}

# called up to millions of times per pass: counted, never spanned
COUNTS = {
    "pauli": ("canonicalize_sum",),
    "rewrite": ("proportionality", "canonical_kraus"),
    "select_opt": ("Gf2Span.contains",),
}


def _on_optimize(tr, args, result):
    terms = args[0]
    tr.sums["select_opt.terms_in"] += len(terms)
    tr.distinct["select_opt.optimize"].add(tuple(terms))


def _on_decompose(tr, args, result):
    tr.sums["pauli.decompose.kept"] += len(result.terms)
    tr.sums["pauli.decompose.scanned"] += 4 ** result.n


def _on_minimize(tr, args, result):
    tr.sums["rewrite.kraus_in"] += len(args[0].kraus)
    tr.sums["rewrite.kraus_out"] += len(result[0].kraus)


def _on_run_channel(tr, args, result):
    tr.maxes["circuits.sim_qubits_max"] = max(
        tr.maxes.get("circuits.sim_qubits_max", 0), args[0].total_qubits)


def _on_dump(tr, args, result):
    tr.sums["cli.bytes_out"] += len(result.encode())


# qualified name -> hook(tracer, args, result) recording sizes and counts
HOOKS = {
    "select_opt.optimize_pauli_select": _on_optimize,
    "pauli.pauli_decompose": _on_decompose,
    "rewrite.minimize_kraus_rank": _on_minimize,
    "circuits.run_channel": _on_run_channel,
    "cli._dump": _on_dump,
}


class Tracer:
    def __init__(self):
        self.active = False
        self.op = None
        self.spans = []  # (name, start, end, parent index or -1, op)
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self.calls = Counter()
        self.reset_counts()

    def reset_counts(self):
        self.calls.clear()  # cleared in place: count wrappers hold it
        self.sums = defaultdict(float)
        self.maxes = {}
        self.distinct = defaultdict(set)

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, name, fn):
        hook = HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent, self.op)
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _count_wrapper(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            if self.active:
                calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, modules):
        """Wrap the SPANS and COUNTS functions of `modules` (name -> module)."""
        for table, make in ((SPANS, self._span_wrapper),
                            (COUNTS, self._count_wrapper)):
            for layer, names in table.items():
                for attr in names:
                    owner = modules[layer]
                    if "." in attr:  # a method: patch the class only
                        cls_name, attr = attr.split(".")
                        owner = getattr(owner, cls_name)
                        original = getattr(owner, attr)
                        self._patch(owner, attr, make(f"{layer}.{cls_name}.{attr}", original))
                        continue
                    original = getattr(owner, attr)
                    wrapper = make(f"{layer}.{attr}", original)
                    for mod in modules.values():
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- aggregation ----------------------------------------------------

    def aggregate(self, first):
        """Inclusive and self seconds per span name, and self seconds per
        layer, over spans[first:] (one pass)."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        incl, self_s, layer_self = defaultdict(float), defaultdict(float), defaultdict(float)
        calls = Counter()
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            own = dur - child[i]
            self_s[name] += own
            layer_self[name.split(".", 1)[0]] += own
            # inclusive time counts only the outermost of nested same-name spans
            p = parent
            while p >= first and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < first:
                incl[name] += dur
        return incl, self_s, layer_self, calls

    def write(self, path):
        names = {}
        rows = []
        for name, start, end, parent, op in self.spans:
            rows.append([names.setdefault(name, len(names)), round(start, 7),
                         round(end, 7), parent, op])
        path.write_text(json.dumps({"names": list(names), "spans": rows}))
