"""The benchmark's workloads: the instances each one generates and the CLI
operations of one pass.

Every operation is one `qchanc` command line.  Instance files come from
`qchanc bench` (plus, for `simulate`, channels lowered in set-up), so the
program only ever sees generated files.  The workload seed is the
`--seed` of every `hypercube` and `rndpauli` instance; the Lindblad
families have no randomness.  README.md says why each workload exists.
"""

from dataclasses import dataclass, replace

FIRST = ("--frontend", "first", "--delta", "0.01")
CHANNEL = ("--frontend", "channel")
ORDER2 = ("--frontend", "order:2,2,2", "--delta", "0.01")
ORDER3 = ("--frontend", "order:3,3,2", "--delta", "0.01")
ORDER122 = ("--frontend", "order:1,2,2", "--delta", "0.01")
FLAT_ORDER = ("--flatten", "--order")
FLAT_ORDER_MIN = FLAT_ORDER + ("--minimize-rank",)
SAMPLES = ("--samples", "8")


@dataclass(frozen=True)
class Op:
    """One CLI command of a pass.

    `kind` is compile | verify | rewrite | sweep.  `args` are the command's
    arguments with `@name` standing for the file of instance `name`,
    `@@id` for the circuit written by compile op `id`, and `%out` for this
    op's own output path.  The first argument is the op's input.
    """

    id: str
    kind: str
    args: tuple
    group: str = ""  # which part of its workload the op belongs to


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple
    warmup: tuple  # small ops run in set-up, outside the measurement

    def instances(self):
        """Instance names the ops read, in first-use order."""
        names = (a[1:] for op in self.ops + self.warmup for a in op.args
                 if a.startswith("@") and not a.startswith("@@"))
        return list(dict.fromkeys(names))


def instance_argv(name: str, seed: int) -> tuple:
    """`qchanc bench` arguments for a named instance.

    A `+k` suffix on a hypercube or rndpauli name draws it with seed + k.
    """
    name, _, offset = name.partition("+")
    seed += int(offset or 0)
    if name == "decay":
        return ("decay", "--gamma", "1", "--nbar", "0.5")
    if name.startswith("tfim"):
        return ("tfim", "--sites", name[4:], "--gamma", "1")
    if name.startswith("hc"):
        return ("hypercube", "--vertices", name[2:], "--seed", str(seed))
    if name.startswith("rp"):  # rp<sites>x<terms>
        sites, terms = name[2:].split("x")
        return ("rndpauli", "--sites", sites, "--terms", terms,
                "--seed", str(seed))
    raise KeyError(name)


# channels lowered from a spec in set-up: name -> (spec instance, frontend, delta)
LOWERED = {
    "tfim4o221": ("tfim4", "order:2,2,1", 0.01),  # 21 Kraus operators
    "tfim3o2": ("tfim3", "order:2,2,2", 0.01),  # 43 Kraus operators
    "tfim2o3": ("tfim2", "order:3,3,2", 0.01),  # 85 Kraus operators
}


def _compile(inst, frontend, flags=(), tag=""):
    suffix = tag or "plain"
    return Op(f"compile:{inst}:{suffix}", "compile",
              (f"@{inst}",) + frontend + flags + ("--out", "%out"))


def _verify_op(compile_op):
    inst = compile_op.args[0][1:]
    spec = not inst.startswith(("hc", "rp"))  # a Lindblad spec needs --delta
    return Op(compile_op.id.replace("compile:", "verify:", 1), "verify",
              (f"@@{compile_op.id}", "--reference", f"@{inst}")
              + (("--delta", "0.01") if spec else ()) + SAMPLES)


def _sweep(inst, tag, args):
    return Op(f"sweep:{inst}:{tag}", "sweep",
              (f"@{inst}",) + args + SAMPLES + ("--out", "%out"))


def _rewrite(inst):
    return Op(f"rewrite:{inst}", "rewrite",
              (f"@{inst}", "--minimize-rank", "--out", "%out"))


def _first_order():
    ops = []
    settings = (((), ""), (FLAT_ORDER, "fo"), (FLAT_ORDER_MIN, "fom"))
    for inst in [f"tfim{n}" for n in range(2, 9)] + ["decay"]:
        ops += [_compile(inst, FIRST, f, t) for f, t in settings]
    # two hypercube-32 draws: rank-minimization time varies with the
    # draw, and one hypercube-64 draw moved the pass by up to 20%
    for inst in ("hc8", "hc32", "hc32+1", "rp6x16", "rp6x64"):
        ops += [_compile(inst, CHANNEL, f, t) for f, t in settings]
    return ops


def _higher_order():
    return [_compile("tfim2", ORDER2, FLAT_ORDER, "o2-fo"),
            _compile("tfim2", ORDER2, FLAT_ORDER_MIN, "o2-fom"),
            _compile("tfim2", ORDER3, FLAT_ORDER, "o3-fo"),
            _compile("tfim3", ORDER122, FLAT_ORDER, "o122-fo"),
            _compile("rp6x128", CHANNEL, FLAT_ORDER, "fo"),
            _compile("rp6x128+1", CHANNEL, FLAT_ORDER, "fo")]


def _verify():
    compiles = (
        _compile("tfim2", FIRST),
        _compile("tfim3", FIRST),
        _compile("tfim4", FIRST),
        _compile("tfim3", FIRST, FLAT_ORDER_MIN, "fom"),
        _compile("decay", FIRST),
        _compile("hc4", CHANNEL),
        _compile("hc8", CHANNEL),
        _compile("hc4", CHANNEL, FLAT_ORDER, "fo"),
        _compile("rp5x16", CHANNEL),
        _compile("tfim2", ORDER2, FLAT_ORDER_MIN, "o2-fom"),
    )
    return [op for c in compiles for op in (c, _verify_op(c))]


def _frontend():
    return [
        _sweep("tfim2", "orders", ("--orders", "1,2,3", "--delta", "0.05")),
        _sweep("tfim3", "order1", ("--orders", "1", "--delta", "0.05")),
        _sweep("tfim3", "order2", ("--orders", "2", "--delta", "0.05")),
        _sweep("tfim4", "deltas", ("--deltas", "0.04,0.02,0.01,0.005")),
        _rewrite("tfim4o221"),
        _rewrite("tfim3o2"),
        _rewrite("tfim2o3"),
    ]


def _workload(name, groups, warmup):
    ops = tuple(replace(op, group=group)
                for group, build in groups for op in build())
    return Workload(name, ops, warmup)


_WARM = _compile("decay", FIRST)
WORKLOADS = {w.name: w for w in (
    _workload("compile",
              (("first-order", _first_order), ("higher-order", _higher_order)),
              (_compile("tfim2", FIRST, FLAT_ORDER_MIN, "fom"),
               _compile("tfim2", ORDER2, FLAT_ORDER, "o2-fo"))),
    _workload("simulate",
              (("verify", _verify), ("frontend", _frontend)),
              (_WARM, _verify_op(_WARM),
               _sweep("decay", "deltas", ("--deltas", "0.02,0.01")),
               _rewrite("hc4"))),
)}
# the op groups, in the order their workloads run them
GROUPS = tuple(dict.fromkeys(op.group for w in WORKLOADS.values()
                             for op in w.ops))
