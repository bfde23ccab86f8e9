"""Per-layer tracing of the lbochner package, from outside the package.

    python3 layertrace.py PLAN_JSON RESULT_JSON SPANS_PATH

Imports lbochner, wraps every function and class method each layer module
defines (and every binding of it made by ``from .x import y`` elsewhere in
the package), counts ``Fraction`` constructions, then runs the plan's
commands in this one process through ``cli.main``.  A wrapped call opens a
span (name, start, end, parent, command id) when it crosses from one layer
into another; calls inside the caller's own layer are counted but open no
span, which keeps the span store small.  Spans stay in memory and are
written to SPANS_PATH (gzipped JSON lines) when the run ends.  A layer's
self time is its spans' durations minus the time their child spans cover.

``run_traced`` drives that process from the benchmark and turns its result
into the per-layer metrics.
"""

from __future__ import annotations

import gzip
import inspect
from array import array
import json
import os
import subprocess
import sys
import time

import workloads

LAYER_OF_MODULE = {
    "lbochner.cli": "cli",
    "lbochner.falgebra": "falgebra",
    "lbochner._kernel._pykernel": "kernel",
    "lbochner.certified": "certified",
    "lbochner.lmodule": "lmodule",
    "lbochner.measure": "measure",
    "lbochner.bochner": "bochner",
    "lbochner.vecmeasure": "vecmeasure",
    "lbochner.duality": "duality",
    "lbochner.sampling": "sampling",
    "lbochner.serialize": "serialize",
    "lbochner.reports": "reports",
}
LAYERS = tuple(LAYER_OF_MODULE.values())
# methods wrapped besides public ones: arithmetic, order, construction.
# Properties and equality are left alone (their time counts to the caller):
# wrapping such millions of tiny calls would mostly measure the wrapper.
DUNDERS = {"__init__", "__post_init__", "__add__", "__sub__", "__mul__",
           "__neg__", "__abs__", "__le__", "__ge__", "__getitem__",
           "__call__", "__or__", "__and__", "__xor__"}
# scalar-algebra operations counted as falgebra.ops (the module-level
# add/sub/mul/neg/abs_/leq only delegate to the methods)
FALGEBRA_OPS = {f"falgebra.LElement.{m}" for m in (
    "__add__", "__sub__", "__mul__", "__neg__", "__abs__", "__le__",
    "__ge__", "scale")} | {f"falgebra.{f}" for f in (
        "sup", "inf", "sgn", "pow_int", "recip", "axpy", "root")}
PAIRINGS = {"duality.pairing", "duality.LpOperator.__call__"}

# deterministic counts: equal across two traced runs of one seed
COUNT_METRICS = (
    "duality.calls", "duality.pairings", "certified.root_brackets",
    "certified.chain_calls", "certified.exact_roots",
    "certified.max_radicand_bits", "falgebra.ops", "falgebra.max_bits",
    "kernel.calls", "fractions.constructed", "sampling.calls",
    "serialize.bytes", "reports.bytes", "measure.calls",
    "vecmeasure.calls", "bochner.calls", "lmodule.calls",
)
SELF_METRICS = tuple(f"{layer}.self_s" for layer in (
    "duality", "certified", "falgebra", "kernel", "sampling", "serialize",
    "reports", "measure", "vecmeasure", "bochner", "lmodule", "cli"))
_UNITS = {"max_radicand_bits": "bits", "max_bits": "bits",
          "bytes": "bytes"}


class Tracer:
    """Span store and counters for one traced process."""

    def __init__(self):
        self.names: list = []          # name id -> qualified name
        self.name_calls: list = []     # name id -> call count
        # one entry per span; times in perf_counter nanoseconds
        self.starts = array("q")
        self.ends = array("q")
        self.span_name = array("i")
        self.parents = array("q")
        self.span_cmd = array("i")
        self.stack = [(-1, -1)]        # (layer id, span index)
        self.cmd = -1
        self.extra = {"certified.exact_roots": 0,
                      "certified.max_radicand_bits": 0,
                      "falgebra.max_bits": 0, "fractions.constructed": 0,
                      "serialize.bytes": 0, "reports.bytes": 0}
        self.layer_of_name: list = []

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.name_calls.append(0)
        self.layer_of_name.append(LAYERS.index(layer))
        return len(self.names) - 1

    def wrap(self, fn, layer: str, name: str):
        nid = self._name_id(name, layer)
        lid = LAYERS.index(layer)
        post = _POST_HOOKS.get(name) or (
            _max_bits_hook if name in FALGEBRA_OPS else None)
        name_calls, stack = self.name_calls, self.stack
        starts, ends, span_name = self.starts, self.ends, self.span_name
        parents, span_cmd = self.parents, self.span_cmd
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            name_calls[nid] += 1
            top_layer, top_span = stack[-1]
            if top_layer == lid:
                result = fn(*args, **kwargs)
            else:
                idx = len(starts)
                span_name.append(nid)
                parents.append(top_span)
                span_cmd.append(tracer.cmd)
                ends.append(0)
                stack.append((lid, idx))
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()
            if post is not None:
                post(tracer, args, result)
            return result

        return traced

    def self_times(self) -> dict:
        """Seconds per layer: span durations minus child-span coverage."""
        starts, ends = self.starts, self.ends
        covered = [0] * len(starts)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += ends[idx] - starts[idx]
        out = [0] * len(LAYERS)
        layer_of_name = self.layer_of_name
        for idx, nid in enumerate(self.span_name):
            out[layer_of_name[nid]] += ends[idx] - starts[idx] - covered[idx]
        return {layer: ns / 1e9 for layer, ns in zip(LAYERS, out)}

    def calls_by_layer(self) -> dict:
        out = dict.fromkeys(LAYERS, 0)
        for nid, n in enumerate(self.name_calls):
            out[LAYERS[self.layer_of_name[nid]]] += n
        return out

    def calls_named(self, names) -> int:
        return sum(n for nid, n in enumerate(self.name_calls)
                   if self.names[nid] in names)

    def write_spans(self, path: str) -> None:
        """Gzipped text: a JSON line with the span names, then one line per
        span, "name_id start_ns end_ns parent_index command_id"."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            rows = zip(self.span_name, self.starts, self.ends, self.parents,
                       self.span_cmd)
            fh.writelines(f"{n} {s} {e} {p} {c}\n" for n, s, e, p, c in rows)


def _max_bits_hook(tracer, args, result):
    if hasattr(result, "nums"):
        bits = max(max(map(int.bit_length, result.nums)),
                   max(map(int.bit_length, result.dens)))
        if bits > tracer.extra["falgebra.max_bits"]:
            tracer.extra["falgebra.max_bits"] = bits


def _root_bracket_hook(tracer, args, result):
    radicand = args[0]
    bits = max(radicand.numerator.bit_length(),
               radicand.denominator.bit_length())
    extra = tracer.extra
    if bits > extra["certified.max_radicand_bits"]:
        extra["certified.max_radicand_bits"] = bits
    if result[0] == result[1]:
        extra["certified.exact_roots"] += 1


def _load_json_hook(tracer, args, result):
    tracer.extra["serialize.bytes"] += os.path.getsize(args[0])


def _report_bytes_hook(tracer, args, result):
    tracer.extra["reports.bytes"] += len(result)


def _csv_bytes_hook(tracer, args, result):
    tracer.extra["reports.bytes"] += len(result.encode("utf-8"))


_POST_HOOKS = {
    "certified.root_bracket": _root_bracket_hook,
    "serialize.load_json": _load_json_hook,
    "reports.report_to_json_bytes": _report_bytes_hook,
    "reports.series_to_csv": _csv_bytes_hook,
}


def _wrap_class(tracer, cls, layer):
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_") and attr not in DUNDERS:
            continue
        name = f"{layer}.{cls.__name__}.{attr}"
        if inspect.isfunction(member):
            setattr(cls, attr, tracer.wrap(member, layer, name))
        elif isinstance(member, (classmethod, staticmethod)):
            setattr(cls, attr, type(member)(
                tracer.wrap(member.__func__, layer, name)))


def install(tracer: Tracer) -> None:
    """Wrap every layer; rebind each wrapped function wherever it is bound."""
    import enum
    import fractions

    import lbochner.cli  # noqa: F401  (imports every layer)

    wrapped = {}
    for modname, layer in LAYER_OF_MODULE.items():
        module = sys.modules[modname]
        for attr, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != modname:
                continue
            if inspect.isfunction(obj):
                wrapped[obj] = tracer.wrap(obj, layer, f"{layer}.{attr}")
            elif (inspect.isclass(obj)
                  and not issubclass(obj, (BaseException, enum.Enum))):
                _wrap_class(tracer, obj, layer)
    for modname, module in list(sys.modules.items()):
        if modname != "lbochner" and not modname.startswith("lbochner."):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])

    original_new = fractions.Fraction.__new__
    extra = tracer.extra

    def counting_new(cls, *args, **kwargs):
        extra["fractions.constructed"] += 1
        return original_new(cls, *args, **kwargs)

    fractions.Fraction.__new__ = staticmethod(counting_new)


def _traced_main(plan_path: str, result_path: str, spans_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = Tracer()
    install(tracer)
    from lbochner import cli

    commands = []
    for cmd_id, argv in enumerate(plan):
        tracer.cmd = cmd_id
        t0 = time.perf_counter()
        rc = cli.main(argv)
        commands.append({"rc": rc, "compute_s": time.perf_counter() - t0})

    self_s = tracer.self_times()
    calls = tracer.calls_by_layer()
    metrics = dict(tracer.extra)
    metrics.update({f"{layer}.calls": calls[layer] for layer in LAYERS})
    metrics["duality.pairings"] = tracer.calls_named(PAIRINGS)
    metrics["certified.root_brackets"] = tracer.calls_named(
        {"certified.root_bracket"})
    metrics["certified.chain_calls"] = tracer.calls_named(
        {"certified._pow_via_chain"})
    metrics["falgebra.ops"] = tracer.calls_named(FALGEBRA_OPS)
    metrics.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
    tracer.write_spans(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"commands": commands, "metrics": metrics}, fh)
    return 0


def run_traced(cmds, workdir, first_round, env, timeout) -> dict:
    """Run the workload's commands once, traced, in one fresh process.

    Every report must equal the untraced first round's bytes.  Returns the
    per-layer metrics, the traced compute time and the command tally."""
    outs = [workloads.output_path(cmd) + ".traced" for cmd in cmds]
    plan = [[out if arg == workloads.output_path(cmd) else arg
             for arg in cmd.argv] for cmd, out in zip(cmds, outs)]
    plan_path = os.path.join(workdir, "trace-plan.json")
    result_path = os.path.join(workdir, "trace-result.json")
    spans_path = os.path.join(os.path.dirname(workdir),
                              f"spans-{os.path.basename(workdir)}.jsonl.gz")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    subprocess.run([sys.executable, os.path.abspath(__file__), plan_path,
                    result_path, spans_path], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=timeout)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    failed, problems = 0, []
    for cmd, out, ran in zip(cmds, outs, result["commands"]):
        same = False
        if os.path.exists(out):
            with open(out, "rb") as fh:
                same = fh.read() == first_round[cmd.name]
        if not same:
            problems.append(f"{cmd.name}: traced report differs from untraced")
        if not same or ran["rc"] != 0:
            failed += 1
    raw = result["metrics"]
    metrics = {}
    for name in SELF_METRICS:
        metrics[name] = {"value": raw[name], "unit": "s"}
    for name in COUNT_METRICS:
        metrics[name] = {"value": raw[name],
                         "unit": _UNITS.get(name.split(".", 1)[1], "count")}
    return {"attempted": len(cmds), "failed": failed, "problems": problems,
            "metrics": metrics,
            "compute_s": sum(c["compute_s"] for c in result["commands"])}


if __name__ == "__main__":
    sys.exit(_traced_main(*sys.argv[1:4]))
