#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/selftest.py [--seed N] [--workload W ...]

For each workload it runs one untraced round and then:

* negative controls: every report passes the reference checker as written,
  and fails it once one value is corrupted (a bracket endpoint nudged, an
  exact value or a count off by one, a binary float added, a verdict
  flipped, one byte changed in a rerun that must be byte-identical);
* trace determinism: two traced runs give identical deterministic counts;
* trace transparency: the traced reports equal the untraced bytes.

Exits 1 if any of these does not hold.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import shutil
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

NUDGE = Fraction(1, 2 ** 50)


def _nudge_bracket(item):
    """Shift a {value, error_bound} bracket up past its own upper end."""
    v, e = reference.q(item["value"]), reference.q(item["error_bound"])
    return {"value": str(v + 2 * e + NUDGE), "error_bound": str(e)}


def _bump(s, by=Fraction(1, 2 ** 64)):
    return str(reference.q(s) + by)


def _plus_one(n):
    return n + 1


def _sup_rep(doc):
    return next(i for i, c in enumerate(doc["checks"])
                if c["name"] == "sup-representation")


# A control is (label, path, change): the value at path in the report (or,
# for a path starting with "captured", in the captured details) is replaced
# by change(old value).  Integers in a path may be callables of the report.
FLOAT = ("extra float", (0, "details", "extra"), lambda _: 0.5)
VERDICT = ("verdict flipped", (0, "verdict"), lambda _: "FAIL")
CONTROLS = {
    "suite": [FLOAT, VERDICT,
              ("pairs_checked off by one",
               (_sup_rep, "details", "pairs_checked"), _plus_one)],
    "bootstrap": [FLOAT,
                  ("exponent off", (0, "series", 5, "exponent"), _bump),
                  ("n_max off by one", (0, "details", "n_max"), _plus_one)],
    "isometry": [FLOAT, VERDICT,
                 ("q off", (0, "details", "q"), lambda _: "2"),
                 ("trials off by one", (0, "details", "trials"), _plus_one),
                 ("gap over tolerance", (0, "series", 0, "gap", 0),
                  lambda _: "1/1024")],
    "holder": [FLOAT, VERDICT,
               ("rhs bracket nudged", ("captured", "rhs", 0), _nudge_bracket),
               ("exact lhs off", ("captured", "lhs", 1), _bump)],
    "minkowski": [FLOAT, VERDICT,
                  ("rhs bracket nudged", ("captured", "rhs", 0),
                   _nudge_bracket),
                  ("lhs bracket nudged", ("captured", "lhs", 2),
                   _nudge_bracket)],
    "sup_rep": [FLOAT, VERDICT,
                ("max_at_full_space corrupted",
                 (0, "details", "max_at_full_space", 0),
                 lambda v: _nudge_bracket(v) if isinstance(v, dict)
                 else _bump(v)),
                ("subsets off by one", (0, "details", "subsets"), _plus_one)],
    "density": [FLOAT, VERDICT,
                ("verified_sets off by one", (1, "details", "verified_sets"),
                 _plus_one),
                ("row mu off", (0, "series", 77, "mu"), _bump),
                ("row norm off", (0, "series", 500, "value_norm", 1), _bump)],
    "variation": [FLOAT, VERDICT,
                  ("variation off", (0, "details", "variation", 0), _bump),
                  ("exhaustive_checked false",
                   (0, "details", "exhaustive_checked"), lambda _: False)],
}


def _controls(cmd):
    if cmd.check != "bootstrap":
        return CONTROLS[cmd.check]
    if cmd.known_fault:
        return CONTROLS["bootstrap"] + [
            ("witness stage changed", (0, "witness", "stage"),
             lambda _: "chain")]
    return CONTROLS["bootstrap"] + [VERDICT]


def _corrupt(doc, stats, path, change):
    if path[0] == "captured":
        node, path = stats["captured"][0]["details"], path[1:]
    else:
        node, path = doc["checks"], path
    keys = [k(doc) if callable(k) else k for k in path]
    for key in keys[:-1]:
        node = node[key]
    last = keys[-1]
    node[last] = change(node.get(last) if isinstance(node, dict)
                        else node[last])


def _encode(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def negative_controls(results, failures):
    for r in results:
        cmd, data, stats = r["cmd"], r["data"], r["stats"]
        doc = reference.parse_report(data)
        if _encode(doc) != data:
            failures.append(f"{cmd.name}: re-encoding changes the report")
        base = reference.check_command(cmd, data, stats)
        if base:
            failures.append(f"{cmd.name}: clean report fails: {base}")
            continue
        for label, path, change in _controls(cmd):
            bad_doc, bad_stats = copy.deepcopy(doc), copy.deepcopy(stats)
            _corrupt(bad_doc, bad_stats, path, change)
            problems = reference.check_command(cmd, _encode(bad_doc),
                                               bad_stats)
            status = "fails as it must" if problems else "NOT CAUGHT"
            print(f"  control {cmd.name}: {label}: {status}")
            if not problems:
                failures.append(f"{cmd.name}: control '{label}' not caught")
    # byte identity: a rerun that differs by one space, which leaves the
    # parsed document (and so the reference checker) unchanged
    for r in results:
        if r["cmd"].same_as is None:
            continue
        bad = [dict(x) for x in results]
        target = next(x for x in bad if x["cmd"] is r["cmd"])
        target["data"] = target["data"].replace(b'{"', b'{ "', 1)
        problems: list = []
        run._judge(bad, None, problems)
        status = "fails as it must" if problems else "NOT CAUGHT"
        print(f"  control {r['cmd'].name}: one byte added: {status}")
        if not problems:
            failures.append(f"{r['cmd'].name}: byte-identity control")


def trace_checks(cmds, root, workdir, first_round, failures):
    env = run._child_env(root)
    runs = [layertrace.run_traced(cmds, workdir, first_round, env, 600)
            for _ in range(2)]
    for traced in runs:
        for p in traced["problems"]:
            failures.append(f"trace: {p}")
    a, b = (t["metrics"] for t in runs)
    for name in layertrace.COUNT_METRICS:
        same = a[name]["value"] == b[name]["value"]
        print(f"  {name:30s} {a[name]['value']:>10} "
              f"{'repeats' if same else 'DIFFERS: %s' % b[name]['value']}")
        if not same:
            failures.append(f"trace: {name} differs between traced runs")
    print(f"  traced reports equal untraced bytes: "
          f"{not any(t['problems'] for t in runs)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append",
                    choices=workloads.WORKLOADS)
    args = ap.parse_args()
    root = os.path.dirname(HERE)
    deadline = run.Deadline(3600)
    run._prepare(root, deadline)
    failures: list = []
    for workload in args.workload or workloads.WORKLOADS:
        print(f"{workload} (seed {args.seed})")
        workdir = os.path.join(root, ".bench_build", "perfbench",
                               f"selftest-{workload}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        cmds = workloads.build(workload, args.seed, workdir)
        results = run._run_round(cmds, root, workdir, deadline)
        if not all(r["ok"] for r in results):
            failures.append(f"{workload}: a command did not run")
            continue
        negative_controls(results, failures)
        trace_checks(cmds, root, workdir,
                     {r["cmd"].name: r["data"] for r in results}, failures)
        shutil.rmtree(workdir, ignore_errors=True)
    for f in failures:
        print(f"FAILED: {f}")
    print("selftest:", "FAIL" if failures else "PASS")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
