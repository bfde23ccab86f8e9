#!/usr/bin/env python3
"""End-to-end benchmark of the lbochner command line.

    python3 perfbench/run.py --workload {suite,roots,exhaustive} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
``src`` directory.  The run writes its inputs from the seed, measures set-up
time, then repeats whole rounds of the workload's commands, each in a fresh
interpreter, until S seconds have passed.  The first round's reports go
through the reference checker; later rounds must reproduce them byte for
byte.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (wall_s, compute_s,
setup_s, peak_rss_mb, medians over rounds); with ``--trace 1`` they are the
per-layer ones from one extra in-process round with every layer wrapped.
A human-readable summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

HARD_LIMIT_S = 170      # the whole run, set-up and trace included
SETUP_PROBES_PER_ROUND = 3
SETUP_SNIPPET = "import lbochner.cli as c; c.build_parser()"


def _checkout_root() -> str:
    return os.path.dirname(HERE)


def _child_env(root: str, hashseed=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    # bytecode goes under the build directory, so every timed process
    # starts from compiled modules whether or not the tree is writable
    env["PYTHONPYCACHEPREFIX"] = os.path.join(root, ".bench_build", "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if hashseed is None:
        env.pop("PYTHONHASHSEED", None)
    else:
        env["PYTHONHASHSEED"] = hashseed
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def _run(argv, env, deadline: Deadline) -> tuple:
    """Run argv to completion; returns (exit code, wall seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE,
                          timeout=max(1.0, deadline.left()))
    wall = time.perf_counter() - t0
    if proc.returncode != 0 and proc.stderr:
        sys.stderr.write(proc.stderr.decode("utf-8", "replace")[-2000:])
    return proc.returncode, wall


def _prepare(root: str, deadline: Deadline) -> None:
    """Compile and import once; refuse a tree whose package is elsewhere."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "lbochner", "cli.py")):
        raise SystemExit(f"error: no lbochner sources under {src}")
    probe = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET + "; print(c.__file__)"],
        env=_child_env(root), capture_output=True, text=True,
        timeout=max(1.0, deadline.left()))
    where = probe.stdout.strip()
    if probe.returncode != 0 or not where.startswith(src + os.sep):
        raise SystemExit(f"error: lbochner did not import from {src}: "
                         f"{probe.stderr.strip() or where}")


def _setup_probe(root: str, deadline: Deadline) -> float:
    """Wall time of a fresh interpreter importing the CLI and building its
    parser."""
    rc, wall = _run([sys.executable, "-c", SETUP_SNIPPET], _child_env(root),
                    deadline)
    if rc != 0:
        raise SystemExit("error: set-up probe failed")
    return wall


def _run_round(cmds, root, workdir, deadline) -> list:
    """One pass over the workload; returns per-command result dicts."""
    child = os.path.join(HERE, "child.py")
    results = []
    for cmd in cmds:
        stats_path = os.path.join(workdir, f"{cmd.name}.stats.json")
        out_path = workloads.output_path(cmd)
        for stale in (stats_path, out_path):
            if os.path.exists(stale):
                os.remove(stale)
        argv = [sys.executable, child, stats_path,
                *(["--capture"] if cmd.capture else []), "--", *cmd.argv]
        try:
            rc, wall = _run(argv, _child_env(root, cmd.hashseed), deadline)
        except subprocess.TimeoutExpired:
            results.append({"cmd": cmd, "ok": False})
            break
        stats = {}
        if rc == 0 and os.path.exists(stats_path):
            with open(stats_path, encoding="utf-8") as fh:
                stats = json.load(fh)
        data = None
        if os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                data = fh.read()
        results.append({"cmd": cmd, "ok": bool(stats), "wall_s": wall,
                        "stats": stats, "data": data})
    return results


def _judge(results, first_round, problems_out) -> int:
    """Count failed commands of one round; collect correctness problems."""
    failed = 0
    by_name = {r["cmd"].name: r for r in results}
    for r in results:
        cmd = r["cmd"]
        if not r["ok"]:
            failed += 1
            problems_out.append(f"{cmd.name}: runner failed")
            continue
        problems = []
        if first_round is None:
            problems = reference.check_command(cmd, r["data"], r["stats"])
        elif r["data"] != first_round[cmd.name]:
            problems = ["report differs from the first round"]
        if cmd.same_as is not None and r["data"] != by_name[cmd.same_as]["data"]:
            problems.append(f"report differs from {cmd.same_as}")
        problems_out.extend(f"{cmd.name}: {p}" for p in problems)
        if problems or r["stats"]["rc"] != 0:
            failed += 1
    return failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = Deadline(HARD_LIMIT_S)
    root = _checkout_root()
    _prepare(root, deadline)
    workdir = os.path.join(root, ".bench_build", "perfbench", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    cmds = workloads.build(args.workload, args.seed, workdir)

    problems: list = []
    attempted = failed = 0
    walls, computes, peaks, setups = [], [], [], []
    per_command: dict = {}
    first_round = None
    # whole rounds only, each started when it can still end in the window;
    # set-up probes are spread over the window between rounds
    start = time.monotonic()
    round_s = 0.0
    while first_round is None or (
            time.monotonic() - start + round_s <= args.seconds
            and deadline.left() > round_s + 30):
        t0 = time.monotonic()
        results = _run_round(cmds, root, workdir, deadline)
        attempted += len(results)
        failed += _judge(results, first_round, problems)
        if len(results) < len(cmds) or not all(r["ok"] for r in results):
            break
        walls.append(sum(r["wall_s"] for r in results))
        for r in results:
            wall, comp = per_command.setdefault(r["cmd"].name, ([], []))
            wall.append(r["wall_s"])
            comp.append(r["stats"]["compute_s"])
        computes.append(sum(r["stats"]["compute_s"] for r in results))
        peaks.append(max(r["stats"]["peak_rss_mb"] for r in results))
        if first_round is None:
            first_round = {r["cmd"].name: r["data"] for r in results}
        setups += [_setup_probe(root, deadline)
                   for _ in range(SETUP_PROBES_PER_ROUND)]
        round_s = time.monotonic() - t0

    if first_round is None:
        for p in problems:
            print(p, file=sys.stderr)
        raise SystemExit("error: the workload did not complete one round")

    compute_s = statistics.median(computes)
    setup_s = statistics.median(setups)
    if args.trace:
        import layertrace
        traced = layertrace.run_traced(cmds, workdir, first_round,
                                       _child_env(root), deadline.left())
        attempted += traced["attempted"]
        failed += traced["failed"]
        problems.extend(traced["problems"])
        metrics = traced["metrics"]
        metrics["trace.overhead_s"] = {
            "value": traced["compute_s"] - compute_s, "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "compute_s": {"value": compute_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(peaks), "unit": "MB"},
        }

    print(f"{args.workload} seed {args.seed}: setup_s {setup_s:.4f}, "
          f"{len(walls)} rounds", file=sys.stderr)
    for name, (wall, comp) in per_command.items():
        print(f"  {name:22s} wall_s {statistics.median(wall):.4f}  "
              f"compute_s {statistics.median(comp):.4f}", file=sys.stderr)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
