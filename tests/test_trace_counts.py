"""The deterministic operation counts of the benchmark's traced round,
pinned.

``perfbench/layertrace.py`` runs a workload's commands in one process with
every layer wrapped and counts root brackets, square-root chains, exact
roots, the largest radicand, ``Fraction`` constructions, scalar-algebra
operations and report bytes.  These counts carry no timing noise, so an
extra root, chain or fraction on any path the workloads reach fails here.
The baseline, ``trace_counts.json``, is rewritten only by a change that
means to move a count, which then says which and why.

The round runs from a fresh interpreter in a temporary directory with the
inputs under the relative directory ``w``, so ``reports.bytes`` (which
counts the input paths the reports echo) does not depend on where the
checkout lives.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BASELINE = Path(__file__).with_name("trace_counts.json")
COUNTS = ("certified.root_brackets", "certified.chain_calls",
          "certified.exact_roots", "certified.max_radicand_bits",
          "fractions.constructed", "falgebra.ops", "reports.bytes")

_ROUND = """
import json, sys
import layertrace, workloads
cmds = workloads.build(sys.argv[1], int(sys.argv[2]), "w")
with open("plan.json", "w", encoding="utf-8") as fh:
    json.dump([cmd.argv for cmd in cmds], fh)
layertrace._traced_main("plan.json", "result.json", "spans.jsonl.gz")
"""


def traced_round(workload: str, seed: int, workdir: Path) -> dict:
    """The pinned counts and the exit codes of one traced round."""
    (workdir / "w").mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    subprocess.run([sys.executable, "-c", _ROUND, workload, str(seed)],
                   cwd=workdir, env=env, check=True, capture_output=True,
                   timeout=300)
    result = json.loads((workdir / "result.json").read_text("utf-8"))
    return {"counts": {name: result["metrics"][name] for name in COUNTS},
            "exit_codes": [cmd["rc"] for cmd in result["commands"]]}


@pytest.mark.parametrize("workload", ["suite", "roots", "exhaustive"])
def test_traced_counts_match_baseline(workload, tmp_path):
    baseline = json.loads(BASELINE.read_text("utf-8"))
    assert traced_round(workload, baseline["seed"], tmp_path) \
        == baseline[workload]
