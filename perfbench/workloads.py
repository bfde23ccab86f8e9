"""The benchmark's workloads: each is a fixed sequence of lbochner commands
built from the workload seed.

* ``suite``: ``suite all`` at three seeds plus a rerun of the first under
  another PYTHONHASHSEED (the byte-identity invariant).  Small seeded
  rationals; duality, sampling and the scalar algebra carry the work.
* ``roots``: the certified-bracket path.  Fractional exponents on two-norm
  documents, the exponent bootstrap at p = 3 and the two-norm isometry.
  It keeps ``run bootstrap --tol 1/2`` on fixed inputs, which fails on
  every run because ``certified.eq_within`` compares bracket midpoints and
  ignores bracket widths.
* ``exhaustive``: power-set and partition enumeration over documents with
  64-bit rationals; exact arithmetic only, no root brackets, large reports.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import inputs

WORKLOADS = ("suite", "roots", "exhaustive")


@dataclass
class Command:
    name: str
    argv: List[str]
    check: str                      # reference.py check to apply
    inputs: Dict[str, str] = field(default_factory=dict)
    capture: bool = False           # record holder/minkowski details
    hashseed: Optional[str] = None  # PYTHONHASHSEED for the process
    same_as: Optional[str] = None   # output must equal this command's bytes
    known_fault: bool = False       # expected to fail on the named fault


def _seeds(seed: int, label: str, n: int) -> List[int]:
    rng = inputs.stream(seed, label)
    return [rng.randrange(1 << 32) for _ in range(n)]


def _suite(seed: int, workdir: str) -> List[Command]:
    cmds = [Command(f"suite-{i}", ["suite", "all", "--seed", str(s)], "suite",
                    hashseed="1")
            for i, s in enumerate(_seeds(seed, "suite", 3))]
    first = cmds[0]
    cmds.append(Command("suite-0-rehash", list(first.argv), "suite",
                        hashseed="2", same_as=first.name))
    return cmds


def _roots(seed: int, workdir: str) -> List[Command]:
    paths = inputs.write(inputs.roots_documents(seed), workdir)
    boot_seed, iso_seed = _seeds(seed, "roots-cli", 2)
    pair = ["--u", paths["u"], "--v", paths["v"]]
    docs = {"u": paths["u"], "v": paths["v"]}
    return [
        Command("bootstrap", ["run", "bootstrap", "--p", "3", "--nmax", "20",
                              "--atoms", "4", "--dim", "3",
                              "--seed", str(boot_seed)], "bootstrap"),
        Command("isometry", ["dual", "isometry", "--norm", "two", "--p", "3",
                             "--trials", "5", "--seed", str(iso_seed)],
                "isometry"),
        Command("holder", ["check", "holder", *pair, "--p", "3/2"], "holder",
                inputs=docs, capture=True),
        Command("minkowski", ["check", "minkowski", *pair, "--p", "5/2"],
                "minkowski", inputs=docs, capture=True),
        Command("sup-rep", ["check", "sup-rep", "--fn", paths["f"],
                            "--p", "3/2"], "sup_rep",
                inputs={"f": paths["f"]}),
        # fixed inputs: independent of the workload seed
        Command("bootstrap-loose-tol", ["run", "bootstrap", "--tol", "1/2"],
                "bootstrap", known_fault=True),
    ]


def _exhaustive(seed: int, workdir: str) -> List[Command]:
    paths = inputs.write(inputs.exhaustive_documents(seed), workdir)
    return [
        Command("sup-rep-12", ["check", "sup-rep", "--fn", paths["f"],
                               "--p", "2"], "sup_rep",
                inputs={"f": paths["f"]}),
        Command("density-10", ["rn", "density", "--measure",
                               paths["g_density"]], "density",
                inputs={"g": paths["g_density"]}),
        Command("variation-5", ["rn", "variation", "--measure",
                                paths["g_variation"]], "variation",
                inputs={"g": paths["g_variation"]}),
    ]


def build(workload: str, seed: int, workdir: str) -> List[Command]:
    """The workload's commands, each writing its report into workdir."""
    make = {"suite": _suite, "roots": _roots, "exhaustive": _exhaustive}
    cmds = make[workload](seed, workdir)
    for cmd in cmds:
        cmd.argv += ["--out", os.path.join(workdir, f"{cmd.name}.out.json")]
    return cmds


def output_path(cmd: Command) -> str:
    return cmd.argv[cmd.argv.index("--out") + 1]
