"""Run one lbochner command in this fresh interpreter and record its cost.

    python3 child.py STATS_PATH [--capture] -- ARGV...

Imports ``lbochner.cli``, then times ``cli.main(ARGV)`` from the call to
its return, by which time the report bytes are written to ``--out``.  The
stats file receives the exit code, that time, the import time and this
process's peak resident set.  With ``--capture`` the details returned by
``bochner.check_holder`` and ``bochner.check_minkowski`` are recorded too:
the command's own document keeps only pass/fail counts for these checks, so
this is the only place their exact sides and brackets can be read.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _doc(value):
    """num/den strings for rationals, [value, error_bound] for brackets."""
    if hasattr(value, "nums"):
        return [f"{n}/{d}" for n, d in zip(value.nums, value.dens)]
    if hasattr(value, "abs_error_bound"):
        return {"value": _doc(value.value),
                "error_bound": _doc(value.abs_error_bound)}
    if isinstance(value, (list, tuple)):
        return [_doc(v) for v in value]
    if hasattr(value, "denominator"):
        return f"{value.numerator}/{value.denominator}"
    return value


def _capture(module, name, sink):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        report = original(*args, **kwargs)
        sink.append({"check": name, "details": {
            k: _doc(report.details[k]) for k in ("lhs", "rhs")}})
        return report

    setattr(module, name, wrapper)


def main() -> int:
    stats_path = sys.argv[1]
    rest = sys.argv[2:]
    capture = rest[:1] == ["--capture"]
    argv = rest[rest.index("--") + 1:]
    t0 = time.perf_counter()
    from lbochner import bochner, cli
    import_s = time.perf_counter() - t0
    captured: list = []
    if capture:
        _capture(bochner, "check_holder", captured)
        _capture(bochner, "check_minkowski", captured)
    t0 = time.perf_counter()
    rc = cli.main(argv)
    compute_s = time.perf_counter() - t0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "compute_s": compute_s, "import_s": import_s,
                   "peak_rss_mb": peak_kb / 1024, "captured": captured}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
