"""Check reports and their deterministic JSON/CSV rendering.

Reports keep exact Python objects (Fractions, algebra elements, brackets) in
their detail dicts; conversion to documents happens only at dump time.  No
binary floating point ever reaches a persisted artifact: rationals become
"num/den" strings and approximations become (value, error-bound) pairs.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from typing import Any, Callable, Dict, List, Optional, Sequence

from . import certified
from .certified import Ends, Ratio

Witness = Callable[[Ratio], Dict[str, Any]]

TOOL_VERSION = "lbochner 0.1.0"


class CheckReport:
    """One check's verdict.  A check starts passing; ``fail`` is the one
    place the first-failure rule lives: every call counts, and the first
    call's witness is the one reported.  A toleranced bracket comparison
    reaches it through ``at_most`` or ``within``, which build the witness
    from the margin on a miss only, and a failed sub-report through
    ``absorb``, which puts ``context`` before the sub-report's witness."""

    __slots__ = ("name", "passed", "details", "witness", "series", "failures")

    def __init__(self, name: str, details: Optional[Dict[str, Any]] = None,
                 series: Optional[List[Dict[str, Any]]] = None):
        self.name = name
        self.passed = True
        self.details = {} if details is None else details
        self.witness = None
        self.series = series
        self.failures = 0

    def fail(self, witness: Dict[str, Any]) -> None:
        if self.passed:
            self.passed = False
            self.witness = witness
        self.failures += 1

    def _judge(self, verdict: tuple, witness: Witness) -> Ratio:
        ok, margin = verdict
        if not ok:
            self.fail(witness(margin))
        return margin

    def at_most(self, lhs: Ends, rhs: Ends, tol: Fraction,
                witness: Witness) -> Ratio:
        """lo(lhs) <= hi(rhs) + tol (``certified.leq_with_slack``); returns
        the slack."""
        return self._judge(certified.leq_with_slack(lhs, rhs, tol), witness)

    def within(self, lhs: Ends, rhs: Ends, tol: Fraction,
               witness: Witness) -> Ratio:
        """Midpoints within tol (``certified.eq_within``); returns the
        gap."""
        return self._judge(certified.eq_within(lhs, rhs, tol), witness)

    def absorb(self, sub: "CheckReport", **context: Any) -> None:
        if not sub.passed:
            self.fail({**context, **sub.witness})


class Report:
    __slots__ = ("command", "config", "checks")

    def __init__(self, command: str, config: Dict[str, Any],
                 checks: List[CheckReport]):
        self.command = command
        self.config = config
        self.checks = checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def to_jsonable(obj: Any) -> Any:
    """Recursive conversion to JSON-safe values; duck-typed so the core
    modules never need to import this one.  The containers and rationals
    that make up almost every report come first."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(v) for v in items]
    if isinstance(obj, Fraction):
        return format_rational(obj)
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        raise TypeError("binary floating point is not allowed in reports")
    # ApproxReal
    if hasattr(obj, "abs_error_bound") and hasattr(obj, "value"):
        return {"value": format_rational(obj.value),
                "error_bound": format_rational(obj.abs_error_bound)}
    # LElement
    if hasattr(obj, "coords") and hasattr(obj, "nums"):
        return [format_rational(q) for q in obj.coords]
    # ModuleVector
    if hasattr(obj, "entries"):
        return [to_jsonable(e) for e in obj.entries]
    # enums
    if hasattr(obj, "value") and hasattr(obj, "name"):
        return to_jsonable(obj.value)
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def rendered(check: CheckReport,
             render: Callable[[CheckReport], Any]) -> Any:
    """``render(check)``, where a reported number too long for the
    interpreter's integer-string cap (``sys.get_int_max_str_digits()``) is
    refused with a ValueError that names the check, not the interpreter's
    message."""
    try:
        return render(check)
    except ValueError:
        raise ValueError(
            f"{check.name}: a reported number has more than "
            f"{sys.get_int_max_str_digits()} digits") from None


def _check_doc(check: CheckReport) -> Dict[str, Any]:
    doc: Dict[str, Any] = {
        "name": check.name,
        "verdict": "PASS" if check.passed else "FAIL",
        "details": to_jsonable(check.details),
    }
    if check.witness is not None:
        doc["witness"] = to_jsonable(check.witness)
    if check.series is not None:
        doc["series"] = to_jsonable(check.series)
    return doc


def check_to_doc(check: CheckReport) -> Dict[str, Any]:
    return rendered(check, _check_doc)


def report_to_doc(report: Report) -> Dict[str, Any]:
    return {
        "tool": TOOL_VERSION,
        "command": report.command,
        "config": to_jsonable(report.config),
        "verdict": "PASS" if report.passed else "FAIL",
        "checks": [check_to_doc(c) for c in report.checks],
    }


def report_to_json_bytes(report: Report) -> bytes:
    doc = report_to_doc(report)
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def _cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ";".join(_cell(v) for v in value)
    return json.dumps(value)


def _flatten_row(row: Dict[str, Any]) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for key, value in row.items():
        jv = to_jsonable(value)
        if isinstance(jv, list):
            for i, item in enumerate(jv):
                out[f"{key}_{i}"] = _cell(item)
        else:
            out[key] = _cell(jv)
    return out


def series_to_csv(rows: Sequence[Dict[str, Any]]) -> str:
    """Plot-ready CSV: one column per scalar field, list-valued fields
    expanded into numbered columns, rationals as num/den strings."""
    flat = [_flatten_row(r) for r in rows]
    headers = list(dict.fromkeys(key for fr in flat for key in fr))
    lines = [",".join(headers)]
    for fr in flat:
        lines.append(",".join(fr.get(h, "") for h in headers))
    return "\n".join(lines) + "\n"
