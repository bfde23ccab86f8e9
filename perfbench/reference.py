"""Reference checker for the benchmark's reports, computed apart from the
program: it imports nothing from lbochner.  Exact values are recomputed
with ``fractions``; irrational ones (two-norms, fractional powers) with
mpmath at 60 digits, and every certified bracket the program reports must
contain them.

Each ``check_*`` function takes the parsed report (plus the input documents
or captured details it needs) and returns a list of problems; an empty list
means the report is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction

import mpmath

mpmath.mp.dps = 60
# mpmath's own rounding stays far below this; certified brackets are at
# least 2**-40 wide or exact, so a nudged endpoint still falls outside
_MP_SLACK = Fraction(1, 10 ** 45)
# a bracket wider than this, relative to its value, proves nothing
_MAX_REL_WIDTH = Fraction(1, 2 ** 20)
COMPARE_TOL = Fraction(1, 2 ** 30)


class FloatInReport(ValueError):
    pass


def _no_float(text):
    raise FloatInReport(f"binary float {text} in report")


def parse_report(data: bytes):
    """JSON document, refusing any binary float."""
    return json.loads(data.decode("utf-8"), parse_float=_no_float)


def q(s) -> Fraction:
    return Fraction(str(s))


def load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# independent mathematics

def _space(doc):
    return doc["space"]["atoms"], [q(m) for m in doc["space"]["masses"]]


def _values(doc, key="values"):
    """atom -> rank x d Fractions, in the space's atom order."""
    atoms, _ = _space(doc)
    return [[[q(x) for x in row] for row in doc[key][a]] for a in atoms]


def _dims(doc):
    return doc["codomain"]["d"], doc["codomain"]["norm_kind"]


def exact_norm(vec, kind, j) -> Fraction:
    col = [abs(row[j]) for row in vec]
    if kind == "sup":
        return max(col)
    if kind == "one":
        return sum(col, Fraction(0))
    raise ValueError("the two-norm is not exact")


def mp(x: Fraction):
    return mpmath.mpf(x.numerator) / x.denominator


def mp_norm(vec, kind, j):
    if kind == "two":
        return mpmath.sqrt(sum(mp(row[j]) ** 2 for row in vec))
    return mp(exact_norm(vec, kind, j))


def mp_moment(values, masses, kind, p: Fraction, j):
    """Sum over atoms of mass * ||value||**p at scalar coordinate j."""
    return sum(mp(m) * mp_norm(v, kind, j) ** mp(p)
               for v, m in zip(values, masses) if m != 0)


def mp_lp_norm(values, masses, kind, p: Fraction, j):
    return mp_moment(values, masses, kind, p, j) ** (1 / mp(p))


def subset_values(values):
    """G(F) for every subset F, indexed by the bitmask of atom indices."""
    zero = [[Fraction(0)] * len(values[0][0]) for _ in values[0]]
    out = [zero]
    for mask in range(1, 1 << len(values)):
        low = (mask & -mask).bit_length() - 1
        prev = out[mask ^ (1 << low)]
        out.append([[a + b for a, b in zip(r1, r2)]
                    for r1, r2 in zip(prev, values[low])])
    return out


# ---------------------------------------------------------------------------
# bracket handling

def brackets(value):
    """A reported norm value as (lo, hi) pairs: an exact element is a list
    of num/den strings, an approximation a list of value/error_bound."""
    out = []
    for item in value:
        if isinstance(item, dict):
            v, e = q(item["value"]), q(item["error_bound"])
            out.append((v - e, v + e))
        else:
            out.append((q(item), q(item)))
    return out


def bracket_problems(label, value, truths):
    problems = []
    ivs = brackets(value)
    if len(ivs) != len(truths):
        return [f"{label}: {len(ivs)} coordinates, expected {len(truths)}"]
    for j, ((lo, hi), truth) in enumerate(zip(ivs, truths)):
        slack = mp(_MP_SLACK) * max(1, abs(truth))
        if not (mp(lo) - slack <= truth <= mp(hi) + slack):
            problems.append(f"{label}[{j}]: [{float(lo)}, {float(hi)}] "
                            f"misses {mpmath.nstr(truth, 20)}")
        if hi - lo > _MAX_REL_WIDTH * max(1, abs(lo)):
            problems.append(f"{label}[{j}]: bracket width {float(hi - lo)}")
    return problems


def exact_problems(label, value, truths):
    got = [q(x) if not isinstance(x, dict) else None for x in value]
    if got != list(truths):
        return [f"{label}: {value} != {[str(t) for t in truths]}"]
    return []


# ---------------------------------------------------------------------------
# per-command checks

def _verdicts(doc, label):
    bad = [c["name"] for c in doc["checks"] if c["verdict"] != "PASS"]
    problems = [f"{label}: check {n} FAIL" for n in bad]
    if doc["verdict"] != ("FAIL" if bad else "PASS"):
        problems.append(f"{label}: document verdict {doc['verdict']}")
    return problems


def check_suite(doc):
    problems = _verdicts(doc, "suite")
    sup = [c for c in doc["checks"] if c["name"] == "sup-representation"]
    if len(sup) != 1:
        return problems + ["suite: expected one sup-representation check"]
    details = sup[0]["details"]
    if details["subsets"] != 2 ** 6 or details["pairs_checked"] != 3 ** 6:
        problems.append(f"suite: sup-representation counts {details['subsets']}"
                        f"/{details['pairs_checked']}, expected 64/729")
    for c in doc["checks"]:
        if c["name"].startswith("holder-minkowski") and c["details"]["failures"]:
            problems.append(f"suite: {c['name']} reports failures")
    return problems


def _partial_sums(p: Fraction, n_max: int):
    s, power = Fraction(0), Fraction(1)
    for _ in range(n_max + 1):
        s += power
        power /= p
        yield s


def check_bootstrap(doc, known_fault=False):
    (check,) = doc["checks"]
    details = check["details"]
    p = q(details["p"])
    series = check["series"]
    problems = []
    if len(series) != details["n_max"] + 1:
        problems.append(f"bootstrap: {len(series)} steps for n_max "
                        f"{details['n_max']}")
    for row, s in zip(series, _partial_sums(p, details["n_max"])):
        if q(row["exponent"]) != s:
            problems.append(f"bootstrap: step {row['n']} exponent "
                            f"{row['exponent']} != {s}")
    limit_tol = q(details["limit_tol"])
    over = [g for g in details["limit_gaps"] if q(g) > limit_tol]
    if check["verdict"] == "PASS":
        if over:
            problems.append("bootstrap: PASS with a limit gap over limit_tol")
    elif not (known_fault and check.get("witness", {}).get("stage") == "limit"
              and over):
        problems.append(f"bootstrap: FAIL {check.get('witness')}")
    if doc["verdict"] != check["verdict"]:
        problems.append("bootstrap: document verdict disagrees")
    return problems


def check_isometry(doc, trials):
    problems = _verdicts(doc, "isometry")
    (check,) = doc["checks"]
    details = check["details"]
    p, qq = q(details["p"]), q(details["q"])
    if qq != p / (p - 1):
        problems.append(f"isometry: q = {qq} is not conjugate to p = {p}")
    if details["trials"] != trials or len(check["series"]) != trials:
        problems.append(f"isometry: {len(check['series'])} trials, "
                        f"expected {trials}")
    if details["failures"] != 0:
        problems.append("isometry: failures reported")
    for row in check["series"]:
        if any(q(g) > COMPARE_TOL for g in row["gap"]):
            problems.append(f"isometry: trial {row['trial']} gap over 2**-30")
    return problems


def _pair_inputs(u_doc, v_doc):
    _, masses = _space(u_doc)
    d, kind = _dims(u_doc)
    return masses, d, kind, _values(u_doc), _values(v_doc)


def _one_capture(captured, name):
    found = [c["details"] for c in captured if c["check"] == name]
    return found[0] if len(found) == 1 else None


def check_holder(doc, u_doc, v_doc, captured):
    problems = _verdicts(doc, "holder")
    (check,) = doc["checks"]
    details = check["details"]
    p, qq = q(details["p"]), q(details["q"])
    if qq != p / (p - 1) or details["pairs"] != 1 or details["failures"] != 0:
        problems.append(f"holder: details {details}")
    got = _one_capture(captured, "check_holder")
    if got is None:
        return problems + ["holder: expected one captured check"]
    masses, d, kind, u, v = _pair_inputs(u_doc, v_doc)
    lhs = []
    for j in range(d):
        total = Fraction(0)
        for ut, vt, m in zip(u, v, masses):
            total += m * abs(sum((a[j] * b[j] for a, b in zip(ut, vt)),
                                 Fraction(0)))
        lhs.append(total)
    problems += exact_problems("holder lhs", got["lhs"], lhs)
    # the dual of the two-norm is the two-norm
    rhs = [mp_lp_norm(u, masses, kind, p, j) * mp_lp_norm(v, masses, kind, qq, j)
           for j in range(d)]
    problems += bracket_problems("holder rhs", got["rhs"], rhs)
    if any(mp(a) > b for a, b in zip(lhs, rhs)):
        problems.append("holder: reference lhs exceeds rhs")
    return problems


def check_minkowski(doc, u_doc, v_doc, captured):
    problems = _verdicts(doc, "minkowski")
    (check,) = doc["checks"]
    details = check["details"]
    p = q(details["p"])
    if details["pairs"] != 1 or details["failures"] != 0:
        problems.append(f"minkowski: details {details}")
    got = _one_capture(captured, "check_minkowski")
    if got is None:
        return problems + ["minkowski: expected one captured check"]
    masses, d, kind, u, v = _pair_inputs(u_doc, v_doc)
    s = [[[a + b for a, b in zip(ra, rb)] for ra, rb in zip(ut, vt)]
         for ut, vt in zip(u, v)]
    lhs = [mp_lp_norm(s, masses, kind, p, j) for j in range(d)]
    rhs = [mp_lp_norm(u, masses, kind, p, j) + mp_lp_norm(v, masses, kind, p, j)
           for j in range(d)]
    problems += bracket_problems("minkowski lhs", got["lhs"], lhs)
    problems += bracket_problems("minkowski rhs", got["rhs"], rhs)
    return problems


def check_sup_rep(doc, f_doc, p: Fraction):
    problems = _verdicts(doc, "sup-rep")
    (check,) = doc["checks"]
    details = check["details"]
    atoms, masses = _space(f_doc)
    m = len(atoms)
    pairs = 3 ** m if m <= 6 else 0
    if details["subsets"] != 2 ** m or details["pairs_checked"] != pairs:
        problems.append(f"sup-rep: counts {details['subsets']}/"
                        f"{details['pairs_checked']}, expected {2 ** m}/{pairs}")
    d, kind = _dims(f_doc)
    values = _values(f_doc)
    got = details["max_at_full_space"]
    if kind != "two" and p.denominator == 1:
        truth = [sum((mass * exact_norm(v, kind, j) ** int(p)
                      for v, mass in zip(values, masses)), Fraction(0))
                 for j in range(d)]
        problems += exact_problems("sup-rep max_at_full_space", got, truth)
    else:
        truth = [mp_moment(values, masses, kind, p, j) for j in range(d)]
        problems += bracket_problems("sup-rep max_at_full_space", got, truth)
    return problems


def check_density(doc, g_doc):
    problems = _verdicts(doc, "density")
    continuity, density = doc["checks"]
    atoms, masses = _space(g_doc)
    d, kind = _dims(g_doc)
    m = len(atoms)
    if continuity["details"]["atoms"] != m:
        problems.append("density: atom count")
    if density["details"]["verified_sets"] != 2 ** m:
        problems.append(f"density: verified_sets "
                        f"{density['details']['verified_sets']} != {2 ** m}")
    rows = continuity["series"]
    if len(rows) != 2 ** m:
        return problems + [f"density: {len(rows)} continuity rows"]
    values = subset_values(_values(g_doc, "atom_values"))
    for mask, row in enumerate(rows):
        mu = sum((masses[t] for t in range(m) if mask >> t & 1), Fraction(0))
        norms = [exact_norm(values[mask], kind, j) for j in range(d)]
        if q(row["mu"]) != mu or [q(x) for x in row["value_norm"]] != norms:
            problems.append(f"density: mu-continuity row {mask} is wrong")
            break
    return problems


def check_variation(doc, g_doc):
    problems = _verdicts(doc, "variation")
    (check,) = doc["checks"]
    details = check["details"]
    atoms, _ = _space(g_doc)
    d, kind = _dims(g_doc)
    values = _values(g_doc, "atom_values")
    truth = [sum((exact_norm(v, kind, j) for v in values), Fraction(0))
             for j in range(d)]
    problems += exact_problems("variation", details["variation"], truth)
    if details["exhaustive_checked"] is not True:
        problems.append("variation: exhaustive_checked is not true")
    if details["blocks"] != len(atoms):
        problems.append(f"variation: {details['blocks']} blocks")
    return problems


def _arg(argv, flag, default):
    return argv[argv.index(flag) + 1] if flag in argv else default


def check_document(cmd, doc, captured):
    """Dispatch on the command's check kind."""
    kind = cmd.check
    if kind == "suite":
        return check_suite(doc)
    if kind == "bootstrap":
        return check_bootstrap(doc, cmd.known_fault)
    if kind == "isometry":
        return check_isometry(doc, int(_arg(cmd.argv, "--trials", "25")))
    if kind == "holder":
        return check_holder(doc, load(cmd.inputs["u"]), load(cmd.inputs["v"]),
                            captured)
    if kind == "minkowski":
        return check_minkowski(doc, load(cmd.inputs["u"]),
                               load(cmd.inputs["v"]), captured)
    if kind == "sup_rep":
        return check_sup_rep(doc, load(cmd.inputs["f"]),
                             q(_arg(cmd.argv, "--p", "2")))
    if kind == "density":
        return check_density(doc, load(cmd.inputs["g"]))
    if kind == "variation":
        return check_variation(doc, load(cmd.inputs["g"]))
    raise ValueError(f"unknown check {kind}")


def check_command(cmd, data, stats):
    """Problems with one command's report and exit code."""
    if data is None:
        return ["no report written"]
    rc = stats["rc"]
    try:
        doc = parse_report(data)
    except ValueError as exc:  # invalid JSON or UTF-8, or a binary float
        return [str(exc)]
    problems = []
    if rc not in (0, 1) or (rc == 0) != (doc.get("verdict") == "PASS"):
        problems.append(f"exit code {rc} with verdict {doc.get('verdict')}")
    try:
        problems += check_document(cmd, doc, stats.get("captured", []))
    except (AttributeError, IndexError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    return problems
