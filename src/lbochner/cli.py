"""Command-line front end.

Loads space/function documents (or synthesizes seeded instances), runs the
check suites and experiments deterministically, and emits verdict documents
plus plot-ready CSV.  Exit codes: 0 all checks pass, 1 any failure, 2 on
usage or parse errors.  Identical configuration yields byte-identical
output.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import List, Optional

from . import bochner, duality, lmodule, measure, serialize, vecmeasure
from .falgebra import LElement, ToleranceConfig
from .bochner import INF, LFunction, LpHandle, TruncatedSequenceSpec
from .lmodule import ModuleSpace, NormKind
from .reports import CheckReport, Report, report_to_json_bytes, series_to_csv
from .sampling import (
    random_fraction,
    random_functional,
    random_measure_space,
    random_module_vector,
    rng_for,
)

DEFAULT_SEED = 42


def _parse_exponent(s: str):
    if s in ("inf", "infinity", "oo"):
        return INF
    p = Fraction(s)
    if p < 1:
        raise ValueError(f"exponent must be >= 1 or inf, got {s}")
    return p


def _exponent_str(p) -> str:
    return "inf" if p is INF else str(p)


def _tolerances(args) -> ToleranceConfig:
    if args.tol is None:
        return ToleranceConfig()
    compare = Fraction(args.tol)
    return ToleranceConfig(root_tol=compare / 2 ** 10, compare_tol=compare)


def _norm_kind(name: str) -> NormKind:
    return NormKind(name)


def _random_lfunction(rng, space, codomain) -> LFunction:
    return LFunction(space, codomain, tuple(
        random_module_vector(rng, codomain) for _ in range(space.size)))


def _load_or_random_space(args, rng) -> measure.MeasureSpace:
    if getattr(args, "space", None):
        return serialize.measure_space_from_doc(
            serialize.load_json(args.space), args.space)
    return random_measure_space(rng, args.atoms)


# ---------------------------------------------------------------------------
# check subcommands

def _cmd_check_norm_axioms(args) -> Report:
    cfg = _tolerances(args)
    space = ModuleSpace(args.rank, args.dim, _norm_kind(args.norm))
    rng = rng_for(args.seed, 11)
    samples = []
    for _ in range(args.trials):
        lam = LElement([random_fraction(rng) for _ in range(args.dim)])
        x = random_module_vector(rng, space)
        y = random_module_vector(rng, space)
        samples.append((lam, x, y))
    rep = lmodule.check_norm_axioms(space, samples, cfg)
    check = CheckReport(
        name=f"norm-axioms-{args.norm}",
        passed=rep.passed,
        details={"trials": args.trials, "axiom1": rep.axiom1,
                 "axiom2": rep.axiom2, "axiom3": rep.axiom3},
        witness=rep.witness1 or rep.witness2 or rep.witness3,
    )
    return _report(args, [check])


def _holder_pair(args, rng, cfg):
    space = _load_or_random_space(args, rng)
    codomain = ModuleSpace(args.rank, args.dim, _norm_kind(args.norm))
    if getattr(args, "u", None):
        u = serialize.lfunction_from_doc(serialize.load_json(args.u), args.u)
        space = u.space
        codomain = u.codomain
    else:
        u = _random_lfunction(rng, space, codomain)
    if getattr(args, "v", None):
        v = serialize.lfunction_from_doc(serialize.load_json(args.v), args.v)
    else:
        v = _random_lfunction(rng, space, codomain)
    return u, v


def _over_trials(check: CheckReport, n: int, run_trial) -> CheckReport:
    """Runs run_trial(trial) for each of n trials; every failing trial
    counts, and the first names the witness together with the trial
    report's own, if it has one."""
    for trial in range(n):
        rep = run_trial(trial)
        if not rep.passed:
            own = getattr(rep, "witness", None) or {}
            check.fail({"trial": trial, **own})
    check.details["failures"] = check.failures
    return check


def _cmd_check_holder(args) -> Report:
    cfg = _tolerances(args)
    p = _parse_exponent(args.p)
    q = bochner.conjugate_exponent(p)
    rng = rng_for(args.seed, 13)
    n = args.trials if not (args.u or args.v) else 1
    check = CheckReport(name="holder", details={
        "pairs": n, "p": _exponent_str(p), "q": _exponent_str(q)})
    return _report(args, [_over_trials(check, n, lambda trial: (
        bochner.check_holder(*_holder_pair(args, rng, cfg), p, q, cfg)))])


def _cmd_check_minkowski(args) -> Report:
    cfg = _tolerances(args)
    p = _parse_exponent(args.p)
    if p is INF:
        raise ValueError("minkowski needs a finite exponent")
    rng = rng_for(args.seed, 17)
    n = args.trials if not (args.u or args.v) else 1
    check = CheckReport(name="minkowski",
                        details={"pairs": n, "p": _exponent_str(p)})
    return _report(args, [_over_trials(check, n, lambda trial: (
        bochner.check_minkowski(*_holder_pair(args, rng, cfg), p, cfg)))])


def _cmd_check_sup_rep(args) -> Report:
    cfg = _tolerances(args)
    p = _parse_exponent(args.p)
    rng = rng_for(args.seed, 19)
    if args.fn:
        f = serialize.lfunction_from_doc(serialize.load_json(args.fn), args.fn)
    else:
        space = random_measure_space(rng, args.atoms)
        codomain = ModuleSpace(args.rank, args.dim, _norm_kind(args.norm))
        f = _random_lfunction(rng, space, codomain)
    handle = LpHandle(p, f.space, f.codomain)
    rep = bochner.verify_sup_representation(f, handle, cfg)
    return _report(args, [rep])


def _cmd_check_chebyshev(args) -> Report:
    cfg = _tolerances(args)
    rng = rng_for(args.seed, 23)
    space = random_measure_space(rng, args.atoms)
    codomain = ModuleSpace(args.rank, args.dim, _norm_kind(args.norm))
    h = _random_lfunction(rng, space, codomain)
    w = _random_lfunction(rng, space, codomain)
    hs = [h + w.scale_rational(Fraction(1, 2 ** n)) for n in range(args.trials)]
    rep = bochner.check_chebyshev_step(hs, h, Fraction(args.gamma), cfg)
    return _report(args, [rep])


# ---------------------------------------------------------------------------
# run subcommands

def _dct_spec(seed: int, levels: int) -> TruncatedSequenceSpec:
    names = tuple(f"t{t}" for t in range(1, levels + 1))
    masses = tuple(Fraction(1, 2 ** t) for t in range(1, levels + 1))
    space = measure.MeasureSpace(names, masses)
    codomain = ModuleSpace(1, 2, NormKind.SUP)
    rng = rng_for(seed, 29)
    values = []
    for _ in range(levels):
        den = rng.randint(1, 9)
        coords = [Fraction(rng.randint(-den, den), den) for _ in range(2)]
        values.append(lmodule.ModuleVector(codomain, (LElement(coords),)))
    limit = LFunction(space, codomain, tuple(values))
    zero = codomain.zero()

    def term(n: int, t: int):
        return values[t] if t < n else zero

    return TruncatedSequenceSpec(
        space=space,
        codomain=codomain,
        term=term,
        limit=limit,
        dominator=tuple(LElement.unit(2) for _ in range(levels)),
        scalar_bound=Fraction(1),
        tail_mass=Fraction(1, 2 ** levels),
    )


def _cmd_run_dct(args) -> Report:
    cfg = _tolerances(args)
    spec = _dct_spec(args.seed, args.levels)
    rep = bochner.run_dct_experiment(spec, args.nmax, cfg)
    return _report(args, [rep])


def _cmd_run_completeness(args) -> Report:
    cfg = _tolerances(args)
    rng = rng_for(args.seed, 31)
    space = random_measure_space(rng, args.atoms, normalize=True)
    codomain = ModuleSpace(args.rank, args.dim, _norm_kind(args.norm))
    handle = LpHandle(_parse_exponent(args.p), space, codomain)
    rep = bochner.run_completeness_harness(handle, args.seed, args.terms, cfg)
    return _report(args, [rep])


def _bootstrap_dual(seed: int, atoms: int, dim: int) -> duality.DualFunction:
    # probability space and atom norms inside [1/2, 2]: keeps the truncation
    # gap of the exponent chain provably under the 2**-20 allowance
    rng = rng_for(seed, 37)
    space = random_measure_space(rng, atoms, normalize=True)
    primal = ModuleSpace(1, dim, NormKind.SUP)
    funcs = []
    for _ in range(atoms):
        coords = [Fraction(rng.randint(4, 8), rng.randint(4, 8))
                  * (1 if rng.random() < 0.5 else -1) for _ in range(dim)]
        funcs.append(lmodule.Functional(primal, (LElement(coords),)))
    return duality.DualFunction(space, tuple(funcs))


def _cmd_run_bootstrap(args) -> Report:
    cfg = _tolerances(args)
    v = _bootstrap_dual(args.seed, args.atoms, args.dim)
    rep = duality.bootstrap_lower_bound(v, _parse_exponent(args.p),
                                        args.nmax, cfg,
                                        limit_tol=Fraction(args.limit_tol))
    return _report(args, [rep])


def _cmd_run_rnp_probe(args) -> Report:
    cfg = _tolerances(args)
    rep = vecmeasure.rnp_probe(args.levels, args.sets, d=args.dim, cfg=cfg)
    return _report(args, [rep])


# ---------------------------------------------------------------------------
# dual subcommands

def _dual_function(args, rng) -> duality.DualFunction:
    if getattr(args, "v", None):
        return serialize.dual_function_from_doc(
            serialize.load_json(args.v), args.v)
    space = random_measure_space(rng, args.atoms)
    primal = ModuleSpace(args.rank, args.dim, _norm_kind(args.norm))
    return duality.DualFunction(space, tuple(
        random_functional(rng, primal) for _ in range(space.size)))


def _cmd_dual_isometry(args) -> Report:
    cfg = _tolerances(args)
    p = _parse_exponent(args.p)
    q = bochner.conjugate_exponent(p)
    rng = rng_for(args.seed, 41)
    n = args.trials if not args.v else 1
    check = CheckReport(name="isometry", series=[], details={
        "trials": n, "p": _exponent_str(p), "q": _exponent_str(q)})

    def trial_isometry(trial):
        rep = duality.isometry_check(_dual_function(args, rng), p, q, cfg)
        check.series.append({"trial": trial, "gap": rep.per_coordinate_gap})
        return rep

    return _report(args, [_over_trials(check, n, trial_isometry)])


def _cmd_dual_represent(args) -> Report:
    p = _parse_exponent(args.p)
    rng = rng_for(args.seed, 43)
    v = _dual_function(args, rng)
    check = CheckReport(name="represent",
                        details={"atoms": v.space.size, "p": _exponent_str(p)})
    try:
        v_back = duality.represent(duality.build_F(v, p))
    except duality.RepresentationMismatch as exc:
        check.fail(exc.witness)
    else:
        for t, mass in enumerate(v.space.masses):
            if mass > 0 and v_back.values[t].coeffs != v.values[t].coeffs:
                check.fail({"atom": v.space.atom_names[t]})
    return _report(args, [check])


def _cmd_dual_roundtrip(args) -> Report:
    cfg = _tolerances(args)
    p = _parse_exponent(args.p)
    q = bochner.conjugate_exponent(p)
    rep = duality.roundtrip_check(
        p, q, args.trials, args.seed, m=args.atoms, rank=args.rank,
        scalar_dim=args.dim, norm_kind=_norm_kind(args.norm), cfg=cfg)
    return _report(args, [rep])


# ---------------------------------------------------------------------------
# rn subcommands

def _vector_measure(args, rng) -> vecmeasure.VectorMeasure:
    if getattr(args, "measure", None):
        return serialize.vector_measure_from_doc(
            serialize.load_json(args.measure), args.measure)
    space = random_measure_space(rng, args.atoms, null_atoms=1)
    codomain = ModuleSpace(args.rank, args.dim, _norm_kind(args.norm))
    g = _random_lfunction(rng, space, codomain)
    return vecmeasure.VectorMeasure.from_density(g)


def _density_check(G: vecmeasure.VectorMeasure) -> CheckReport:
    result = vecmeasure.rn_density(G)
    return CheckReport(name="rn-density", passed=result.passed,
                       details={"verified_sets": result.verified_sets},
                       witness=result.witness)


def _cmd_rn_density(args) -> Report:
    rng = rng_for(args.seed, 47)
    G = _vector_measure(args, rng)
    continuity = vecmeasure.check_mu_continuity(G, _tolerances(args))
    try:
        density_check = _density_check(G)
    except vecmeasure.NotAbsolutelyContinuous as exc:
        density_check = CheckReport(name="rn-density")
        density_check.fail({"error": str(exc)})
    return _report(args, [continuity, density_check])


def _cmd_rn_variation(args) -> Report:
    cfg = _tolerances(args)
    rng = rng_for(args.seed, 53)
    G = _vector_measure(args, rng)
    result = vecmeasure.variation(G, cfg)
    return _report(args, [CheckReport(
        name="variation",
        passed=result.passed,
        details={"variation": result.variation,
                 "exhaustive_checked": result.exhaustive_checked,
                 "blocks": len(result.attaining_partition.blocks)},
        witness=result.witness,
    )])


# ---------------------------------------------------------------------------
# suite

def _cmd_suite_all(args) -> Report:
    cfg = _tolerances(args)
    seed = args.seed
    checks: List[CheckReport] = []

    for kind in (NormKind.SUP, NormKind.ONE, NormKind.TWO):
        space = ModuleSpace(2, 2, kind)
        rng = rng_for(seed, 61)
        samples = []
        for _ in range(100):
            lam = LElement([random_fraction(rng) for _ in range(2)])
            samples.append((lam, random_module_vector(rng, space),
                            random_module_vector(rng, space)))
        rep = lmodule.check_norm_axioms(space, samples, cfg)
        checks.append(CheckReport(
            name=f"norm-axioms-{kind.value}", passed=rep.passed,
            details={"trials": 100}))

    for p_str in ("1", "2", "3"):
        p = Fraction(p_str)
        q = bochner.conjugate_exponent(p)
        rng = rng_for(seed, 67, int(p * 2))
        check = CheckReport(name=f"holder-minkowski-p{p_str}",
                            details={"pairs": 50})
        for _ in range(50):
            space = random_measure_space(rng, 3)
            codomain = ModuleSpace(1, 2, NormKind.SUP)
            u = _random_lfunction(rng, space, codomain)
            v = _random_lfunction(rng, space, codomain)
            if not bochner.check_holder(u, v, p, q, cfg).passed:
                check.fail()
            if not bochner.check_minkowski(u, v, p, cfg).passed:
                check.fail()
        check.details["failures"] = check.failures
        checks.append(check)

    rng = rng_for(seed, 71)
    space = random_measure_space(rng, 6)
    codomain = ModuleSpace(1, 2, NormKind.SUP)
    f = _random_lfunction(rng, space, codomain)
    checks.append(bochner.verify_sup_representation(
        f, LpHandle(Fraction(2), space, codomain), cfg))

    rng = rng_for(seed, 73)
    space = random_measure_space(rng, 4)
    h = _random_lfunction(rng, space, codomain)
    w = _random_lfunction(rng, space, codomain)
    hs = [h + w.scale_rational(Fraction(1, 2 ** n)) for n in range(6)]
    checks.append(bochner.check_chebyshev_step(hs, h, Fraction(1, 10), cfg))

    checks.append(bochner.run_dct_experiment(_dct_spec(seed, 20), 14, cfg))

    rng = rng_for(seed, 79)
    space = random_measure_space(rng, 3, normalize=True)
    handle = LpHandle(Fraction(1), space, ModuleSpace(2, 2, NormKind.SUP))
    checks.append(bochner.run_completeness_harness(handle, seed, 8, cfg))

    checks.append(duality.bootstrap_lower_bound(
        _bootstrap_dual(seed, 3, 2), Fraction(2), 20, cfg))

    checks.append(vecmeasure.rnp_probe(4, 4, d=1, cfg=cfg))

    rng = rng_for(seed, 83)
    G = vecmeasure.VectorMeasure.from_density(_random_lfunction(
        rng, random_measure_space(rng, 4, null_atoms=1),
        ModuleSpace(2, 2, NormKind.SUP)))
    checks.append(_density_check(G))
    varied = vecmeasure.variation(G, cfg)
    checks.append(CheckReport(name="variation", passed=varied.passed,
                              details={}, witness=varied.witness))

    checks.append(duality.roundtrip_check(
        Fraction(1), INF, 25, seed, cfg=cfg))
    checks.append(duality.roundtrip_check(
        Fraction(2), Fraction(2), 25, seed, cfg=cfg))

    return _report(args, checks)


# ---------------------------------------------------------------------------
# plumbing

def _config_echo(args) -> dict:
    skip = {"func", "out", "format", "command_path", "group", "cmd"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def _report(args, checks: List[CheckReport]) -> Report:
    return Report(command=args.command_path, config=_config_echo(args),
                  checks=checks)


def _emit(report: Report, args) -> None:
    if args.format == "csv":
        rows = []
        for check in report.checks:
            if check.series:
                rows = check.series
                break
        payload = series_to_csv(rows) if rows else "no series available\n"
        data = payload.encode("utf-8")
    else:
        data = report_to_json_bytes(report)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)


def _positive_int(s: str) -> int:
    n = int(s)
    if n < 1:
        # zero trials would check nothing and still print PASS
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _add_common(sub, *, trials: int = 100, atoms: int = 4, rank: int = 2,
                dim: int = 2, norm: str = "sup") -> None:
    sub.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sub.add_argument("--trials", type=_positive_int, default=trials)
    sub.add_argument("--tol", type=str, default=None,
                     help="comparison tolerance as a rational, e.g. 1/1073741824")
    sub.add_argument("--out", type=str, default=None)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--atoms", type=int, default=atoms)
    sub.add_argument("--rank", type=int, default=rank)
    sub.add_argument("--dim", type=int, default=dim)
    sub.add_argument("--norm", choices=("sup", "one", "two"), default=norm)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lbochner",
        description="Exact checks for lattice-valued function spaces")
    top = parser.add_subparsers(dest="group", required=True)

    check = top.add_parser("check", help="inequality and axiom checkers")
    check_sub = check.add_subparsers(dest="cmd", required=True)

    sub = check_sub.add_parser("norm-axioms")
    _add_common(sub)
    sub.set_defaults(func=_cmd_check_norm_axioms, command_path="check norm-axioms")

    sub = check_sub.add_parser("holder")
    _add_common(sub)
    sub.add_argument("--space", type=str, default=None)
    sub.add_argument("--u", type=str, default=None)
    sub.add_argument("--v", type=str, default=None)
    sub.add_argument("--p", type=str, default="2")
    sub.set_defaults(func=_cmd_check_holder, command_path="check holder")

    sub = check_sub.add_parser("minkowski")
    _add_common(sub)
    sub.add_argument("--space", type=str, default=None)
    sub.add_argument("--u", type=str, default=None)
    sub.add_argument("--v", type=str, default=None)
    sub.add_argument("--p", type=str, default="2")
    sub.set_defaults(func=_cmd_check_minkowski, command_path="check minkowski")

    sub = check_sub.add_parser("sup-rep")
    _add_common(sub, atoms=6, rank=1)
    sub.add_argument("--fn", type=str, default=None)
    sub.add_argument("--p", type=str, default="2")
    sub.set_defaults(func=_cmd_check_sup_rep, command_path="check sup-rep")

    sub = check_sub.add_parser("chebyshev")
    _add_common(sub, trials=6, rank=1)
    sub.add_argument("--gamma", type=str, default="1/10")
    sub.set_defaults(func=_cmd_check_chebyshev, command_path="check chebyshev")

    run = top.add_parser("run", help="experiments and harnesses")
    run_sub = run.add_subparsers(dest="cmd", required=True)

    sub = run_sub.add_parser("dct")
    _add_common(sub)
    sub.add_argument("--levels", type=int, default=20)
    sub.add_argument("--nmax", type=int, default=14)
    sub.set_defaults(func=_cmd_run_dct, command_path="run dct")

    sub = run_sub.add_parser("completeness")
    _add_common(sub, atoms=3)
    sub.add_argument("--p", type=str, default="1")
    sub.add_argument("--terms", type=int, default=8)
    sub.set_defaults(func=_cmd_run_completeness, command_path="run completeness")

    sub = run_sub.add_parser("bootstrap")
    _add_common(sub, atoms=3)
    sub.add_argument("--p", type=str, default="2")
    sub.add_argument("--nmax", type=int, default=20)
    sub.add_argument("--limit-tol", type=str, default="1/1048576",
                     help="limit-comparison tolerance; the attainable gap "
                          "shrinks like q/p**(nmax+1)")
    sub.set_defaults(func=_cmd_run_bootstrap, command_path="run bootstrap")

    sub = run_sub.add_parser("rnp-probe")
    _add_common(sub, dim=1)
    sub.add_argument("--levels", type=int, default=4)
    sub.add_argument("--sets", type=int, default=4)
    sub.set_defaults(func=_cmd_run_rnp_probe, command_path="run rnp-probe")

    dual = top.add_parser("dual", help="dual representation checks")
    dual_sub = dual.add_subparsers(dest="cmd", required=True)

    sub = dual_sub.add_parser("isometry")
    _add_common(sub, trials=25, atoms=3)
    sub.add_argument("--v", type=str, default=None)
    sub.add_argument("--p", type=str, default="1")
    sub.set_defaults(func=_cmd_dual_isometry, command_path="dual isometry")

    sub = dual_sub.add_parser("represent")
    _add_common(sub, atoms=3)
    sub.add_argument("--v", type=str, default=None)
    sub.add_argument("--p", type=str, default="1")
    sub.set_defaults(func=_cmd_dual_represent, command_path="dual represent")

    sub = dual_sub.add_parser("roundtrip")
    _add_common(sub, trials=25, atoms=3)
    sub.add_argument("--p", type=str, default="1")
    sub.set_defaults(func=_cmd_dual_roundtrip, command_path="dual roundtrip")

    rn = top.add_parser("rn", help="density and variation")
    rn_sub = rn.add_subparsers(dest="cmd", required=True)

    sub = rn_sub.add_parser("density")
    _add_common(sub)
    sub.add_argument("--measure", type=str, default=None)
    sub.set_defaults(func=_cmd_rn_density, command_path="rn density")

    sub = rn_sub.add_parser("variation")
    _add_common(sub)
    sub.add_argument("--measure", type=str, default=None)
    sub.set_defaults(func=_cmd_rn_variation, command_path="rn variation")

    suite = top.add_parser("suite", help="composite runs")
    suite_sub = suite.add_subparsers(dest="cmd", required=True)
    sub = suite_sub.add_parser("all")
    _add_common(sub)
    sub.set_defaults(func=_cmd_suite_all, command_path="suite all")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        report = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
