"""Command-line front end.

Loads space/function documents (or synthesizes seeded instances), runs the
check suites and experiments deterministically, and emits verdict documents
plus plot-ready CSV.  Exit codes: 0 all checks pass, 1 any failure, 2 on
usage or parse errors.  Identical configuration yields byte-identical
output.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys


def _lazy(name: str):
    """The package's module ``name``, put in ``sys.modules`` so that its body
    runs on first attribute access (the ``LazyLoader`` recipe of the
    importlib docs).  A module already imported is returned as it is."""
    name = f"{__package__}.{name}"
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    setattr(sys.modules[parent], child, module)
    return module


# A command pays only for the layers it reaches.  certified and the kernel
# are reached through the other layers alone; they are registered as well
# so that every layer module is in sys.modules once this one is imported,
# which perfbench/layertrace.py relies on.
bochner = _lazy("bochner")
duality = _lazy("duality")
falgebra = _lazy("falgebra")
lmodule = _lazy("lmodule")
measure = _lazy("measure")
reports = _lazy("reports")
sampling = _lazy("sampling")
serialize = _lazy("serialize")
vecmeasure = _lazy("vecmeasure")
_lazy("certified")
_lazy("_kernel._pykernel")

DEFAULT_SEED = 42


def _parse_exponent(s: str):
    if s in ("inf", "infinity", "oo"):
        return bochner.INF
    p = serialize.parse_rational(s, "--p")
    if p < 1:
        raise ValueError(f"exponent must be >= 1 or inf, got {s}")
    return p


def _exponent_str(p) -> str:
    return "inf" if p is bochner.INF else str(p)


def _tolerances(args) -> falgebra.ToleranceConfig:
    if args.tol is None:
        return falgebra.DEFAULT_TOLERANCES
    return falgebra.ToleranceConfig(
        serialize.parse_rational(args.tol, "--tol"))


def _norm_kind(name: str) -> lmodule.NormKind:
    return lmodule.NormKind(name)


def _random_lfunction(rng, space, codomain) -> bochner.LFunction:
    return bochner.LFunction(space, codomain, tuple(
        sampling.random_module_vector(rng, codomain)
        for _ in range(space.size)))


def _load_or_random_space(args, rng) -> measure.MeasureSpace:
    if getattr(args, "space", None):
        return serialize.measure_space_from_doc(
            serialize.load_json(args.space), args.space)
    return sampling.random_measure_space(rng, args.atoms)


# ---------------------------------------------------------------------------
# check subcommands

def _cmd_check_norm_axioms(args) -> reports.Report:
    cfg = _tolerances(args)
    space = lmodule.ModuleSpace(args.rank, args.dim, _norm_kind(args.norm))
    rng = sampling.rng_for(args.seed, 11)
    samples = []
    for _ in range(args.trials):
        lam = sampling.random_lelement(rng, args.dim)
        x = sampling.random_module_vector(rng, space)
        y = sampling.random_module_vector(rng, space)
        samples.append((lam, x, y))
    return _report(args, [lmodule.check_norm_axioms(space, samples, cfg)])


def _function_pair(args, rng, dual: bool):
    """u and v from their documents, or seeded.  With ``dual`` v is a dual
    function, into the dual of u's codomain, and its document is read as
    ``dual isometry --v`` reads one; otherwise v is into u's codomain.  A
    seeded u pairs with a v document, on v's space unless ``--space``."""
    space = _load_or_random_space(args, rng)
    codomain = lmodule.ModuleSpace(args.rank, args.dim, _norm_kind(args.norm))
    u = v = None
    if args.u:
        u = serialize.lfunction_from_doc(serialize.load_json(args.u), args.u)
        space, codomain = u.space, u.codomain
    if args.v:
        load = (serialize.dual_function_from_doc if dual
                else serialize.lfunction_from_doc)
        v = load(serialize.load_json(args.v), args.v)
        if u is None:
            space = space if args.space else v.space
            codomain = v.codomain.dual() if dual else v.codomain
    if u is None:
        u = _random_lfunction(rng, space, codomain)
    if v is None:
        v = _random_lfunction(rng, space,
                              codomain.dual() if dual else codomain)
    return u, v


def _over_trials(check: reports.CheckReport, n: int,
                 run_trial) -> reports.CheckReport:
    """Runs run_trial(trial) for each of n trials; every failing trial
    counts, and the first names the witness together with the trial
    report's own, if it has one."""
    for trial in range(n):
        rep = run_trial(trial)
        if not rep.passed:
            check.fail({"trial": trial, **(rep.witness or {})})
    check.details["failures"] = check.failures
    return check


def _cmd_check_holder(args) -> reports.Report:
    cfg = _tolerances(args)
    p = _parse_exponent(args.p)
    q = bochner.conjugate_exponent(p)
    rng = sampling.rng_for(args.seed, 13)
    n = args.trials if not (args.u or args.v) else 1
    check = reports.CheckReport(name="holder", details={
        "pairs": n, "p": _exponent_str(p), "q": _exponent_str(q)})
    return _report(args, [_over_trials(check, n, lambda trial: (
        bochner.check_holder(*_function_pair(args, rng, dual=True), p, q,
                             cfg)))])


def _cmd_check_minkowski(args) -> reports.Report:
    cfg = _tolerances(args)
    p = _parse_exponent(args.p)
    if p is bochner.INF:
        raise ValueError("minkowski needs a finite exponent")
    rng = sampling.rng_for(args.seed, 17)
    n = args.trials if not (args.u or args.v) else 1
    check = reports.CheckReport(name="minkowski",
                                details={"pairs": n, "p": _exponent_str(p)})
    return _report(args, [_over_trials(check, n, lambda trial: (
        bochner.check_minkowski(*_function_pair(args, rng, dual=False), p,
                                cfg)))])


def _cmd_check_sup_rep(args) -> reports.Report:
    cfg = _tolerances(args)
    p = _parse_exponent(args.p)
    rng = sampling.rng_for(args.seed, 19)
    if args.fn:
        f = serialize.lfunction_from_doc(serialize.load_json(args.fn), args.fn)
    else:
        space = sampling.random_measure_space(rng, args.atoms)
        codomain = lmodule.ModuleSpace(args.rank, args.dim,
                                       _norm_kind(args.norm))
        f = _random_lfunction(rng, space, codomain)
    rep = bochner.verify_sup_representation(f, p, cfg)
    return _report(args, [rep])


def _cmd_check_chebyshev(args) -> reports.Report:
    from fractions import Fraction

    cfg = _tolerances(args)
    gamma = serialize.parse_rational(args.gamma, "--gamma")
    rng = sampling.rng_for(args.seed, 23)
    space = sampling.random_measure_space(rng, args.atoms)
    codomain = lmodule.ModuleSpace(args.rank, args.dim, _norm_kind(args.norm))
    h = _random_lfunction(rng, space, codomain)
    w = _random_lfunction(rng, space, codomain)
    hs = [h + w.scale_rational(Fraction(1, 2 ** n))
          for n in range(args.trials)]
    rep = bochner.check_chebyshev_step(hs, h, gamma, cfg)
    return _report(args, [rep])


# ---------------------------------------------------------------------------
# run subcommands

def _dct_spec(seed: int, levels: int) -> bochner.TruncatedSequenceSpec:
    from fractions import Fraction

    names = tuple(f"t{t}" for t in range(1, levels + 1))
    masses = tuple(Fraction(1, 2 ** t) for t in range(1, levels + 1))
    space = measure.MeasureSpace(names, masses)
    codomain = lmodule.ModuleSpace(1, 2, lmodule.NormKind.SUP)
    rng = sampling.rng_for(seed, 29)
    values = []
    for _ in range(levels):
        den = rng.randint(1, 9)
        coords = [Fraction(rng.randint(-den, den), den) for _ in range(2)]
        values.append(lmodule.ModuleVector(
            codomain, (falgebra.LElement(coords),)))
    limit = bochner.LFunction(space, codomain, tuple(values))
    zero = codomain.zero()

    def term(n: int, t: int):
        return values[t] if t < n else zero

    return bochner.TruncatedSequenceSpec(
        space=space,
        codomain=codomain,
        term=term,
        limit=limit,
        dominator=tuple(falgebra.LElement.unit(2) for _ in range(levels)),
        scalar_bound=Fraction(1),
        tail_mass=Fraction(1, 2 ** levels),
    )


def _cmd_run_dct(args) -> reports.Report:
    cfg = _tolerances(args)
    spec = _dct_spec(args.seed, args.levels)
    rep = bochner.run_dct_experiment(spec, args.nmax, cfg)
    return _report(args, [rep])


def _cmd_run_completeness(args) -> reports.Report:
    cfg = _tolerances(args)
    rng = sampling.rng_for(args.seed, 31)
    space = sampling.random_measure_space(rng, args.atoms, normalize=True)
    codomain = lmodule.ModuleSpace(args.rank, args.dim, _norm_kind(args.norm))
    rep = bochner.run_completeness_harness(
        space, codomain, _parse_exponent(args.p), args.seed, args.terms, cfg)
    return _report(args, [rep])


def _bootstrap_dual(seed: int, atoms: int, dim: int) -> bochner.LFunction:
    # probability space and atom norms inside [1/2, 2]: keeps the truncation
    # gap of the exponent chain provably under the 2**-20 allowance
    from fractions import Fraction

    rng = sampling.rng_for(seed, 37)
    space = sampling.random_measure_space(rng, atoms, normalize=True)
    dual = lmodule.ModuleSpace(1, dim, lmodule.NormKind.SUP).dual()
    values = []
    for _ in range(atoms):
        coords = [Fraction(rng.randint(4, 8), rng.randint(4, 8))
                  * (1 if rng.random() < 0.5 else -1) for _ in range(dim)]
        values.append(lmodule.ModuleVector(
            dual, (falgebra.LElement(coords),)))
    return bochner.LFunction(space, dual, tuple(values))


def _cmd_run_bootstrap(args) -> reports.Report:
    cfg = _tolerances(args)
    limit_tol = serialize.parse_rational(args.limit_tol, "--limit-tol")
    v = _bootstrap_dual(args.seed, args.atoms, args.dim)
    rep = duality.bootstrap_lower_bound(v, _parse_exponent(args.p),
                                        args.nmax, cfg, limit_tol=limit_tol)
    return _report(args, [rep])


def _cmd_run_rnp_probe(args) -> reports.Report:
    cfg = _tolerances(args)
    rep = vecmeasure.rnp_probe(args.levels, args.sets, d=args.dim, cfg=cfg)
    return _report(args, [rep])


# ---------------------------------------------------------------------------
# dual subcommands

def _dual_function(args, rng) -> bochner.LFunction:
    if getattr(args, "v", None):
        return serialize.dual_function_from_doc(
            serialize.load_json(args.v), args.v)
    space = sampling.random_measure_space(rng, args.atoms)
    primal = lmodule.ModuleSpace(args.rank, args.dim, _norm_kind(args.norm))
    return _random_lfunction(rng, space, primal.dual())


def _cmd_dual_isometry(args) -> reports.Report:
    cfg = _tolerances(args)
    p = _parse_exponent(args.p)
    q = bochner.conjugate_exponent(p)
    rng = sampling.rng_for(args.seed, 41)
    n = args.trials if not args.v else 1
    check = reports.CheckReport(name="isometry", series=[], details={
        "trials": n, "p": _exponent_str(p), "q": _exponent_str(q)})

    def trial_isometry(trial):
        rep = duality.isometry_check(_dual_function(args, rng), p, q, cfg)
        check.series.append({"trial": trial, "gap": rep.details["gaps"]})
        return rep

    return _report(args, [_over_trials(check, n, trial_isometry)])


def _cmd_dual_represent(args) -> reports.Report:
    p = _parse_exponent(args.p)
    rng = sampling.rng_for(args.seed, 43)
    v = _dual_function(args, rng)
    check = reports.CheckReport(name="represent", details={
        "atoms": v.space.size, "p": _exponent_str(p)})
    try:
        v_back = duality.represent(duality.build_F(v, p))
    except duality.RepresentationMismatch as exc:
        check.fail(exc.witness)
    else:
        for t, mass in enumerate(v.space.masses):
            if mass > 0 and v_back.values[t] != v.values[t]:
                check.fail({"atom": v.space.atom_names[t]})
    return _report(args, [check])


def _cmd_dual_roundtrip(args) -> reports.Report:
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
    space = sampling.random_measure_space(rng, args.atoms, null_atoms=1)
    codomain = lmodule.ModuleSpace(args.rank, args.dim, _norm_kind(args.norm))
    g = _random_lfunction(rng, space, codomain)
    return vecmeasure.VectorMeasure.from_density(g)


def _cmd_rn_density(args) -> reports.Report:
    rng = sampling.rng_for(args.seed, 47)
    G = _vector_measure(args, rng)
    continuity = vecmeasure.check_mu_continuity(G, _tolerances(args))
    try:
        _, density_check = vecmeasure.rn_density(G)
    except vecmeasure.NotAbsolutelyContinuous as exc:
        density_check = reports.CheckReport(name="rn-density")
        density_check.fail({"error": str(exc)})
    return _report(args, [continuity, density_check])


def _cmd_rn_variation(args) -> reports.Report:
    cfg = _tolerances(args)
    rng = sampling.rng_for(args.seed, 53)
    G = _vector_measure(args, rng)
    return _report(args, [vecmeasure.variation(G, cfg)])


# ---------------------------------------------------------------------------
# suite

def _cmd_suite_all(args) -> reports.Report:
    from fractions import Fraction

    cfg = _tolerances(args)
    seed = args.seed
    checks: list[reports.CheckReport] = []

    NormKind = lmodule.NormKind
    for kind in (NormKind.SUP, NormKind.ONE, NormKind.TWO):
        space = lmodule.ModuleSpace(2, 2, kind)
        rng = sampling.rng_for(seed, 61)
        samples = []
        for _ in range(100):
            lam = sampling.random_lelement(rng, 2)
            samples.append((lam, sampling.random_module_vector(rng, space),
                            sampling.random_module_vector(rng, space)))
        rep = lmodule.check_norm_axioms(space, samples, cfg)
        rep.details = {"trials": 100}
        checks.append(rep)

    for p_str in ("1", "2", "3"):
        p = Fraction(p_str)
        q = bochner.conjugate_exponent(p)
        rng = sampling.rng_for(seed, 67, int(p * 2))
        check = reports.CheckReport(name=f"holder-minkowski-p{p_str}",
                                    details={"pairs": 50})
        for pair in range(50):
            space = sampling.random_measure_space(rng, 3)
            codomain = lmodule.ModuleSpace(1, 2, NormKind.SUP)
            u = _random_lfunction(rng, space, codomain)
            v = _random_lfunction(rng, space, codomain)
            for rep in (bochner.check_holder(u, v.moved_to(codomain.dual()),
                                             p, q, cfg),
                        bochner.check_minkowski(u, v, p, cfg)):
                if not rep.passed:
                    check.fail({"pair": pair, "check": rep.name,
                                **rep.witness})
        check.details["failures"] = check.failures
        checks.append(check)

    rng = sampling.rng_for(seed, 71)
    space = sampling.random_measure_space(rng, 6)
    codomain = lmodule.ModuleSpace(1, 2, NormKind.SUP)
    f = _random_lfunction(rng, space, codomain)
    checks.append(bochner.verify_sup_representation(f, Fraction(2), cfg))

    rng = sampling.rng_for(seed, 73)
    space = sampling.random_measure_space(rng, 4)
    h = _random_lfunction(rng, space, codomain)
    w = _random_lfunction(rng, space, codomain)
    hs = [h + w.scale_rational(Fraction(1, 2 ** n)) for n in range(6)]
    checks.append(bochner.check_chebyshev_step(hs, h, Fraction(1, 10), cfg))

    checks.append(bochner.run_dct_experiment(_dct_spec(seed, 20), 14, cfg))

    rng = sampling.rng_for(seed, 79)
    space = sampling.random_measure_space(rng, 3, normalize=True)
    checks.append(bochner.run_completeness_harness(
        space, lmodule.ModuleSpace(2, 2, NormKind.SUP), Fraction(1), seed, 8,
        cfg))

    checks.append(duality.bootstrap_lower_bound(
        _bootstrap_dual(seed, 3, 2), Fraction(2), 20, cfg))

    checks.append(vecmeasure.rnp_probe(4, 4, d=1, cfg=cfg))

    rng = sampling.rng_for(seed, 83)
    G = vecmeasure.VectorMeasure.from_density(_random_lfunction(
        rng, sampling.random_measure_space(rng, 4, null_atoms=1),
        lmodule.ModuleSpace(2, 2, NormKind.SUP)))
    checks.append(vecmeasure.rn_density(G)[1])
    varied = vecmeasure.variation(G, cfg)
    varied.details = {}
    checks.append(varied)

    checks.append(duality.roundtrip_check(
        Fraction(1), bochner.INF, 25, seed, cfg=cfg))
    checks.append(duality.roundtrip_check(
        Fraction(2), Fraction(2), 25, seed, cfg=cfg))

    return _report(args, checks)


# ---------------------------------------------------------------------------
# plumbing

def _config_echo(args) -> dict:
    skip = {"func", "out", "format", "command_path", "group", "cmd"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def _report(args, checks: list[reports.CheckReport]) -> reports.Report:
    return reports.Report(command=args.command_path,
                          config=_config_echo(args), checks=checks)


def _emit(report: reports.Report, args) -> None:
    if args.format == "csv":
        check = next((c for c in report.checks if c.series), None)
        payload = ("no series available\n" if check is None
                   else reports.rendered(
                       check, lambda c: reports.series_to_csv(c.series)))
        data = payload.encode("utf-8")
    else:
        data = reports.report_to_json_bytes(report)
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
                     help="comparison tolerance as a rational, "
                          "e.g. 1/1073741824")
    sub.add_argument("--out", type=str, default=None)
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--atoms", type=int, default=atoms)
    sub.add_argument("--rank", type=int, default=rank)
    sub.add_argument("--dim", type=int, default=dim)
    sub.add_argument("--norm", choices=("sup", "one", "two"), default=norm)


_PAIR_OPTIONS = (("--space", None), ("--u", None), ("--v", None),
                 ("--p", "2"))


def _commands() -> dict:
    """group -> (help, {subcommand: (handler, defaults for _add_common, own
    options)}); an own option is (flag, default) or (flag, default, help)
    and takes an int when its default is one, a string otherwise.  Built on
    each call, so the handlers are looked up when a parser is built: a
    handler rebound after import (the per-layer tracer wraps them all) is
    the one that runs."""
    return {
        "check": ("inequality and axiom checkers", {
            "norm-axioms": (_cmd_check_norm_axioms, {}, ()),
            "holder": (_cmd_check_holder, {}, _PAIR_OPTIONS),
            "minkowski": (_cmd_check_minkowski, {}, _PAIR_OPTIONS),
            "sup-rep": (_cmd_check_sup_rep, {"atoms": 6, "rank": 1},
                        (("--fn", None), ("--p", "2"))),
            "chebyshev": (_cmd_check_chebyshev, {"trials": 6, "rank": 1},
                          (("--gamma", "1/10"),)),
        }),
        "run": ("experiments and harnesses", {
            "dct": (_cmd_run_dct, {}, (("--levels", 20), ("--nmax", 14))),
            "completeness": (_cmd_run_completeness, {"atoms": 3},
                             (("--p", "1"), ("--terms", 8))),
            "bootstrap": (_cmd_run_bootstrap, {"atoms": 3}, (
                ("--p", "2"), ("--nmax", 20),
                ("--limit-tol", "1/1048576",
                 "limit-comparison tolerance; the attainable gap shrinks like "
                 "q/p**(nmax+1)"))),
            "rnp-probe": (_cmd_run_rnp_probe, {"dim": 1},
                          (("--levels", 4), ("--sets", 4))),
        }),
        "dual": ("dual representation checks", {
            "isometry": (_cmd_dual_isometry, {"trials": 25, "atoms": 3},
                         (("--v", None), ("--p", "1"))),
            "represent": (_cmd_dual_represent, {"atoms": 3},
                          (("--v", None), ("--p", "1"))),
            "roundtrip": (_cmd_dual_roundtrip, {"trials": 25, "atoms": 3},
                          (("--p", "1"),)),
        }),
        "rn": ("density and variation", {
            "density": (_cmd_rn_density, {}, (("--measure", None),)),
            "variation": (_cmd_rn_variation, {}, (("--measure", None),)),
        }),
        "suite": ("composite runs", {
            "all": (_cmd_suite_all, {}, ()),
        }),
    }


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for ``argv``.  Every group and subcommand is registered,
    so help and choice errors list them all, but only the subcommand that
    ``argv[:2]`` names gets its options: no other one can parse ``argv``."""
    parser = argparse.ArgumentParser(
        prog="lbochner",
        description="Exact checks for lattice-valued function spaces")
    top = parser.add_subparsers(dest="group", required=True)
    wanted = tuple(argv[:2])
    for group, (group_help, table) in _commands().items():
        group_sub = top.add_parser(group, help=group_help).add_subparsers(
            dest="cmd", required=True)
        for cmd, (func, common, options) in table.items():
            sub = group_sub.add_parser(cmd)
            if (group, cmd) != wanted:
                continue
            _add_common(sub, **common)
            for flag, default, *doc in options:
                sub.add_argument(
                    flag, type=int if isinstance(default, int) else str,
                    default=default, help=doc[0] if doc else None)
            sub.set_defaults(func=func, command_path=f"{group} {cmd}")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        report = args.func(args)
        _emit(report, args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
