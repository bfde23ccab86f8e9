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


def _codomain(args) -> lmodule.ModuleSpace:
    return lmodule.ModuleSpace(args.rank, args.dim,
                               lmodule.NormKind(args.norm))


def _random_lfunction(rng, space, codomain) -> bochner.LFunction:
    return bochner.LFunction(space, codomain, tuple(
        sampling.random_module_vector(rng, codomain)
        for _ in range(space.size)))


# ---------------------------------------------------------------------------
# check subcommands

def _cmd_check_norm_axioms(args, stream=11) -> list[reports.CheckReport]:
    cfg = _tolerances(args)
    space = _codomain(args)
    rng = sampling.rng_for(args.seed, stream)
    samples = []
    for _ in range(args.trials):
        lam = sampling.random_lelement(rng, args.dim)
        x = sampling.random_module_vector(rng, space)
        y = sampling.random_module_vector(rng, space)
        samples.append((lam, x, y))
    return [lmodule.check_norm_axioms(space, samples, cfg)]


def _function_pair(args, rng, dual: bool):
    """u and v from their documents, or seeded.  With ``dual`` v is a dual
    function, into the dual of u's codomain, and its document is read as
    ``dual isometry --v`` reads one; otherwise v is into u's codomain.  A
    seeded u pairs with a v document, on v's space unless ``--space``."""
    space = (serialize.measure_space_from_doc(
        serialize.load_json(args.space), args.space) if args.space
        else sampling.random_measure_space(rng, args.atoms))
    codomain = _codomain(args)
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
                 run_trial) -> list[reports.CheckReport]:
    """Runs run_trial(trial) for each of n trials; every failing trial
    counts, and the first names the witness: the trial, then the trial
    report's own."""
    for trial in range(n):
        check.absorb(run_trial(trial), trial=trial)
    check.details["failures"] = check.failures
    return [check]


def _cmd_check_holder(args) -> list[reports.CheckReport]:
    cfg = _tolerances(args)
    p = _parse_exponent(args.p)
    q = bochner.conjugate_exponent(p)
    rng = sampling.rng_for(args.seed, 13)
    n = args.trials if not (args.u or args.v) else 1
    check = reports.CheckReport(name="holder", details={
        "pairs": n, "p": _exponent_str(p), "q": _exponent_str(q)})
    return _over_trials(check, n, lambda trial: bochner.check_holder(
        *_function_pair(args, rng, dual=True), p, cfg))


def _cmd_check_minkowski(args) -> list[reports.CheckReport]:
    cfg = _tolerances(args)
    p = _parse_exponent(args.p)
    if p is bochner.INF:
        raise ValueError("minkowski needs a finite exponent")
    rng = sampling.rng_for(args.seed, 17)
    n = args.trials if not (args.u or args.v) else 1
    check = reports.CheckReport(name="minkowski",
                                details={"pairs": n, "p": _exponent_str(p)})
    return _over_trials(check, n, lambda trial: bochner.check_minkowski(
        *_function_pair(args, rng, dual=False), p, cfg))


def _cmd_check_sup_rep(args, stream=19) -> list[reports.CheckReport]:
    cfg = _tolerances(args)
    p = _parse_exponent(args.p)
    rng = sampling.rng_for(args.seed, stream)
    if args.fn:
        f = serialize.lfunction_from_doc(serialize.load_json(args.fn), args.fn)
    else:
        space = sampling.random_measure_space(rng, args.atoms)
        f = _random_lfunction(rng, space, _codomain(args))
    return [bochner.verify_sup_representation(f, p, cfg)]


def _cmd_check_chebyshev(args, stream=23) -> list[reports.CheckReport]:
    from fractions import Fraction

    cfg = _tolerances(args)
    gamma = serialize.parse_rational(args.gamma, "--gamma")
    rng = sampling.rng_for(args.seed, stream)
    space = sampling.random_measure_space(rng, args.atoms)
    codomain = _codomain(args)
    h = _random_lfunction(rng, space, codomain)
    w = _random_lfunction(rng, space, codomain)
    hs = [h + w.scale_rational(Fraction(1, 2 ** n))
          for n in range(args.trials)]
    return [bochner.check_chebyshev_step(hs, h, gamma, cfg)]


# ---------------------------------------------------------------------------
# run subcommands

def _dct_spec(seed: int, levels: int) -> bochner.TruncatedSequenceSpec:
    from fractions import Fraction

    if levels < 1:
        raise ValueError("levels must be >= 1")
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


def _cmd_run_dct(args) -> list[reports.CheckReport]:
    spec = _dct_spec(args.seed, args.levels)
    return [bochner.run_dct_experiment(spec, args.nmax, _tolerances(args))]


def _cmd_run_completeness(args, stream=31) -> list[reports.CheckReport]:
    cfg = _tolerances(args)
    rng = sampling.rng_for(args.seed, stream)
    space = sampling.random_measure_space(rng, args.atoms, normalize=True)
    return [bochner.run_completeness_harness(
        space, _codomain(args), _parse_exponent(args.p), args.seed,
        args.terms, cfg)]


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


def _cmd_run_bootstrap(args) -> list[reports.CheckReport]:
    cfg = _tolerances(args)
    limit_tol = serialize.parse_rational(args.limit_tol, "--limit-tol")
    v = _bootstrap_dual(args.seed, args.atoms, args.dim)
    return [duality.bootstrap_lower_bound(v, _parse_exponent(args.p),
                                          args.nmax, cfg, limit_tol=limit_tol)]


def _cmd_run_rnp_probe(args) -> list[reports.CheckReport]:
    return [vecmeasure.rnp_probe(args.levels, args.sets, d=args.dim,
                                 cfg=_tolerances(args))]


# ---------------------------------------------------------------------------
# dual subcommands

def _dual_function(args, rng) -> bochner.LFunction:
    if args.v:
        return serialize.dual_function_from_doc(
            serialize.load_json(args.v), args.v)
    space = sampling.random_measure_space(rng, args.atoms)
    return _random_lfunction(rng, space, _codomain(args).dual())


def _cmd_dual_isometry(args) -> list[reports.CheckReport]:
    cfg = _tolerances(args)
    p = _parse_exponent(args.p)
    q = bochner.conjugate_exponent(p)
    rng = sampling.rng_for(args.seed, 41)
    n = args.trials if not args.v else 1
    check = reports.CheckReport(name="isometry", series=[], details={
        "trials": n, "p": _exponent_str(p), "q": _exponent_str(q)})

    def trial_isometry(trial):
        rep = duality.isometry_check(_dual_function(args, rng), p, cfg)
        check.series.append({"trial": trial, "gap": rep.details["gaps"]})
        return rep

    return _over_trials(check, n, trial_isometry)


def _cmd_dual_represent(args) -> list[reports.CheckReport]:
    p = _parse_exponent(args.p)
    v = _dual_function(args, sampling.rng_for(args.seed, 43))
    check = reports.CheckReport(name="represent", details={
        "atoms": v.space.size, "p": _exponent_str(p)})
    duality.represent_back(check, v, p)
    return [check]


def _cmd_dual_roundtrip(args) -> list[reports.CheckReport]:
    return [duality.roundtrip_check(
        _parse_exponent(args.p), args.trials, args.seed, m=args.atoms,
        rank=args.rank, scalar_dim=args.dim,
        norm_kind=lmodule.NormKind(args.norm), cfg=_tolerances(args))]


# ---------------------------------------------------------------------------
# rn subcommands

def _vector_measure(args, stream) -> vecmeasure.VectorMeasure:
    if args.measure:
        return serialize.vector_measure_from_doc(
            serialize.load_json(args.measure), args.measure)
    rng = sampling.rng_for(args.seed, stream)
    space = sampling.random_measure_space(rng, args.atoms, null_atoms=1)
    return vecmeasure.VectorMeasure.from_density(
        _random_lfunction(rng, space, _codomain(args)))


def _cmd_rn_density(args) -> list[reports.CheckReport]:
    G = _vector_measure(args, 47)
    return [vecmeasure.check_mu_continuity(G, _tolerances(args)),
            vecmeasure.rn_density(G)[1]]


def _cmd_rn_variation(args) -> list[reports.CheckReport]:
    return [vecmeasure.variation(_vector_measure(args, 53), _tolerances(args))]


# ---------------------------------------------------------------------------
# suite

def _holder_minkowski(args) -> list[reports.CheckReport]:
    """Both inequalities at exponent ``args.p`` on 50 seeded pairs of
    functions on three atoms into (1, 2, sup); the one suite check that no
    command runs."""
    cfg = _tolerances(args)
    p = _parse_exponent(args.p)
    rng = sampling.rng_for(args.seed, 67, int(p * 2))
    check = reports.CheckReport(name=f"holder-minkowski-p{args.p}",
                                details={"pairs": 50})
    for pair in range(50):
        space = sampling.random_measure_space(rng, 3)
        codomain = lmodule.ModuleSpace(1, 2, lmodule.NormKind.SUP)
        u = _random_lfunction(rng, space, codomain)
        v = _random_lfunction(rng, space, codomain)
        for rep in (bochner.check_holder(u, v.moved_to(codomain.dual()), p,
                                         cfg),
                    bochner.check_minkowski(u, v, p, cfg)):
            check.absorb(rep, pair=pair, check=rep.name)
    check.details["failures"] = check.failures
    return [check]


def _rn_checks(args, stream) -> list[reports.CheckReport]:
    """``rn density``'s density check and ``rn variation``'s check on one
    measure drawn at ``stream``, without the mu-continuity check and with
    the variation's details left empty."""
    G = _vector_measure(args, stream)
    density = vecmeasure.rn_density(G)[1]
    variation = vecmeasure.variation(G, _tolerances(args))
    variation.details = {}
    return [density, variation]


def _suite_rows() -> tuple:
    """The rows of ``suite all`` in document order: (builder, the command
    whose defaults it takes, option overrides, rng stream or None for the
    builder's own, details override or None).  Built on each call, as
    ``_commands()`` is, so a rebound builder is the one the suite calls."""
    return (
        *((_cmd_check_norm_axioms, "check norm-axioms", {"norm": norm}, 61,
           {"trials": 100}) for norm in ("sup", "one", "two")),
        *((_holder_minkowski, "suite all", {"p": p}, None, None)
          for p in ("1", "2", "3")),
        (_cmd_check_sup_rep, "check sup-rep", {}, 71, None),
        (_cmd_check_chebyshev, "check chebyshev", {}, 73, None),
        (_cmd_run_dct, "run dct", {}, None, None),
        (_cmd_run_completeness, "run completeness", {}, 79, None),
        (_cmd_run_bootstrap, "run bootstrap", {}, None, None),
        (_cmd_run_rnp_probe, "run rnp-probe", {}, None, None),
        (_rn_checks, "rn density", {}, 83, None),
        (_cmd_dual_roundtrip, "dual roundtrip", {"p": "1"}, None, None),
        (_cmd_dual_roundtrip, "dual roundtrip", {"p": "2"}, None, None),
    )


def _cmd_suite_all(args) -> list[reports.CheckReport]:
    commands = _commands()
    checks = []
    for builder, command, overrides, stream, details in _suite_rows():
        options = _options(commands, command, overrides, args)
        built = (builder(options) if stream is None
                 else builder(options, stream))
        for check in built:
            if details is not None:
                check.details = details
        checks += built
    return checks


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
    try:
        n = int(s)
    except ValueError:
        # in argparse's own words for an int option, which would otherwise
        # name this function
        raise argparse.ArgumentTypeError(f"invalid int value: {s!r}") from None
    if n < 1:
        # zero trials would check nothing and still print PASS
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


# the common options' defaults; every report echoes all but the output
# options, and a subcommand's entry in _commands() overrides some of them
COMMON_DEFAULTS = {"seed": DEFAULT_SEED, "trials": 100, "tol": None,
                   "atoms": 4, "rank": 2, "dim": 2, "norm": "sup",
                   "out": None, "format": "json"}

# the common options as argparse keywords: one grammar, which build_parser
# registers and _read reads; the last five only where a subcommand draws
# data
_COMMON_OPTIONS = (
    ("--seed", {"type": int}),
    ("--tol", {"type": str, "help": "comparison tolerance as a rational, "
                                    "e.g. 1/1073741824"}),
    ("--out", {"type": str}),
    ("--format", {"choices": ("json", "csv")}),
    ("--trials", {"type": _positive_int}),
    ("--atoms", {"type": int}),
    ("--rank", {"type": int}),
    ("--dim", {"type": int}),
    ("--norm", {"choices": ("sup", "one", "two")}),
)


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _grammar(group: str, options) -> list:
    """(flag, argparse keywords) for each option of a subcommand of
    ``group`` with own ``options``: the common ones, of which ``suite``
    takes only the first four, then its own."""
    return [*_COMMON_OPTIONS[:4 if group == "suite" else None],
            *((flag, {"type": int if isinstance(default, int) else str,
                      "help": doc[0] if doc else None})
              for flag, default, *doc in options)]


def _defaults(common: dict, options) -> dict:
    """A subcommand's options before its command line: the common
    defaults, ``common`` over them, and its own options' defaults."""
    return {**COMMON_DEFAULTS, **common,
            **{_dest(flag): default for flag, default, *_ in options}}


def _options(commands: dict, command: str, overrides: dict,
             args) -> argparse.Namespace:
    """The options ``command`` ("group cmd") parses from ``args``'s
    ``--seed`` and ``--tol`` alone, with ``overrides`` on top: its defaults,
    read from the command table without building a parser."""
    group, cmd = command.split()
    _, common, options = commands[group][1][cmd]
    return argparse.Namespace(**{
        **_defaults(common, options), **overrides,
        "seed": args.seed, "tol": args.tol})


_PAIR_OPTIONS = (("--space", None), ("--u", None), ("--v", None),
                 ("--p", "2"))


def _commands() -> dict:
    """group -> (help, {subcommand: (builder, defaults over
    COMMON_DEFAULTS, own options)}); an own option is (flag, default) or
    (flag, default, help) and takes an int when its default is one, a
    string otherwise.

    A builder takes the parsed options and returns the subcommand's checks,
    which ``main`` wraps into the report.  ``suite all`` calls the same
    builders on options built from these defaults (``_suite_rows``); a
    builder that the suite draws at another rng stream label also takes
    ``stream``, defaulting to the subcommand's own.  Built
    on each call, so the builders are looked up when a command line is read
    or the suite is built: a builder rebound after import (the per-layer
    tracer wraps them all) is the one that runs."""
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
    """The parser for ``argv``, which ``main`` builds only for help and
    usage errors.  Every group is registered, so help and choice errors
    list them all; only the group that ``argv[0]`` names gets its
    subcommands, which its own help and choice errors list, and only the
    subcommand that ``argv[:2]`` names gets its options: no other group or
    subcommand can parse ``argv``.  ``suite all`` draws nothing itself and
    takes only ``--seed``, ``--tol``, ``--out`` and ``--format``."""
    parser = argparse.ArgumentParser(
        prog="lbochner",
        description="Exact checks for lattice-valued function spaces")
    top = parser.add_subparsers(dest="group", required=True)
    wanted = tuple(argv[:2])
    for group, (group_help, table) in _commands().items():
        group_parser = top.add_parser(group, help=group_help)
        if wanted[:1] != (group,):
            continue
        group_sub = group_parser.add_subparsers(dest="cmd", required=True)
        for cmd, (func, common, options) in table.items():
            sub = group_sub.add_parser(cmd)
            if (group, cmd) != wanted:
                continue
            for flag, keywords in _grammar(group, options):
                sub.add_argument(flag, **keywords)
            sub.set_defaults(**_defaults(common, options), func=func,
                             command_path=f"{group} {cmd}")
    return parser


def _read(argv: list) -> argparse.Namespace | None:
    """``build_parser(argv).parse_args(argv)`` for an ``argv`` of a known
    subcommand and ``--flag value`` or ``--flag=value`` pairs, each flag
    exactly one of its options and each value not led by a dash and taken
    by the option's type or choices; read from the command table without
    building a parser.  None for anything else, help and usage errors
    included, which only argparse answers."""
    try:
        group, cmd, *words = argv
        func, common, options = _commands()[group][1][cmd]
    except (ValueError, KeyError):
        return None
    grammar = dict(_grammar(group, options))
    values = {"group": group, "cmd": cmd, **_defaults(common, options),
              "func": func, "command_path": f"{group} {cmd}"}
    words = iter(words)
    for word in words:
        flag, eq, value = word.partition("=")
        if not eq:
            value = next(words, "-")  # a missing value reads as dash-led
        keywords = grammar.get(flag)
        if keywords is None or value[:1] == "-":
            return None
        if "choices" in keywords:
            if value not in keywords["choices"]:
                return None
        else:
            try:
                value = keywords["type"](value)
            except (ValueError, argparse.ArgumentTypeError):
                return None
        values[_dest(flag)] = value
    return argparse.Namespace(**values)


def main(argv: list[str] | None = None) -> int:
    """Runs the command line ``argv`` (``sys.argv[1:]`` by default) and
    returns its exit code.  A well-formed command line is read straight
    from the command table (``_read``); only help and usage errors build a
    parser, so their text and exit codes are argparse's own."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # "--tol -1/2" as "--tol=-1/2": argparse takes "-1/2" for an option
    for i in range(len(argv) - 1, 0, -1):
        flag, word = argv[i - 1], argv[i]
        if (flag[:2] == "--" and flag[2:3].isalpha() and "=" not in flag
                and word[:1] == "-"):
            try:
                serialize.parse_rational(word)
            except ValueError:
                continue
            argv[i - 1:i + 1] = [f"{flag}={word}"]
    args = _read(argv)
    if args is None:
        try:
            args = build_parser(argv).parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        report = _report(args, args.func(args))
        _emit(report, args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
