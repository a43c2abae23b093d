"""Command line interface.

Exit codes: 0 success (bound found / all checks passed / ample), 2 invalid
arguments or out-of-domain inputs, 3 a clean "no" (no bound at this degree,
not ample, hypotheses unmet), 4 a check failed (a verification suite found a
violation, or a contradiction trace was not confirmed).

Each command imports the modules it runs when it runs, so a command loads
only what it needs: `decompose` the scalar Macaulay layer, `catalog` the
catalog, `bound` and `ample` the floor evaluator, and `verify` numpy.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from .settings import DEFAULT_PRIME, DEFAULT_SEED, DEFAULT_TRACE_DMAX, SUITES, VerifyConfig

_ENV_SEED = "NLGOTZ_SEED"
_ENV_PRIME = "NLGOTZ_PRIME"
# inline invariants of `bound`: integer values, then shape switches
_INVARIANT_FLAGS = ("--alpha", "--beta", "--a-adj", "--b-adj")
_SHAPE_FLAGS = ("--p2-bundle", "--quadric", "--p3")


def __getattr__(name: str):
    """`run_suite` and `consistency_sweep` of `verify`, bound here on first read.

    `verify` is the one command that loads numpy, so it is imported only
    then.  `cmd_verify` calls both as attributes of this module, so a caller
    that replaces them here is obeyed (perfbench times each suite that way).
    """
    if name not in ("run_suite", "consistency_sweep"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import verify

    value = globals()[name] = getattr(verify, name)
    return value


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw, 10)
    except ValueError:
        raise ValueError(f"environment variable {name} must be an integer, got {raw!r}") from None


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nlgotz",
        description="Macaulay growth bounds, exact finite-field verification, "
        "and explicit Noether-Lefschetz codimension floors for threefolds.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="Macaulay expansion and both growth bounds")
    d.add_argument("c", type=int, help="the integer to expand (>= 0)")
    d.add_argument("d", type=int, help="the expansion degree (>= 1)")
    d.add_argument("--format", choices=("table", "csv"), default="table")

    b = sub.add_parser("bound", help="evaluate the codimension floor for one entry")
    b.add_argument("entry", nargs="?", help="catalog entry name (or pass inline invariants)")
    b.add_argument("--variant", required=True, choices=("minus-d-regular", "adjoint"))
    b.add_argument("-d", "--degree", type=int, required=True)
    b.add_argument("--h1-zero", action="store_true", help="declare the H^1 vanishing known")
    b.add_argument("--trace", type=int, metavar="C", help="replay the argument at c_hyp = C")
    b.add_argument("--catalog", metavar="PATH", help="load entries from this catalog file")
    b.add_argument("--name", help="name for inline invariants (default: inline)")
    for flag in _INVARIANT_FLAGS:
        b.add_argument(flag, type=int)
    for flag in _SHAPE_FLAGS:
        b.add_argument(flag, action="store_true")
    b.add_argument("--format", choices=("table", "csv"), default="table")

    cfg = VerifyConfig()
    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=SUITES + ("consistency", "all"))
    v.add_argument("--trials", type=int, default=cfg.trials)
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--prime", type=int, default=None)
    v.add_argument("--cmax", type=int, default=cfg.c_max)
    v.add_argument("--dmax", type=int, default=cfg.d_max)
    v.add_argument("--nmax", type=int, default=cfg.n_max)
    v.add_argument("--t-max", type=int, default=cfg.t_max)
    v.add_argument("--budget", type=int, default=cfg.entry_budget)
    v.add_argument("--trace-dmax", type=int, default=DEFAULT_TRACE_DMAX)
    v.add_argument("--format", choices=("table", "csv"), default="table")
    v.add_argument("--out", metavar="PATH", help="also write the report (in the chosen format)")

    a = sub.add_parser(
        "ample",
        help="blow-up positivity at a very general point",
        description="Decide positivity of dH - kE on the blow-up of a very general "
        "point by d^3 H^3 > k. Unresolved mismatch: d^3 H^3 - k is the top "
        "self-intersection of dH - E_1 - ... - E_k on the blow-up at k points, while "
        "for one point (dH - kE)^3 = d^3 H^3 - k^3.",
    )
    a.add_argument("entry")
    a.add_argument("-d", "--degree", type=int, required=True)
    a.add_argument("-k", type=int, required=True)
    a.add_argument("--h1-zero", action="store_true")
    a.add_argument("--catalog", metavar="PATH")

    c = sub.add_parser("catalog", help="emit the built-in catalog for editing")
    c.add_argument("--out", metavar="PATH")

    return p


def _records(args):
    from .catalog import default_catalog, load_catalog

    if getattr(args, "catalog", None):
        return load_catalog(args.catalog)
    return default_catalog()


def _inline_invariants(args):
    from .invariants import ThreefoldInvariants

    values = {_dest(flag): getattr(args, _dest(flag)) for flag in _INVARIANT_FLAGS}
    missing = [flag for flag in _INVARIANT_FLAGS if values[_dest(flag)] is None]
    if missing and not args.p3:
        raise ValueError(
            f"no catalog entry given, so inline invariants are required: missing {' '.join(missing)}"
        )
    inv = ThreefoldInvariants(
        name="inline" if args.name is None else args.name,
        **{key: 1 if val is None else val for key, val in values.items()},
        is_linear_p2_bundle=args.p2_bundle,
        is_quadric=args.quadric,
        is_p3=args.p3,
    )
    inv.validate()
    return inv


def _check_marks(checks, out):
    for ch in checks:
        mark = "pass" if ch.passed else "FAIL"
        print(f"  [{mark}] {ch.name}: {ch.detail}", file=out)


def cmd_decompose(args, out) -> int:
    from .macaulay import lower_macaulay, macaulay_rep, upper_macaulay

    rep = macaulay_rep(args.c, args.d)
    upper = upper_macaulay(args.c, args.d)
    lower = lower_macaulay(args.c, args.d)
    if args.format == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["c", "d", "ks", "upper", "lower"])
        w.writerow([args.c, args.d, " ".join(map(str, rep.ks)), upper, lower])
    else:
        print(f"c = {args.c}  d = {args.d}", file=out)
        print(f"ks = [{', '.join(map(str, rep.ks))}]", file=out)
        print(f"upper = {upper}", file=out)
        print(f"lower = {lower}", file=out)
    return 0


def cmd_bound(args, out) -> int:
    from .bounds import BundleSpec, contradiction_trace, nl_codim_floor
    from .catalog import find_record

    if args.trace is not None and args.format == "csv":
        raise ValueError("--trace prints in the table format only; drop --format csv")
    variant = args.variant.replace("-", "_")
    spec = BundleSpec(
        variant=variant,
        d=args.degree,
        h1_vanishing="known_zero" if args.h1_zero else "unknown",
    )
    if args.entry:
        clashing = [
            flag
            for flag in (*_INVARIANT_FLAGS, "--name")
            if getattr(args, _dest(flag)) is not None
        ] + [flag for flag in _SHAPE_FLAGS if getattr(args, _dest(flag))]
        if clashing:
            raise ValueError(
                f"entry {args.entry!r} conflicts with inline invariant flags:"
                f" {' '.join(clashing)} (pass one or the other)"
            )
        inv = find_record(_records(args), args.entry).invariants
    else:
        inv = _inline_invariants(args)
    res = nl_codim_floor(inv, spec)
    trace = None
    not_run = "there is no floor to contradict"
    if args.trace is not None and res.status == "floor":
        try:
            trace = contradiction_trace(inv, spec, args.trace)
        except ValueError as exc:
            # c_hyp outside [0, floor - 1]: the evaluation still stands
            not_run = str(exc)
    if args.format == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["entry", "variant", "d", "h1", "status", "floor", "branch", "n"])
        w.writerow(
            [
                inv.name,
                variant,
                args.degree,
                spec.h1_vanishing,
                res.status,
                "" if res.floor_value is None else res.floor_value,
                res.branch,
                res.n_value,
            ]
        )
    else:
        print(f"entry: {inv.name}", file=out)
        print(
            f"variant: {variant}   d = {args.degree}   h1: {spec.h1_vanishing}", file=out
        )
        print(f"branch: {res.branch}", file=out)
        _check_marks(res.hypotheses, out)
        if res.status == "floor":
            print(f"floor: {res.floor_value}   (n = {res.n_value})", file=out)
        else:
            print(f"status: {res.status}", file=out)
        for note in res.assumptions + res.notes:
            print(f"note: {note}", file=out)
        if trace is not None:
            print(f"contradiction trace at c_hyp = {trace.c_hyp}:", file=out)
            _check_marks(trace.steps, out)
            print(f"confirmed: {'yes' if trace.confirmed else 'NO'}", file=out)
        elif args.trace is not None:
            print(f"contradiction trace: not run, {not_run}", file=out)
    if res.status == "floor":
        if trace is None:
            return 0 if args.trace is None else 2
        return 0 if trace.confirmed else 4
    return 2 if res.status == "out_of_domain" else 3


def _write_rows(reports, fmt, out) -> None:
    if fmt == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["suite", "trial", "params", "observed", "bound", "pass"])
        for rep in reports:
            for r in rep.rows:
                w.writerow([r.suite, r.trial, r.params, r.observed, r.bound, int(r.passed)])
        return
    for rep in reports:
        passed = rep.total - len(rep.failures)
        print(f"suite {rep.suite}: {passed}/{rep.total} checks passed", file=out)
        for r in rep.failures:
            print(f"  FAIL trial {r.trial}: {r.params} -> {r.observed} (bound {r.bound})", file=out)


def cmd_verify(args, out) -> int:
    cfg = VerifyConfig(
        seed=args.seed if args.seed is not None else _env_int(_ENV_SEED, DEFAULT_SEED),
        prime=args.prime if args.prime is not None else _env_int(_ENV_PRIME, DEFAULT_PRIME),
        trials=args.trials,
        c_max=args.cmax,
        d_max=args.dmax,
        n_max=args.nmax,
        t_max=args.t_max,
        entry_budget=args.budget,
    )
    if args.suite == "all":
        names = SUITES + ("consistency",)
    else:
        names = (args.suite,)
    this = sys.modules[__name__]
    reports = []
    for name in names:
        if name == "consistency":
            reports.append(this.consistency_sweep(d_max=args.trace_dmax))
        else:
            reports.append(this.run_suite(name, cfg))
    _write_rows(reports, args.format, out)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _write_rows(reports, args.format, fh)
    return 0 if all(rep.all_passed for rep in reports) else 4


def cmd_ample(args, out) -> int:
    from .bounds import blowup_ampleness
    from .catalog import find_record

    inv = find_record(_records(args), args.entry).invariants
    res = blowup_ampleness(inv, args.degree, args.k, h1_known_zero=args.h1_zero)
    _check_marks(res.checks, out)
    if res.verdict == "hypotheses_unmet":
        print("verdict: hypotheses_unmet", file=out)
        return 3
    cmp = ">" if res.verdict == "ample" else "<="
    print(f"verdict: {res.verdict}   (d^3 H^3 = {res.lhs} {cmp} k = {res.rhs})", file=out)
    return 0 if res.verdict == "ample" else 3


def cmd_catalog(args, out) -> int:
    from .catalog import default_catalog, dumps_catalog

    text = dumps_catalog(default_catalog())
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        out.write(text)
    return 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    out = sys.stdout
    try:
        if args.command == "decompose":
            return cmd_decompose(args, out)
        if args.command == "bound":
            return cmd_bound(args, out)
        if args.command == "verify":
            return cmd_verify(args, out)
        if args.command == "ample":
            return cmd_ample(args, out)
        if args.command == "catalog":
            return cmd_catalog(args, out)
        raise AssertionError(f"unhandled command {args.command}")
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
