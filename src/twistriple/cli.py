"""Command-line interface.

Subcommands: check, catalog, fluctuate, rescale, distance, scan-c2, kodim.
Exit codes are a stable contract: 0 success (all checks pass), 1 a check
failed, 2 usage, parse or invariant errors. --tol sets the residual
tolerance and --json switches reports to machine-readable output.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from typing import Optional

from .axioms import SpectralTriple, check_all, is_irreducible, ko_dimension
from .catalog import (
    CatalogConstraintError,
    build_c3,
    build_c4,
    build_conformal,
    identify_family,
)
from .conformal import ConformalFactor, TwistCompositionError, rescale
from .distance import spectral_distance
from .documents import DocumentError, dumps, load, save
from .forms import antihermitian_one_form, fluctuate, fluctuate_chiral, selfadjoint_one_form
from .linalg import ToleranceConfig

__all__ = ["main"]


class CliError(Exception):
    """Usage-level failure; maps to exit code 2."""


def _parse_complex(text: str) -> complex:
    """Finite complex literal 're,im'; a bare real part is accepted as 're,0'."""
    parts = text.split(",")
    try:
        z = complex(*map(float, parts)) if len(parts) <= 2 else None
    except ValueError:
        z = None
    if z is None:
        raise CliError(f"cannot parse complex literal {text!r}; expected 're,im'")
    if not cmath.isfinite(z):
        raise CliError(f"complex literal {text!r} is not finite")
    return z


def _fmt_complex(z: complex) -> str:
    return f"{z.real:g}{z.imag:+g}j"


def _tol_from(args) -> ToleranceConfig:
    return ToleranceConfig(abs_tol=args.tol, rank_tol=1e-9)


def _load(path: str) -> SpectralTriple:
    try:
        return load(path)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _write_triple(t: SpectralTriple, output: Optional[str]):
    if output is None:
        sys.stdout.write(dumps(t))
    else:
        save(t, output)


def _params_stream(args) -> "object":
    # The document owns stdout when no output file was given.
    return sys.stdout if args.output else sys.stderr


def cmd_check(args) -> int:
    t = _load(args.file)
    tol = _tol_from(args)
    report = check_all(t, tol)
    try:
        ko: Optional[int] = ko_dimension(t.real.signs) if t.real is not None else None
    except ValueError:
        ko = None
    irreducible = is_irreducible(t, tol)
    if args.json:
        payload = {
            "entries": [
                {"condition": e.condition, "residual": e.residual,
                 "tol": e.tol_used, "pass": e.passed}
                for e in report.entries
            ],
            "overall_pass": report.passed,
            "ko_dimension": ko,
            "irreducible": irreducible,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        width = max(len(e.condition) for e in report.entries)
        for e in report.entries:
            status = "PASS" if e.passed else "FAIL"
            print(f"{e.condition:<{width}}  {e.residual:12.3e}  tol {e.tol_used:g}  {status}")
        print(f"overall: {'PASS' if report.passed else 'FAIL'}")
        print(f"ko_dimension: {ko if ko is not None else 'undefined'}")
        print(f"irreducible: {'yes' if irreducible else 'no'}")
    return 0 if report.passed else 1


def cmd_catalog(args) -> int:
    d1 = _parse_complex(args.d1) if args.d1 is not None else 0j
    d2 = _parse_complex(args.d2) if args.d2 is not None else None
    if args.twist == "conformal":
        if args.rho is None:
            raise CliError("conformal catalog entries need --rho")
        t = build_conformal(args.family, args.eps_prime, d1,
                            d2 if d2 is not None else 0j,
                            rho=args.rho, zeta=args.zeta)
    elif args.family == "c3":
        t = build_c3(args.eps_prime, d1, d2, twist=args.twist)
    else:
        t = build_c4(args.eps_prime, d1, d2, twist=args.twist)
    _write_triple(t, args.output)
    return 0


def _print_family_params(t_old: SpectralTriple, t_new: SpectralTriple,
                         tol: ToleranceConfig, stream):
    ident_old = identify_family(t_old, tol)
    if ident_old is None:
        return
    family, params_old = ident_old
    ident_new = identify_family(t_new, tol)
    params_new = ident_new[1] if ident_new is not None else {}
    print(f"family: {family}", file=stream)
    for key, old in params_old.items():
        new = params_new.get(key)
        old_s = _fmt_complex(complex(old)) if isinstance(old, complex) else f"{old:g}"
        if new is None:
            print(f"  {key}: {old_s}", file=stream)
        else:
            new_s = _fmt_complex(complex(new)) if isinstance(new, complex) else f"{new:g}"
            print(f"  {key}: {old_s} -> {new_s}", file=stream)


def cmd_fluctuate(args) -> int:
    t = _load(args.file)
    tol = _tol_from(args)
    phi = _parse_complex(args.phi)
    if args.chiral:
        if t.grading is None:
            raise CliError("chiral fluctuation needs a graded triple")
        form = antihermitian_one_form(t, phi)
        new = fluctuate_chiral(t, form, tol)
    else:
        form = selfadjoint_one_form(t, phi)
        new = fluctuate(t, form, tol)
    _print_family_params(t, new, tol, _params_stream(args))
    _write_triple(new, args.output)
    return 0


def cmd_rescale(args) -> int:
    t = _load(args.file)
    tol = _tol_from(args)
    k = ConformalFactor(zeta=args.zeta, rho=args.rho, side=args.side)
    new = rescale(t, k, tol)
    _write_triple(new, args.output)
    return 0


def cmd_distance(args) -> int:
    t = _load(args.file)
    result = spectral_distance(t, _tol_from(args))
    if args.json:
        payload = {
            "value": None if result.unbounded else result.value,
            "unbounded": result.unbounded,
            "norm_de": result.norm_de,
            "norm_twisted": result.norm_twisted,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"distance: {'unbounded' if result.unbounded else format(result.value, '.17g')}")
        print(f"norm [D,e]: {result.norm_de:.17g}")
        if result.norm_twisted is not None:
            print(f"norm twisted derivative: {result.norm_twisted:.17g}")
    return 0


def cmd_scan_c2(args) -> int:
    from .catalog import scan_c2_nonexistence

    report = scan_c2_nonexistence(args.trials, args.seed, _tol_from(args))
    if args.json:
        payload = {
            "trials": report.trials,
            "failures_of_order_one": report.failures_of_order_one,
            "j_shapes_tested": list(report.j_shapes_tested),
            "conclusion": report.conclusion,
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(f"trials: {report.trials}")
        print(f"order-one failures: {report.failures_of_order_one}")
        print(f"j shapes tested: {', '.join(report.j_shapes_tested)}")
        print(f"conclusion: {'nonexistence confirmed on sample' if report.conclusion else 'NOT confirmed'}")
    return 0 if report.conclusion else 1


def cmd_kodim(args) -> int:
    from .axioms import SignTriple

    signs = SignTriple(eps=args.eps, eps_prime=args.eps_prime, eps_dprime=args.eps_dprime)
    try:
        n = ko_dimension(signs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if args.json:
        print(json.dumps({"ko_dimension": n}))
    else:
        print(n)
    return 0


def _sign_arg(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise CliError(f"expected +1 or -1, got {text!r}")
    if v not in (1, -1):
        raise CliError(f"expected +1 or -1, got {text!r}")
    return v


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistriple",
        description="Finite two-point spectral triples with twisted reality conditions.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-9,
                        help="residual tolerance for checks (default 1e-9)")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="run every axiom check on a triple file")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("catalog", parents=[common], help="emit a catalog triple")
    p.add_argument("family", choices=["c3", "c4"])
    p.add_argument("--eps-prime", type=_sign_arg, default=1, dest="eps_prime")
    p.add_argument("--d1", help="complex literal re,im")
    p.add_argument("--d2", help="complex literal re,im")
    p.add_argument("--twist", choices=["none", "perm", "perm_bad", "conformal"], default="none")
    p.add_argument("--rho", type=float, help="conformal parameter in (0,1)")
    p.add_argument("--zeta", type=float, default=1.0, help="conformal overall scale")
    p.add_argument("-o", "--output", help="output file (stdout when omitted)")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("fluctuate", parents=[common], help="apply a gauge fluctuation")
    p.add_argument("file")
    p.add_argument("--phi", required=True, help="complex coefficient re,im")
    p.add_argument("--chiral", action="store_true", help="chiral perturbation (needs a grading)")
    p.add_argument("-o", "--output", help="output file (stdout when omitted)")
    p.set_defaults(func=cmd_fluctuate)

    p = sub.add_parser("rescale", parents=[common], help="conformally rescale a triple")
    p.add_argument("file")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--zeta", type=float, default=1.0)
    p.add_argument("--side", choices=["algebra", "commutant-image"], default="algebra")
    p.add_argument("-o", "--output", help="output file (stdout when omitted)")
    p.set_defaults(func=cmd_rescale)

    p = sub.add_parser("distance", parents=[common], help="spectral distance between the two points")
    p.add_argument("file")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("scan-c2", parents=[common],
                       help="randomised check that C^2 admits no real structure with nonzero calculus")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_scan_c2)

    p = sub.add_parser("kodim", parents=[common], help="KO-dimension from the reality signs")
    p.add_argument("--eps", type=_sign_arg, required=True)
    p.add_argument("--eps-prime", type=_sign_arg, required=True, dest="eps_prime")
    p.add_argument("--eps-dprime", type=_sign_arg, default=None, dest="eps_dprime")
    p.set_defaults(func=cmd_kodim)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliError as exc:  # raised by argument type converters
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (CliError, DocumentError, CatalogConstraintError,
            TwistCompositionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
