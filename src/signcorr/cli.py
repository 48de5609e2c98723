"""Command-line interface: verify | sweep | series | mc | optimize.

Reports are machine readable (JSON by default, CSV for sweep, or plain text)
and byte-identical across reruns with the same flags. Exit codes: 0 pass or
success, 1 computed-but-failing verification, 2 usage error, 3 numerical
non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .mc import estimate_phi_i, estimate_phi_t, hermite5, identity1, rotation3
from .optimize import grid_scan, maximize_eta
from .phi import (
    METHODS,
    THRESHOLD,
    RotationFamily,
    phi_i_bessel,
    phi_real_t,
    verify_theorem,
)
from .quad import NonConvergenceError
from .series import alternation_check, conditional_bound, mehler_coefficients, revert_odd_series

_FORMATS = ("json", "csv", "text")
# argparse reads a token as a flag's negative value, not an option, only if it
# matches a pattern that has no exponent, so `--eta -2e-1` failed with
# "expected one argument"; every subparser takes this one for any float literal
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json_value(v) -> str:
    # absent fields are omitted, so a None is a bug, not a JSON null
    if v is None:
        raise TypeError("cannot serialize None")
    if isinstance(v, float):
        return _fmt(v)
    if isinstance(v, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_json_value(x)}" for k, x in v.items())
        return "{" + inner + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    return json.dumps(v)


def _text_value(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (list, tuple)):
        return ", ".join(_text_value(x) for x in v)
    return _json_value(v)


def _refuse_csv(fmt: str) -> None:
    if fmt == "csv":
        raise ValueError("csv output is only available for the sweep command")


def _report(command: str, payload: dict, fmt: str) -> str:
    """The report of every command but sweep: its payload between the command
    name and the version, as JSON or as one `key = value` line per field."""
    _refuse_csv(fmt)
    report = {"command": command, **payload, "version": __version__}
    if fmt == "json":
        return _json_value(report)
    lines = []
    for k, v in report.items():
        if isinstance(v, dict):
            for sk, sv in v.items():
                lines.append(f"{k}.{sk} = {_text_value(sv)}")
        else:
            lines.append(f"{k} = {_text_value(v)}")
    return "\n".join(lines)


def _resolve_format(flag: str | None) -> str:
    fmt = flag or os.environ.get("SIGNCORR_FORMAT", "json")
    if fmt not in _FORMATS:
        raise ValueError(
            f"unknown output format {fmt!r}, expected one of {_FORMATS}"
        )
    return fmt


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"--{name} must be finite, got {value}")
    return value


def _cmd_verify(args, fmt: str):
    eta = _finite("eta", args.eta)
    report = verify_theorem(RotationFamily(eta), args.method, args.tol)
    payload = {
        "inputs": {"eta": eta, "method": args.method, "tol": args.tol},
        "value": report.phi_i_value,
        "error_estimate": report.error_estimate,
        "threshold": report.threshold,
        "margin": report.margin,
        "pass": report.passed,
    }
    return (0 if report.passed else 1), _report("verify", payload, fmt)


def _cmd_sweep(args, fmt: str):
    lo, hi = _finite("lo", args.lo), _finite("hi", args.hi)
    if lo > hi:
        raise ValueError(f"--lo must not exceed --hi, got [{lo}, {hi}]")
    scan = grid_scan(lo, hi, args.steps, args.tol)
    if fmt == "csv":
        lines = ["eta,value,error_estimate"]
        lines += [f"{_fmt(e)},{_fmt(v)},{_fmt(err)}" for e, v, err in scan.points]
        return 0, "\n".join(lines)
    if fmt == "json":
        rows = [
            {"eta": e, "value": v, "error_estimate": err}
            for e, v, err in scan.points
        ]
        return 0, _json_value(rows)
    lines = [
        f"eta = {_fmt(e)}  value = {_fmt(v)}  error_estimate = {_fmt(err)}"
        for e, v, err in scan.points
    ]
    lines.append(f"best_eta = {_fmt(scan.best_eta)}")
    lines.append(f"best_value = {_fmt(scan.best_value)}")
    return 0, "\n".join(lines)


def _cmd_series(args, fmt: str):
    eta = _finite("eta", args.eta)
    family = RotationFamily(eta)
    # first, so an eta too large for the series fails as non-convergence
    vq = phi_i_bessel(family, args.tol)
    direct = mehler_coefficients(family, args.order)
    inverse = revert_odd_series(direct)
    verdict = alternation_check(inverse)
    payload = {
        "inputs": {"eta": eta, "order": args.order, "tol": args.tol},
        "value": vq.value,
        "error_estimate": vq.error_estimate,
        "direct_coefficients": list(direct.coeffs),
        "inverse_coefficients": list(inverse.coeffs),
        "signs": list(verdict.signs),
        "alternating": verdict.alternating,
    }
    if verdict.first_violation is not None:
        payload["first_violation"] = verdict.first_violation
    # the bound 1/v exists only where Phi(i)/i is positive (eta below about 3)
    if vq.value > 0:
        payload["conditional_bound"] = conditional_bound(vq.value)
    return 0, _report("series", payload, fmt)


# each mc family's constructor and the one flag it takes, eta or epsilon
_FAMILIES = {
    "identity1": (identity1, None),
    "rotation3": (rotation3, "eta"),
    "hermite5": (hermite5, "epsilon"),
}


def _mc_family(args):
    make, flag = _FAMILIES[args.family]
    if flag is None:
        if args.eta is not None or args.epsilon is not None:
            raise ValueError(f"{args.family} takes no --eta or --epsilon")
        return make(), {}
    other = "epsilon" if flag == "eta" else "eta"
    if getattr(args, flag) is None:
        raise ValueError(f"{args.family} requires --{flag}")
    if getattr(args, other) is not None:
        raise ValueError(f"{args.family} takes --{flag}, not --{other}")
    value = _finite(flag, getattr(args, flag))
    return make(value), {flag: value}


def _mc_reference(args) -> float | None:
    """The quadrature or closed-form value the estimate targets, or None where
    there is none: hermite5, and rotation3 at |t| = 1, outside phi_real_t."""
    if args.family == "hermite5":
        return None
    if args.target == "phi-i":
        if args.family == "identity1":
            return THRESHOLD
        return phi_i_bessel(RotationFamily(args.eta)).value
    if args.family == "identity1":
        return 2.0 / math.pi * math.asin(args.t)
    if abs(args.t) == 1:
        return None
    return phi_real_t(RotationFamily(args.eta), args.t).value


def _cmd_mc(args, fmt: str):
    family, params = _mc_family(args)
    inputs = {"family": args.family, **params, "target": args.target}
    if args.target == "phi-t":
        if args.t is None:
            raise ValueError("--target phi-t requires --t")
        if not abs(args.t) <= 1:
            raise ValueError(f"--t must satisfy |t| <= 1, got {args.t}")
        inputs["t"] = args.t
    elif args.t is not None:
        raise ValueError("--t is only meaningful with --target phi-t")
    # before sampling, so a reference that fails to converge (exit 3) or a csv
    # request (exit 2) wastes no draws
    reference = _mc_reference(args)
    _refuse_csv(fmt)
    # an overflowing F or G keeps its sign, and a NaN one (cos(inf) in
    # rotation3's angle) fails the estimate as non-convergence, so a numpy
    # warning would only repeat either; pool threads inherit this state
    with np.errstate(over="ignore", invalid="ignore"):
        if args.target == "phi-t":
            est = estimate_phi_t(family, args.t, args.samples, args.seed)
        else:
            est = estimate_phi_i(family, args.samples, args.seed)
    payload = {
        "inputs": inputs,
        "value": est.mean,
        "stderr": est.stderr,
        "samples": est.samples,
        "seed": est.seed,
    }
    if reference is not None:
        payload["reference"] = reference
        if est.stderr > 0:
            payload["z_score"] = (est.mean - reference) / est.stderr
    return 0, _report("mc", payload, fmt)


def _cmd_optimize(args, fmt: str):
    lo, hi = _finite("lo", args.lo), _finite("hi", args.hi)
    if not lo < hi:
        raise ValueError(f"need --lo < --hi, got [{lo}, {hi}]")
    res = maximize_eta(lo, hi, args.xtol, args.tol)
    payload = {
        "inputs": {"lo": lo, "hi": hi, "xtol": args.xtol, "tol": args.tol},
        "eta_star": res.eta_star,
        "value": res.value_star,
        "error_estimate": res.error_estimate,
        "unimodal": res.unimodal,
    }
    return 0, _report("optimize", payload, fmt)


def _number(cast, valid, rule: str):
    """An argparse type: `cast` the flag's value and require `valid` of it.
    A value `cast` refuses reads "invalid <cast> value", as for type=float."""
    def parse(raw: str):
        value = cast(raw)
        if not valid(value):
            raise argparse.ArgumentTypeError(f"{rule}, got {raw}")
        return value
    parse.__name__ = cast.__name__
    return parse


_POSITIVE_FLOAT = _number(float, lambda x: 0 < x < math.inf, "must be positive and finite")
_NON_NEGATIVE_INT = _number(int, lambda n: n >= 0, "must be >= 0")
_POSITIVE_INT = _number(int, lambda n: n >= 1, "must be >= 1")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signcorr",
        description="Verify, sweep, expand, cross-validate, and optimize the "
        "sign-correlation functional of the rotation family.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run):
        p.set_defaults(run=run)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.add_argument("--format", choices=_FORMATS, default=None,
                       help="output format (default: SIGNCORR_FORMAT or json)")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the report to PATH instead of stdout")

    p = sub.add_parser("verify", help="check Phi(i)/i clears the threshold")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--method", choices=METHODS, default="bessel")
    p.add_argument("--tol", type=_POSITIVE_FLOAT, default=1e-9)
    common(p, _cmd_verify)

    p = sub.add_parser("sweep", help="tabulate Phi(i)/i on an eta grid")
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--steps", type=_NON_NEGATIVE_INT, default=50)
    p.add_argument("--tol", type=_POSITIVE_FLOAT, default=1e-9)
    common(p, _cmd_sweep)

    p = sub.add_parser("series", help="Taylor coefficients, reversion, alternation")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--order", type=_POSITIVE_INT, default=11)
    p.add_argument("--tol", type=_POSITIVE_FLOAT, default=1e-10)
    common(p, _cmd_series)

    p = sub.add_parser("mc", help="seeded Monte Carlo estimate")
    p.add_argument("--family", choices=tuple(_FAMILIES), required=True)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--target", choices=("phi-i", "phi-t"), default="phi-i")
    p.add_argument("--samples", type=_POSITIVE_INT, default=10**6)
    p.add_argument("--seed", type=_NON_NEGATIVE_INT, required=True)
    common(p, _cmd_mc)

    p = sub.add_parser("optimize", help="maximize Phi(i)/i over eta")
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--xtol", type=_POSITIVE_FLOAT, default=1e-4)
    p.add_argument("--tol", type=_POSITIVE_FLOAT, default=1e-9)
    common(p, _cmd_optimize)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, text = args.run(args, _resolve_format(args.format))
    except ValueError as exc:
        print(f"signcorr: error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"signcorr: non-convergence: {exc}", file=sys.stderr)
        return 3
    if args.out is None:
        sys.stdout.write(text + "\n")
        return code
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        print(f"signcorr: error: {exc}", file=sys.stderr)
        return 2
    return code
