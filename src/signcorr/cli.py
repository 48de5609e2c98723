"""Command-line interface: verify | sweep | series | mc | optimize.

Reports are machine readable (JSON by default, CSV for sweep, or plain text)
and byte-identical across reruns with the same flags. Exit codes: 0 pass or
success, 1 computed-but-failing verification, 2 usage error, 3 numerical
non-convergence.

Nothing here imports numpy at module level: each handler checks its flags by
the library's own rules in _common, then imports what it calls, so every
refusal, --help and --version answer before numpy loads.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import re
import sys

from . import __version__
from ._common import (
    METHODS, NonConvergenceError, check_bracket, check_draws, check_finite,
    check_grid, check_order, check_t, check_tol,
)

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


def _report(command: str, payload: dict, fmt: str) -> str:
    """The report of every command but sweep: its payload between the command
    name and the version, as JSON or as one `key = value` line per field."""
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


def _cmd_verify(args, fmt: str):
    check_finite("eta", args.eta)
    check_tol("tol", args.tol)
    from .phi import RotationFamily, verify_theorem

    report = verify_theorem(RotationFamily(args.eta), args.method, args.tol)
    payload = {
        "inputs": {"eta": args.eta, "method": args.method, "tol": args.tol},
        "value": report.phi_i_value,
        "error_estimate": report.error_estimate,
        "threshold": report.threshold,
        "margin": report.margin,
        "pass": report.passed,
    }
    return (0 if report.passed else 1), _report("verify", payload, fmt)


def _cmd_sweep(args, fmt: str):
    check_grid(args.lo, args.hi, args.steps)
    check_tol("tol", args.tol)
    from .optimize import grid_scan

    scan = grid_scan(args.lo, args.hi, args.steps, args.tol)
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
    check_finite("eta", args.eta)
    check_tol("tol", args.tol)
    check_order(args.order)
    from .phi import RotationFamily, phi_i_bessel
    from .series import (
        alternation_check,
        conditional_bound,
        mehler_coefficients,
        revert_odd_series,
    )

    family = RotationFamily(args.eta)
    # first, so an eta too large for the series fails as non-convergence
    vq = phi_i_bessel(family, args.tol)
    direct = mehler_coefficients(family, args.order)
    inverse = revert_odd_series(direct)
    verdict = alternation_check(inverse)
    payload = {
        "inputs": {"eta": args.eta, "order": args.order, "tol": args.tol},
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


def _mc_params(args) -> dict:
    """The family's parameter as {flag: value}, checked before mc loads:
    rotation3 needs --eta, and identity1 takes none."""
    if args.family == "identity1":
        if args.eta is not None:
            raise ValueError("identity1 takes no --eta")
        return {}
    if args.eta is None:
        raise ValueError("rotation3 requires --eta")
    check_finite("eta", args.eta)
    return {"eta": args.eta}


def _mc_reference(args) -> float | None:
    """The Fourier-Laplace sum or closed form the estimate targets, or None
    where there is none: rotation3 at |t| = 1, outside phi_real_t."""
    from .phi import THRESHOLD, RotationFamily, phi_i_fourier, phi_real_t

    if args.target == "phi-i":
        if args.family == "identity1":
            return THRESHOLD
        return phi_i_fourier(RotationFamily(args.eta)).value
    if args.family == "identity1":
        return 2.0 / math.pi * math.asin(args.t)
    if abs(args.t) == 1:
        return None
    return phi_real_t(RotationFamily(args.eta), args.t).value


def _cmd_mc(args, fmt: str):
    params = _mc_params(args)
    inputs = {"family": args.family, **params, "target": args.target}
    if args.target == "phi-t":
        if args.t is None:
            raise ValueError("--target phi-t requires --t")
        check_t(args.t)
        inputs["t"] = args.t
    elif args.t is not None:
        raise ValueError("--t is only meaningful with --target phi-t")
    check_draws(args.samples, args.seed)
    # not `from . import mc`, which asks the package for `mc` and so loads
    # every submodule
    mc = importlib.import_module(".mc", __package__)
    family = getattr(mc, args.family)(*params.values())
    # before sampling, so a reference that fails to converge wastes no draws
    reference = _mc_reference(args)
    if args.target == "phi-t":
        est = mc.estimate_phi_t(family, args.t, args.samples, args.seed)
    else:
        est = mc.estimate_phi_i(family, args.samples, args.seed)
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
    check_bracket(args.lo, args.hi, "<")
    check_tol("xtol", args.xtol)
    check_tol("tol", args.tol)
    from .optimize import maximize_eta

    res = maximize_eta(args.lo, args.hi, args.xtol, args.tol)
    payload = {
        "inputs": {"lo": args.lo, "hi": args.hi, "xtol": args.xtol, "tol": args.tol},
        "eta_star": res.eta_star,
        "value": res.value_star,
        "error_estimate": res.error_estimate,
        "unimodal": res.unimodal,
    }
    return 0, _report("optimize", payload, fmt)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signcorr",
        description="Verify, sweep, expand, cross-validate, and optimize the "
        "sign-correlation functional of the rotation family.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, formats=("json", "text")):
        p.set_defaults(run=run)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        p.add_argument("--format", choices=formats, default="json",
                       help="output format (default: json)")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the report to PATH instead of stdout")

    p = sub.add_parser("verify", help="check Phi(i)/i clears the threshold")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--method", choices=METHODS, default="bessel")
    p.add_argument("--tol", type=float, default=1e-9)
    common(p, _cmd_verify)

    p = sub.add_parser("sweep", help="tabulate Phi(i)/i on an eta grid")
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-9)
    common(p, _cmd_sweep, ("json", "csv", "text"))

    p = sub.add_parser("series", help="Taylor coefficients, reversion, alternation")
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--order", type=int, default=11)
    p.add_argument("--tol", type=float, default=1e-10)
    common(p, _cmd_series)

    p = sub.add_parser("mc", help="seeded Monte Carlo estimate")
    p.add_argument("--family", choices=("identity1", "rotation3"), required=True)
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--target", choices=("phi-i", "phi-t"), default="phi-i")
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, required=True)
    common(p, _cmd_mc)

    p = sub.add_parser("optimize", help="maximize Phi(i)/i over eta")
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--xtol", type=float, default=1e-4)
    p.add_argument("--tol", type=float, default=1e-9)
    common(p, _cmd_optimize)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, text = args.run(args, args.format)
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
