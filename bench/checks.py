"""Correctness checks on the outputs of benchmark jobs.

Every check takes an output and the values it must match and returns a list
of failure messages; an empty list means the output is correct. The windows
below are the README's acceptance criteria; the reference values come from
references.json.
"""

from __future__ import annotations

import csv
import io
import json
from collections import namedtuple

CONDITIONAL_BOUND_WINDOW = (1.7805, 1.7806)  # criterion 4
FIRST_VIOLATION = 5  # criterion 5
PARTIAL_SUM_TOL = 1e-5  # criterion 6
MAX_Z = 4.0  # criterion 7
ETA_STAR_WINDOW = (0.20, 0.26)  # criterion 8
SWEEP_ROWS = 51

# a value with its error estimate, read back from a report
_Quad = namedtuple("_Quad", "value error_estimate")


def load_references(path) -> dict:
    """references.json with its decimal strings parsed to floats."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    return {
        "phi_i_over_i": {k: float(v) for k, v in raw["phi_i_over_i"].items()},
        "phi_real_t": {k: float(v) for k, v in raw["phi_real_t"].items()},
        "mc_seed42": raw["mc_seed42"],
    }


def within_estimate(name: str, result, reference: float) -> list[str]:
    """The value lies within its own error_estimate of the reference."""
    gap = abs(result.value - reference)
    if gap <= result.error_estimate:
        return []
    return [
        f"{name}: |value - reference| = {gap:.3e} exceeds the error "
        f"estimate {result.error_estimate:.3e}"
    ]


def verdict(name: str, result, threshold: float, expect_pass: bool) -> list[str]:
    """pass means the margin over the threshold clears the error estimate."""
    passed = result.value - threshold > result.error_estimate
    if passed == expect_pass:
        return []
    return [f"{name}: verdict pass={passed}, expected pass={expect_pass}"]


def route(name: str, result, reference: float, threshold: float) -> list[str]:
    return within_estimate(name, result, reference) + verdict(
        name, result, threshold, True
    )


def partial_sum(name: str, value: float, reference: float) -> list[str]:
    gap = abs(value - reference)
    if gap <= PARTIAL_SUM_TOL:
        return []
    return [f"{name}: partial sum misses Phi(0.3) by {gap:.3e} > {PARTIAL_SUM_TOL}"]


def alternation(name: str, result) -> list[str]:
    if not result.alternating and result.first_violation == FIRST_VIOLATION:
        return []
    return [
        f"{name}: first violation {result.first_violation}, expected "
        f"{FIRST_VIOLATION}"
    ]


def conditional_bound(name: str, bound: float) -> list[str]:
    lo, hi = CONDITIONAL_BOUND_WINDOW
    if lo < bound < hi:
        return []
    return [f"{name}: conditional bound {bound!r} outside ({lo}, {hi})"]


def eta_star(name: str, eta: float) -> list[str]:
    lo, hi = ETA_STAR_WINDOW
    if lo <= eta <= hi:
        return []
    return [f"{name}: eta_star {eta!r} outside [{lo}, {hi}]"]


def maximize(name: str, result, headline: float) -> list[str]:
    """eta_star in its window, and the maximum dominates the headline eta."""
    out = eta_star(name, result.eta_star)
    if not result.value_star >= headline - result.error_estimate:
        out.append(f"{name}: maximum {result.value_star!r} below V(0.228)")
    return out


def grid(name: str, scan, threshold: float) -> list[str]:
    """51 points; at eta = 0 the value is the threshold and does not pass."""
    if len(scan.points) != SWEEP_ROWS:
        return [f"{name}: {len(scan.points)} points, expected {SWEEP_ROWS}"]
    eta, value, err = scan.points[0]
    first = _Quad(value, err)
    return within_estimate(f"{name} at eta={eta}", first, threshold) + verdict(
        f"{name} at eta={eta}", first, threshold, False
    )


def mc_estimate(name: str, est, reference: float, frozen=None, first=None) -> list[str]:
    """|z| <= 4 against the reference; exact match with the frozen seed-42
    figures when given, and with the same call's earlier result."""
    out = []
    z = (est.mean - reference) / est.stderr
    if not abs(z) <= MAX_Z:
        out.append(f"{name}: z = {z:.2f} against the reference, |z| > {MAX_Z}")
    if frozen is not None and (est.mean, est.stderr) != (
        frozen["mean"],
        frozen["stderr"],
    ):
        out.append(
            f"{name}: (mean, stderr) = ({est.mean!r}, {est.stderr!r}), frozen "
            f"({frozen['mean']!r}, {frozen['stderr']!r})"
        )
    if first is not None and (est.mean, est.stderr) != (first.mean, first.stderr):
        out.append(f"{name}: not bit-identical to the first run of the same call")
    return out


def cli_launch(name: str, expected_code: int, launch, refs: dict, first=None) -> list[str]:
    """Exit code, parseable stdout with the expected content, and stdout
    byte-identical to the first launch of the same command."""
    out = []
    if launch.returncode != expected_code:
        out.append(f"{name}: exit code {launch.returncode}, expected {expected_code}")
    if first is not None and launch.stdout != first.stdout:
        out.append(f"{name}: stdout differs from the first launch")
    try:
        out += _cli_content(name, launch, refs)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        out.append(f"{name}: stdout does not parse: {exc!r}")
    return out


def _cli_content(name: str, launch, refs: dict) -> list[str]:
    headline = refs["phi_i_over_i"]["0.228"]
    eta0 = refs["phi_i_over_i"]["0"]  # the threshold itself
    text = launch.stdout.decode("utf-8")
    if name == "cli.verify_usage":
        if text or not launch.stderr.startswith(b"signcorr: error:"):
            return [f"{name}: expected empty stdout and a usage error on stderr"]
        return []
    if name == "cli.sweep":
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["eta", "value", "error_estimate"] or len(rows) != SWEEP_ROWS + 1:
            return [f"{name}: unexpected csv header or {len(rows) - 1} rows"]
        first = _Quad(float(rows[1][1]), float(rows[1][2]))
        for row in rows[2:]:
            [float(x) for x in row]
        return within_estimate(f"{name} at eta=0", first, eta0)
    report = json.loads(text)
    if name in ("cli.verify_pass", "cli.verify_fail"):
        expect_pass = name == "cli.verify_pass"
        result = _Quad(report["value"], report["error_estimate"])
        out = within_estimate(name, result, headline if expect_pass else eta0)
        out += verdict(name, result, eta0, expect_pass)
        if report["pass"] is not expect_pass:
            out.append(f"{name}: report says pass={report['pass']}")
        return out
    if name == "cli.series":
        result = _Quad(report["value"], report["error_estimate"])
        out = within_estimate(name, result, headline)
        out += conditional_bound(name, report["conditional_bound"])
        if report.get("first_violation") != FIRST_VIOLATION or report["alternating"]:
            out.append(f"{name}: first_violation {report.get('first_violation')}")
        return out
    if name == "cli.optimize":
        return eta_star(name, report["eta_star"])
    if name == "cli.mc":
        z = (report["value"] - headline) / report["stderr"]
        return [] if abs(z) <= MAX_Z else [f"{name}: z = {z:.2f}, |z| > {MAX_Z}"]
    raise KeyError(f"no content check for {name}")
