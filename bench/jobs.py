"""The benchmark's workloads. Each is a job, a fixed list of calls into
signcorr, plus the correctness checks on what the job returned.

Why each workload exists is written in README.md beside this file.
"""

from __future__ import annotations

import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from typing import Callable

from signcorr import (
    OddSeries,
    RotationFamily,
    alternation_check,
    conditional_bound,
    estimate_phi_i,
    estimate_phi_t,
    grid_scan,
    identity1,
    maximize_eta,
    mehler_coefficients,
    phi_i_bessel,
    phi_i_cartesian,
    phi_i_polar,
    phi_real_t,
    revert_odd_series,
    rotation3,
)

import checks

ETA = 0.228
T_VALUES = (0.3, -0.7, 0.95)
ROUTES = (("polar", phi_i_polar), ("cartesian", phi_i_cartesian), ("bessel", phi_i_bessel))
FROZEN_SEED = 42


@dataclass
class Context:
    """What a job needs besides its calls: the checkout root, the run's seed,
    the environment for subprocesses and the frozen references."""

    root: str
    seed: int
    env: dict
    refs: dict


@dataclass
class Ops:
    """Runs the calls of one job. A call that raises is recorded as failed
    and returns None, so the job goes on; with a tracer every call is a
    top-level span."""

    tracer: object = None
    outputs: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)
    attempted: int = 0

    def call(self, name: str, fn: Callable, *args):
        self.attempted += 1
        try:
            if self.tracer is None:
                out = fn(*args)
            else:
                with self.tracer.span(name):
                    out = fn(*args)
        except Exception:
            self.failures[name] = [traceback.format_exc(limit=-2).strip()]
            out = None
        self.outputs[name] = out
        return out

    def family(self, family):
        return family if self.tracer is None else self.tracer.wrap_family(family)

    def check(self, name: str, messages: list[str]) -> None:
        if messages:
            self.failures.setdefault(name, []).extend(messages)


# reproduce_2d ---------------------------------------------------------------

def reproduce_2d(ops: Ops, ctx: Context) -> None:
    fam = RotationFamily(ETA)
    for name, route in ROUTES:
        ops.call(f"phi.phi_i_{name}", route, fam, 1e-9)
    for t in T_VALUES:
        ops.call(f"phi.phi_real_t.t{t}", phi_real_t, fam, t)
    c = ops.call("series.mehler_coefficients.k11", mehler_coefficients, fam, 11)
    b = ops.call("series.revert_odd_series", revert_odd_series, c)
    ops.call("series.alternation_check", alternation_check, b)
    ops.call("series.partial_sum.t0.3", OddSeries.evaluate, c, 0.3)
    ops.call(
        "series.conditional_bound",
        lambda r: conditional_bound(r.value),
        ops.outputs["phi.phi_i_bessel"],
    )


def check_reproduce_2d(ops: Ops, ctx: Context, first: dict) -> None:
    refs, out = ctx.refs, ops.outputs
    headline = refs["phi_i_over_i"][str(ETA)]
    threshold = refs["phi_i_over_i"]["0"]
    for name, _ in ROUTES:
        key = f"phi.phi_i_{name}"
        if out.get(key) is not None:
            ops.check(key, checks.route(key, out[key], headline, threshold))
    for t in T_VALUES:
        key = f"phi.phi_real_t.t{t}"
        if out.get(key) is not None:
            ops.check(key, checks.within_estimate(key, out[key], refs["phi_real_t"][str(t)]))
    _check_alternation(ops)
    key = "series.partial_sum.t0.3"
    if out.get(key) is not None:
        ops.check(key, checks.partial_sum(key, out[key], refs["phi_real_t"]["0.3"]))
    key = "series.conditional_bound"
    if out.get(key) is not None:
        ops.check(key, checks.conditional_bound(key, out[key]))


def _check_alternation(ops: Ops) -> None:
    key = "series.alternation_check"
    if ops.outputs.get(key) is not None:
        ops.check(key, checks.alternation(key, ops.outputs[key]))


# scan_1d --------------------------------------------------------------------

def scan_1d(ops: Ops, ctx: Context) -> None:
    ops.call("optimize.grid_scan", grid_scan, 0.0, 0.5, 50)
    ops.call("optimize.maximize_eta", maximize_eta, 0.1, 0.4)
    c = ops.call("series.mehler_coefficients.k15", mehler_coefficients, RotationFamily(ETA), 15)
    b = ops.call("series.revert_odd_series", revert_odd_series, c)
    ops.call("series.alternation_check", alternation_check, b)


def check_scan_1d(ops: Ops, ctx: Context, first: dict) -> None:
    refs, out = ctx.refs, ops.outputs
    key = "optimize.grid_scan"
    if out.get(key) is not None:
        ops.check(key, checks.grid(key, out[key], refs["phi_i_over_i"]["0"]))
    key = "optimize.maximize_eta"
    if out.get(key) is not None:
        ops.check(key, checks.maximize(key, out[key], refs["phi_i_over_i"][str(ETA)]))
    _check_alternation(ops)


# mc_sample ------------------------------------------------------------------

# (call, estimator, family, t or None, samples)
MC_CALLS = (
    ("mc.phi_i.rotation3.n1e6", estimate_phi_i, "rotation3", None, 10**6),
    ("mc.phi_i.rotation3.n4e6", estimate_phi_i, "rotation3", None, 4 * 10**6),
    ("mc.phi_t.rotation3.t0.3", estimate_phi_t, "rotation3", 0.3, 10**6),
    ("mc.phi_t.identity1.t0.5", estimate_phi_t, "identity1", 0.5, 10**6),
)
FAMILY_DIM = {"rotation3": 3, "identity1": 1}


def _mc_call(ops: Ops, name, estimator, family, t, samples, seed) -> None:
    if t is None:
        ops.call(name, estimator, family, samples, seed)
    else:
        ops.call(name, estimator, family, t, samples, seed)


def mc_sample(ops: Ops, ctx: Context) -> None:
    families = {
        "rotation3": ops.family(rotation3(ETA)),
        "identity1": ops.family(identity1()),
    }
    for name, estimator, fam, t, samples in MC_CALLS:
        _mc_call(ops, name, estimator, families[fam], t, samples, ctx.seed)


def mc_frozen(ops: Ops, ctx: Context) -> None:
    """The README command at the frozen seed, for runs with another seed."""
    if ctx.seed != FROZEN_SEED:
        name, estimator, _, t, samples = MC_CALLS[0]
        _mc_call(ops, name, estimator, rotation3(ETA), t, samples, FROZEN_SEED)


def _mc_reference(refs: dict, name: str) -> float:
    if name.startswith("mc.phi_i."):
        return refs["phi_i_over_i"][str(ETA)]
    if name == "mc.phi_t.rotation3.t0.3":
        return refs["phi_real_t"]["0.3"]
    return 1.0 / 3.0  # identity1: (2/pi) arcsin(1/2)


def check_mc_sample(ops: Ops, ctx: Context, first: dict) -> None:
    for name, est in ops.outputs.items():
        if est is None:
            continue
        frozen = ctx.refs["mc_seed42"][name] if est.seed == FROZEN_SEED else None
        ops.check(
            name,
            checks.mc_estimate(
                name, est, _mc_reference(ctx.refs, name), frozen,
                first.get(name) if first else None,
            ),
        )


# cli_cold -------------------------------------------------------------------

def cli_commands(seed: int) -> tuple:
    """(call, argv, expected exit code), launched in this order."""
    return (
        ("cli.verify_pass", ["verify", "--eta", "0.228"], 0),
        ("cli.verify_fail", ["verify", "--eta", "0"], 1),
        ("cli.verify_usage", ["verify", "--eta", "nan"], 2),
        ("cli.series", ["series", "--eta", "0.228"], 0),
        ("cli.sweep", ["sweep", "--lo", "0", "--hi", "0.5", "--format", "csv"], 0),
        ("cli.optimize", ["optimize", "--lo", "0.1", "--hi", "0.4"], 0),
        ("cli.mc", ["mc", "--family", "rotation3", "--eta", "0.228",
                    "--samples", "100000", "--seed", str(seed)], 0),
    )


def launch(ctx: Context, argv: list[str]) -> subprocess.CompletedProcess:
    """One cold `python -m signcorr` process; the call waits for it to end."""
    return subprocess.run(
        [sys.executable, "-m", "signcorr", *argv], cwd=ctx.root, env=ctx.env,
        capture_output=True, timeout=120, check=False,
    )


def cli_cold(ops: Ops, ctx: Context) -> None:
    for name, argv, _ in cli_commands(ctx.seed):
        ops.call(name, launch, ctx, argv)


def check_cli_cold(ops: Ops, ctx: Context, first: dict) -> None:
    for name, _, code in cli_commands(ctx.seed):
        if ops.outputs.get(name) is not None:
            ops.check(
                name,
                checks.cli_launch(
                    name, code, ops.outputs[name], ctx.refs,
                    first.get(name) if first else None,
                ),
            )


@dataclass(frozen=True)
class Workload:
    job: Callable
    check: Callable
    once: Callable | None = None  # untimed calls made once per run


WORKLOADS = {
    "reproduce_2d": Workload(reproduce_2d, check_reproduce_2d),
    "scan_1d": Workload(scan_1d, check_scan_1d),
    "mc_sample": Workload(mc_sample, check_mc_sample, mc_frozen),
    "cli_cold": Workload(cli_cold, check_cli_cold),
}
