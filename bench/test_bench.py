"""Tests of the benchmark's own logic: the tail rule, self times of nested
spans, the mc_5sigma_s formula, the reference kernels' scaling, and that
every correctness check trips when its reference is perturbed.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import math
import pathlib
import random
import subprocess
from decimal import Decimal
from types import SimpleNamespace as NS

import pytest

import calibrate
import checks
import run
from spans import Tracer, self_times, totals

REFS = checks.load_references(pathlib.Path(__file__).with_name("references.json"))
HEADLINE = REFS["phi_i_over_i"]["0.228"]
THRESHOLD = REFS["phi_i_over_i"]["0"]


def quad(value, err=1e-12):
    return NS(value=value, error_estimate=err)


# the tail rule --------------------------------------------------------------

def test_tail_keeps_ten_samples_beyond():
    times = [float(x) for x in range(1, 31)]
    random.Random(0).shuffle(times)
    value, pct, beyond = run.tail(times)
    assert value == 20.0 and beyond == 10
    assert sum(t > value for t in times) == 10
    assert pct == pytest.approx(100.0 * 20 / 30)


def test_tail_with_twenty_two_samples_lies_above_the_median():
    times = [float(x) for x in range(22)]
    value, pct, beyond = run.tail(times)
    assert value == 11.0 > sorted(times)[10] and beyond == 10
    assert pct == pytest.approx(100.0 * 12 / 22)


@pytest.mark.parametrize("n", [1, 3, 11, 21])
def test_tail_with_21_samples_or_fewer_falls_back_to_the_maximum(n):
    times = [float(x) for x in range(n)]
    random.Random(n).shuffle(times)
    assert run.tail(times) == (float(n - 1), 100.0, 0)


def test_tail_counts_ties_beyond():
    value, _, beyond = run.tail([1.0] * 12 + [2.0] * 12)
    assert value == 2.0 and beyond == 10


# self times -----------------------------------------------------------------

def span(i, parent, start, end, name="x"):
    return {"id": i, "name": name, "parent": parent, "job": "j", "start": start, "end": end}


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 1, 2.0, 3.0),
        span(3, 0, 5.0, 6.0),
    ]
    assert self_times(spans) == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 4.0), span(2, 0, 3.0, 5.0)]
    assert self_times(spans)[0] == pytest.approx(6.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span(0, None, 0.0, 2.0), span(1, 0, 1.0, 3.0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_totals_add_up_by_name_and_under_the_top_level_call():
    spans = [
        span(0, None, 0.0, 10.0, "job"),
        span(1, 0, 0.0, 4.0, "op"),
        dict(span(2, 1, 1.0, 2.0, "leaf"), points=7),
        dict(span(3, 1, 2.0, 3.0, "leaf"), points=3, error="NonConvergenceError"),
    ]
    t = totals(spans)
    assert t["leaf.calls"] == 2 and t["leaf.points"] == 10
    assert t["op/leaf.points"] == 10 and t["op.self_s"] == pytest.approx(2.0)
    assert t["leaf.NonConvergenceError"] == 1
    assert "job/op.calls" not in t


def test_tracer_nests_wrapped_calls_and_records_errors():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    inner = tracer.wrap("inner", lambda: 1)
    with tracer.span("outer"):
        inner()
        with pytest.raises(ValueError):
            tracer.wrap("bad", boom)()
    outer, first, bad = tracer.spans
    assert first["parent"] == outer["id"] == bad["parent"]
    assert bad["error"] == "ValueError" and all(s["end"] is not None for s in tracer.spans)


# mc_5sigma_s ----------------------------------------------------------------

def test_mc_5sigma_is_time_scaled_by_the_squared_stderr_ratio():
    assert run.mc_5sigma_s(2.0, 2.0 * run.MARGIN / 5.0) == pytest.approx(8.0)
    assert run.mc_5sigma_s(3.0, run.MARGIN / 5.0) == pytest.approx(3.0)
    # t (s/(m/5))^2 = (stderr^2 t) / (m/5)^2: the stderr*sqrt(time) yardstick
    assert run.mc_5sigma_s(0.7, 1.8e-3) == pytest.approx(1.8e-3**2 * 0.7 / (run.MARGIN / 5) ** 2)


# reference kernels ----------------------------------------------------------

def test_kernel_scale_is_reference_over_the_mean_of_the_bracketing_times():
    kernel = calibrate.Kernel(calibrate.quadrature, 0.25)
    assert kernel.scales([0.5, 0.5, 0.05, 0.15]) == pytest.approx([0.5, 0.25 / 0.275, 2.5])


def test_kernel_window_takes_the_median_of_more_runs_clipped_to_the_run():
    kernel = calibrate.Kernel(calibrate.quadrature, 1.0, window=1)
    # job 0: runs 0-2; job 1: runs 0-3; job 2: runs 1-3
    assert kernel.scales([1.0, 2.0, 4.0, 8.0]) == pytest.approx([0.5, 1 / 3.0, 0.25])


def test_every_workload_has_a_kernel():
    assert set(calibrate.KERNELS) == set(run.WORKLOADS)


def test_kernels_do_fixed_work():
    # the same result every time, so the kernel's time depends on the machine alone
    assert calibrate._bisect(-3.0, 3.0) == calibrate._bisect(-3.0, 3.0)
    # the Gaussian-cosine part integrates to sqrt(pi) exp(-400), nil here; the
    # kink of sqrt(|x|) at 0 limits the kernel to a few digits
    exact = 4.0 / 3.0 * (3.001**1.5 - 0.001**1.5)
    assert calibrate._bisect(-3.0, 3.0) == pytest.approx(exact, abs=1e-5)


# correctness checks trip on a perturbed reference ---------------------------

def test_reference_anchor_is_the_published_high_precision_value():
    raw = json.loads(pathlib.Path(__file__).with_name("references.json").read_text())
    assert f"{Decimal(raw['phi_i_over_i']['0.228']):.20f}" == "0.56161447873454988115"


def test_route_check():
    assert checks.route("r", quad(HEADLINE), HEADLINE, THRESHOLD) == []
    assert checks.route("r", quad(HEADLINE), HEADLINE + 1e-9, THRESHOLD)
    assert checks.route("r", quad(HEADLINE), HEADLINE, HEADLINE)  # no margin: no pass


def test_real_t_check():
    ref = REFS["phi_real_t"]["0.95"]
    assert checks.within_estimate("t", quad(ref), ref) == []
    assert checks.within_estimate("t", quad(ref), ref + 2e-12)


def test_partial_sum_check():
    ref = REFS["phi_real_t"]["0.3"]
    assert checks.partial_sum("p", ref + 1e-6, ref) == []
    assert checks.partial_sum("p", ref + 1e-6, ref + 2e-5)


def test_alternation_check(monkeypatch):
    verdict = NS(alternating=False, first_violation=5)
    assert checks.alternation("a", verdict) == []
    monkeypatch.setattr(checks, "FIRST_VIOLATION", 7)
    assert checks.alternation("a", verdict)


def test_conditional_bound_check(monkeypatch):
    bound = 1.0 / HEADLINE
    assert checks.conditional_bound("c", bound) == []
    monkeypatch.setattr(checks, "CONDITIONAL_BOUND_WINDOW", (1.7806, 1.7807))
    assert checks.conditional_bound("c", bound)


def test_maximize_check(monkeypatch):
    best = NS(eta_star=0.2276, value_star=HEADLINE + 3e-8, error_estimate=1e-12)
    assert checks.maximize("m", best, HEADLINE) == []
    assert checks.maximize("m", best, HEADLINE + 1e-7)
    monkeypatch.setattr(checks, "ETA_STAR_WINDOW", (0.23, 0.26))
    assert checks.maximize("m", best, HEADLINE)


def test_grid_check():
    scan = NS(points=tuple((i / 100, THRESHOLD, 1e-12) for i in range(51)))
    assert checks.grid("g", scan, THRESHOLD) == []
    assert checks.grid("g", scan, THRESHOLD + 1e-9)
    assert checks.grid("g", NS(points=scan.points[:50]), THRESHOLD)


def test_mc_check():
    frozen = REFS["mc_seed42"]["mc.phi_i.rotation3.n1e6"]
    est = NS(mean=frozen["mean"], stderr=frozen["stderr"], seed=42)
    assert checks.mc_estimate("m", est, HEADLINE, frozen, est) == []
    assert checks.mc_estimate("m", est, HEADLINE - 5 * est.stderr)
    nudged = dict(frozen, mean=math.nextafter(frozen["mean"], 1.0))
    assert checks.mc_estimate("m", est, HEADLINE, nudged)
    other = NS(mean=est.mean, stderr=math.nextafter(est.stderr, 1.0), seed=42)
    assert checks.mc_estimate("m", est, HEADLINE, first=other)


def _launch(code, stdout, stderr=b""):
    return subprocess.CompletedProcess([], code, stdout.encode(), stderr)


def _cli_outputs(refs):
    head, eta0 = refs["phi_i_over_i"]["0.228"], refs["phi_i_over_i"]["0"]
    sweep = "eta,value,error_estimate\n" + "".join(
        f"{i / 100!r},{eta0 if i == 0 else head!r},1e-12\n" for i in range(51)
    )
    return {
        "cli.verify_pass": (0, _launch(0, json.dumps(
            {"value": head, "error_estimate": 1e-12, "pass": True}))),
        "cli.verify_fail": (1, _launch(1, json.dumps(
            {"value": eta0, "error_estimate": 1e-12, "pass": False}))),
        "cli.verify_usage": (2, _launch(2, "", b"signcorr: error: --eta must be finite")),
        "cli.series": (0, _launch(0, json.dumps({
            "value": head, "error_estimate": 1e-12, "alternating": False,
            "first_violation": 5, "conditional_bound": 1.0 / head}))),
        "cli.sweep": (0, _launch(0, sweep)),
        "cli.optimize": (0, _launch(0, json.dumps({"eta_star": 0.2276}))),
        "cli.mc": (0, _launch(0, json.dumps({"value": head + 1e-3, "stderr": 1e-3}))),
    }


@pytest.mark.parametrize("name", list(_cli_outputs(REFS)))
def test_cli_check(name):
    code, launch = _cli_outputs(REFS)[name]
    assert checks.cli_launch(name, code, launch, REFS, launch) == []
    assert checks.cli_launch(name, code + 1, launch, REFS)
    different = _launch(launch.returncode, launch.stdout.decode() + " ", launch.stderr)
    assert checks.cli_launch(name, code, launch, REFS, different)


@pytest.mark.parametrize("name", [n for n in _cli_outputs(REFS) if n != "cli.optimize"])
def test_cli_check_trips_on_a_perturbed_reference(name):
    code, launch = _cli_outputs(REFS)[name]
    moved = {"phi_i_over_i": {k: v + 5e-3 for k, v in REFS["phi_i_over_i"].items()}}
    if name == "cli.verify_usage":
        launch = _launch(2, "{}", launch.stderr)  # stdout must stay empty
        moved = REFS
    assert checks.cli_launch(name, code, launch, moved)


def test_cli_optimize_check_trips_on_a_perturbed_window(monkeypatch):
    code, launch = _cli_outputs(REFS)["cli.optimize"]
    monkeypatch.setattr(checks, "ETA_STAR_WINDOW", (0.1, 0.2))
    assert checks.cli_launch("cli.optimize", code, launch, REFS)


# the result line ------------------------------------------------------------

def test_result_line_refuses_metrics_that_differ_from_benchmark_json():
    units = run.declared("end_to_end")
    metrics = {name: 1.0 for name in units}
    tally = run.Tally()
    tally.attempted = 3
    line = run.result_line(metrics, units, tally)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["metrics"]["setup_s"] == {"value": 1.0, "unit": "s"}
    with pytest.raises(RuntimeError):
        run.result_line({**metrics, "extra": 1.0}, units, tally)
