"""signcorr benchmark: one workload per run, as a closed loop with one client.

    python3 bench/run.py --workload reproduce_2d --seed 42 --seconds 25 --trace 0

Run it from the root of a checkout. It loads signcorr from `src/`, makes the
workload's inputs from the seed, runs one untimed job to warm up, then runs
jobs back to back, each after the previous one ends, for `--seconds`. Every
output is checked against the frozen references.

`--trace 0` prints the end-to-end metrics of the workload. `--trace 1` prints
the per-layer metrics instead: it runs every workload's job alternately with
and without spans for a share of `--seconds` each, so the layer figures do
not depend on `--workload`, and it runs the tier-1 suite once.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; metric names and units are those in BENCHMARK.json. A
record with the job times, failures, machine facts and spans goes to
bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import re
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
WORKLOADS = ("reproduce_2d", "scan_1d", "mc_sample", "cli_cold")
MARGIN = 5.146e-4  # Phi(i)/i - (2/pi) ln(1+sqrt 2) at eta = 0.228
SETUP_REPS = 11
FLOOR_REPS = 5
TAIL_BEYOND = 10
SUITE_TIMEOUT_S = 100  # keeps a traced run within 180 s
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import signcorr; "
    "print(time.perf_counter() - t0)"
)
# One client, no threads: numpy's BLAS would otherwise start a pool per core.
# The variables only act if set before numpy loads, so the modules that import
# numpy (jobs, spans) are imported inside functions, after main() sets them.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def tail(times: list[float]) -> tuple[float, float, int]:
    """The highest percentile of `times` with at least ten samples beyond it:
    (value, percentile, samples beyond). With 21 samples or fewer that
    percentile would not lie above the median, so the maximum is returned,
    with 0 samples beyond."""
    xs = sorted(times)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND + 1:
        return xs[-1], 100.0, 0
    i = n - TAIL_BEYOND - 1
    return xs[i], 100.0 * (i + 1) / n, TAIL_BEYOND


def mc_5sigma_s(seconds: float, stderr: float) -> float:
    """Projected time for Monte Carlo alone to resolve MARGIN at 5 standard
    errors, from one estimate that took `seconds` and had `stderr`."""
    return seconds * (stderr / (MARGIN / 5.0)) ** 2


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def machine_facts(signcorr_threads: str | None) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        # the run always unsets it; this records what the caller had
        "SIGNCORR_THREADS": signcorr_threads or "unset",
        **ONE_THREAD,
    }


class Tally:
    """Operations attempted and failed across every job of the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, ops) -> None:
        self.attempted += ops.attempted
        self.failed += len(ops.failures)
        for lines in ops.failures.values():
            self.messages.extend(lines)


def run_job(workload: str, ctx, tally: Tally, first=None, tracer=None):
    """One job: its calls timed as a whole, then its checks. -> (ops, seconds)"""
    from jobs import WORKLOADS as DEFS, Ops

    wl = DEFS[workload]
    ops = Ops(tracer)
    t0 = time.perf_counter()
    if tracer is None:
        wl.job(ops, ctx)
    else:
        with tracer.patched(), tracer.span(f"job.{workload}"):
            wl.job(ops, ctx)
    elapsed = time.perf_counter() - t0
    wl.check(ops, ctx, first)
    tally.add(ops)
    return ops, elapsed


def warm_up(workload: str, ctx, tally: Tally) -> dict:
    """The run's untimed calls; returns the first job's outputs, which later
    jobs must reproduce."""
    from jobs import WORKLOADS as DEFS, Ops

    once = DEFS[workload].once
    if once is not None:
        ops = Ops()
        once(ops, ctx)
        DEFS[workload].check(ops, ctx, None)
        tally.add(ops)
    ops, _ = run_job(workload, ctx, tally)
    return ops.outputs


def probe(ctx, code: str) -> tuple[float, str]:
    """A fresh interpreter running `code`: (wall seconds, stdout)."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ctx.root, env=ctx.env,
        capture_output=True, text=True, timeout=120, check=True,
    )
    return time.perf_counter() - t0, proc.stdout


def setup_probe(ctx) -> tuple[float, float]:
    """`import signcorr` in a fresh interpreter, then `import numpy` in
    another: (seconds of each import)."""
    from calibrate import numpy_launch

    return float(probe(ctx, IMPORT_PROBE)[1]), numpy_launch(ctx)[1]


def end_to_end(workload: str, ctx, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Jobs back to back for `seconds`, each between two runs of the
    workload's reference kernel (calibrate.py), which scale the job's time
    to the reference speed. The set-up probes are spread over the same
    window, each paired with a numpy import, so that both medians see the
    machine over the same time."""
    from calibrate import KERNELS, NUMPY_IMPORT_S

    kernel = KERNELS[workload]
    first = warm_up(workload, ctx, tally)
    kernel.run(ctx)
    kernel_s = [kernel.run(ctx)]  # before the first job
    setup, numpy_import, times = [], [], []
    start = time.perf_counter()
    while True:
        if len(setup) < SETUP_REPS * (time.perf_counter() - start) / seconds:
            for xs, x in zip((setup, numpy_import), setup_probe(ctx)):
                xs.append(x)
        times.append(run_job(workload, ctx, tally, first)[1])
        kernel_s.append(kernel.run(ctx))
        if time.perf_counter() - start >= seconds:
            break
    while len(setup) < SETUP_REPS:
        for xs, x in zip((setup, numpy_import), setup_probe(ctx)):
            xs.append(x)
    scales = kernel.scales(kernel_s)
    scaled = [t * s for t, s in zip(times, scales)]
    tail_s, pct, beyond = tail(scaled)
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    metrics = {
        "setup_s": statistics.median(
            s * NUMPY_IMPORT_S / n for s, n in zip(setup, numpy_import)
        ),
        "job_s": statistics.median(scaled),
        "job_tail_s": tail_s,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    notes = {
        "jobs": len(times),
        "job_tail": {"percentile": pct, "samples_beyond": beyond, "samples": len(times)},
        "wall": {
            "job_s": statistics.median(times),
            "setup_s": statistics.median(setup),
            "speed": statistics.median(scales),
        },
        "setup_times": setup,
        "numpy_import_times": numpy_import,
        "job_times": times,
        "kernel_times": kernel_s,
    }
    return metrics, notes


def _median_dict(dicts: list[dict]) -> dict:
    keys = {k for d in dicts for k in d}
    return {k: statistics.median(d[k] for d in dicts if k in d) for k in keys}


def traced_pass(workload: str, ctx, seconds: float, tally: Tally, tracer) -> dict:
    """Alternate untraced and traced jobs of one workload for `seconds`."""
    from spans import totals

    first = warm_up(workload, ctx, tally)
    plain, traced, layers = [], [], []
    deadline = time.perf_counter() + seconds
    rep = 0
    while True:
        plain.append(run_job(workload, ctx, tally, first)[1])
        tracer.job = f"{workload}-{rep}"
        start = len(tracer.spans)
        ops, elapsed = run_job(workload, ctx, tally, first, tracer)
        traced.append(elapsed)
        layers.append(totals(tracer.spans[start:]))
        rep += 1
        if time.perf_counter() >= deadline:
            break
    return {
        "layers": _median_dict(layers),
        "plain_s": statistics.median(plain),
        "traced_s": statistics.median(traced),
        "outputs": ops.outputs,
        "reps": rep,
    }


def run_suite(ctx) -> dict:
    """One tier-1 run, as ROADMAP.md states it, with pytest's cache and
    temporary files kept inside the checkout."""
    t0 = time.perf_counter()
    try:
        stdout = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             "-p", "no:cacheprovider", f"--basetemp={OUT / 'pytest'}"],
            cwd=ctx.root, env=ctx.env, capture_output=True, text=True,
            timeout=SUITE_TIMEOUT_S, check=False,
        ).stdout
    except subprocess.TimeoutExpired:
        stdout = f"timed out after {SUITE_TIMEOUT_S} s"
    wall = time.perf_counter() - t0
    summary = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    count = lambda word: sum(int(n) for n in re.findall(rf"(\d+) {word}", summary))
    return {
        "wall_s": wall,
        "passed": count("passed"),
        "failed": count("failed") + count("error"),
        "summary": summary,
    }


def per_layer(passes: dict, floors: dict, suite: dict, refs: dict) -> dict:
    from jobs import FAMILY_DIM, MC_CALLS, ROUTES, T_VALUES, cli_commands

    L: dict[str, float] = {}
    for p in passes.values():
        for k, v in p["layers"].items():
            L[k] = L.get(k, 0.0) + v
    get = lambda key: L.get(key, 0.0)
    m: dict[str, float] = {}

    for layer in ("specfun.bessel_j0", "specfun.hermite_prob"):
        m[f"{layer}.calls"] = get(f"{layer}.calls")
        m[f"{layer}.points"] = get(f"{layer}.points")
        m[f"{layer}.self_s"] = get(f"{layer}.self_s")
    m["specfun.bessel_j0.points_per_s"] = ratio(
        get("specfun.bessel_j0.points"), get("specfun.bessel_j0.self_s")
    )
    for layer in ("quad.integrate_1d", "quad.integrate_2d"):
        m[f"{layer}.calls"] = get(f"{layer}.calls")
        m[f"{layer}.evaluations"] = get(f"{layer}.evaluations")
        m[f"{layer}.self_s"] = get(f"{layer}.self_s")
        m[f"{layer}.evals_per_s"] = ratio(get(f"{layer}.evaluations"), get(f"{layer}.s"))
    m["quad.nonconvergence"] = get("quad.integrate_1d.NonConvergenceError") + get(
        "quad.integrate_2d.NonConvergenceError"
    )

    out = passes["reproduce_2d"]["outputs"]
    headline = refs["phi_i_over_i"]["0.228"]
    for name, _ in ROUTES:
        key = f"phi.phi_i_{name}"
        m[f"{key}.s"] = get(f"{key}.s")
        r = out.get(key)
        m[f"{key}.evaluations"] = r.evaluations if r else 0
        m[f"{key}.err_est"] = r.error_estimate if r else 0.0
        m[f"{key}.abs_err"] = abs(r.value - headline) if r else 0.0
    for t in T_VALUES:
        key = f"phi.phi_real_t.t{t}"
        m[f"{key}.s"] = get(f"{key}.s")
        r = out.get(key)
        m[f"{key}.evaluations"] = r.evaluations if r else 0
        m[f"{key}.abs_err"] = abs(r.value - refs["phi_real_t"][str(t)]) if r else 0.0

    for k in ("k11", "k15"):
        m[f"series.mehler_coefficients.{k}.s"] = get(f"series.mehler_coefficients.{k}.s")
    m["series.revert_odd_series.s"] = get("series.revert_odd_series.s")
    m["series.alternation_check.s"] = get("series.alternation_check.s")
    m["series.quad_evaluations"] = sum(
        get(f"series.mehler_coefficients.{k}/quad.integrate_1d.evaluations")
        for k in ("k11", "k15")
    )

    out = passes["scan_1d"]["outputs"]
    scan, best = out.get("optimize.grid_scan"), out.get("optimize.maximize_eta")
    m["optimize.grid_scan.s"] = get("optimize.grid_scan.s")
    m["optimize.grid_scan.routes"] = len(scan.points) if scan else 0
    m["optimize.maximize_eta.s"] = get("optimize.maximize_eta.s")
    m["optimize.maximize_eta.routes"] = best.evaluations if best else 0
    m["optimize.s_per_route"] = ratio(
        m["optimize.grid_scan.s"] + m["optimize.maximize_eta.s"],
        m["optimize.grid_scan.routes"] + m["optimize.maximize_eta.routes"],
    )

    out = passes["mc_sample"]["outputs"]
    sampling = sum(get(f"{name}.self_s") for name, *_ in MC_CALLS)
    normals = sum(2 * FAMILY_DIM[fam] * n for _, _, fam, _, n in MC_CALLS)
    for name, _, _, _, samples in MC_CALLS:
        m[f"{name}.s"] = get(f"{name}.s")
        m[f"{name}.samples_per_s"] = ratio(samples, get(f"{name}.s"))
    m["mc.family_eval.self_s"] = get("mc.family_eval.self_s")
    m["mc.sampling.self_s"] = sampling
    m["mc.normals_per_s"] = ratio(normals, sampling)
    est = out.get("mc.phi_i.rotation3.n4e6")
    t_n = get("mc.phi_i.rotation3.n4e6.s")
    m["mc.rotation3_phi_i.stderr2_s"] = est.stderr**2 * t_n if est else 0.0
    m["mc.rotation3_phi_i.t5sigma_s"] = mc_5sigma_s(t_n, est.stderr) if est else 0.0

    launches = [get(f"{name}.s") for name, *_ in cli_commands(0)]
    for name, *_ in cli_commands(0):
        m[f"{name}.s"] = get(f"{name}.s")
    m["cli.numpy_floor_s"] = floors["numpy"]
    m["cli.import_signcorr_s"] = floors["signcorr"]
    m["cli.own_s"] = statistics.median(launches) - floors["numpy"]

    m["suite.wall_s"] = suite["wall_s"]
    m["suite.passed"] = suite["passed"]
    m["suite.failed"] = suite["failed"]

    for w, p in passes.items():
        m[f"trace.overhead_frac.{w}"] = ratio(p["traced_s"], p["plain_s"]) - 1.0
    job = lambda w: passes[w]["layers"].get(f"job.{w}.s", 0.0)
    lay = lambda w, key: passes[w]["layers"].get(key, 0.0)
    m["share.reproduce_2d.integrate_2d"] = ratio(
        lay("reproduce_2d", "quad.integrate_2d.s"), job("reproduce_2d")
    )
    m["share.scan_1d.bessel_j0_integrate_1d"] = ratio(
        lay("scan_1d", "specfun.bessel_j0.self_s") + lay("scan_1d", "quad.integrate_1d.self_s"),
        job("scan_1d"),
    )
    m["share.mc_sample.estimators"] = ratio(
        sum(lay("mc_sample", f"{name}.s") for name, *_ in MC_CALLS), job("mc_sample")
    )
    return m


def layered(ctx, seconds: float, tally: Tally) -> tuple[dict, dict]:
    from spans import Tracer

    tracer = Tracer()
    passes = {
        w: traced_pass(w, ctx, seconds / len(WORKLOADS), tally, tracer) for w in WORKLOADS
    }
    floors = {
        "numpy": statistics.median(probe(ctx, "import numpy")[0] for _ in range(FLOOR_REPS)),
        "signcorr": statistics.median(
            probe(ctx, "import signcorr")[0] for _ in range(FLOOR_REPS)
        ),
    }
    suite = run_suite(ctx)
    metrics = per_layer(passes, floors, suite, ctx.refs)
    notes = {
        "reps": {w: p["reps"] for w, p in passes.items()},
        "suite": suite,
        "spans": tracer.spans,
    }
    return metrics, notes


def declared(section: str) -> dict[str, str]:
    """Metric name -> unit for one section of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def result_line(metrics: dict, units: dict, tally: Tally) -> dict:
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "signcorr" / "__init__.py").is_file():
        print(f"bench: no signcorr sources under {src}", file=sys.stderr)
        return 2

    signcorr_threads = os.environ.get("SIGNCORR_THREADS")
    for key in [k for k in os.environ if k.startswith("SIGNCORR_")]:
        del os.environ[key]
    # before numpy is first imported, here and in every child
    os.environ.update(ONE_THREAD)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(src))

    from checks import load_references
    from jobs import Context

    ctx = Context(str(ROOT), args.seed, dict(os.environ), load_references(
        ROOT / "bench" / "references.json"))
    facts = machine_facts(signcorr_threads)
    tally = Tally()
    if args.trace:
        metrics, notes = layered(ctx, args.seconds, tally)
        units = declared("per_layer")
    else:
        metrics, notes = end_to_end(args.workload, ctx, args.seconds, tally)
        units = declared("end_to_end")
    result = result_line(metrics, units, tally)

    OUT.mkdir(parents=True, exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "machine": facts, "result": result,
                   "failures": tally.messages, **notes}, fh)

    print("machine " + json.dumps(facts))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}; record in {record.relative_to(ROOT)}")
    if "job_tail" in notes:
        t = notes["job_tail"]
        print(f"  {notes['jobs']} jobs; job_tail_s is p{t['percentile']:.1f} with "
              f"{t['samples_beyond']} of {t['samples']} samples beyond it")
        w = notes["wall"]
        print(f"  times below are at the reference speed (calibrate.py); this run's "
              f"median speed factor was {w['speed']:.4g}, its unscaled job_s "
              f"{w['job_s']:.6g} s and setup_s {w['setup_s']:.6g} s")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  fail_frac = {ratio(tally.failed, tally.attempted):.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for line in tally.messages[:20]:
        print("FAIL " + line.replace("\n", " | "))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
