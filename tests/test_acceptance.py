"""Acceptance gate: the nine headline checks, one reported line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see each verdict line.
Every criterion states its claim and tolerance inline; supporting property
suites live in the per-module test files.
"""

import math
import time

import numpy as np

from signcorr import (
    METHODS,
    RotationFamily,
    alternation_check,
    conditional_bound,
    estimate_phi_i,
    estimate_phi_t,
    hermite_prob,
    identity1,
    integrate_1d,
    mehler_coefficients,
    maximize_eta,
    phi_i_bessel,
    phi_i_cartesian,
    phi_i_polar,
    phi_real_t,
    revert_odd_series,
    rotation3,
    verify_theorem,
)

MATHEMATICA_REFERENCE = 0.561614475916681
SIN_HALF_PI_COEFFS = (
    1.5707963267948966192,
    -0.64596409750624625366,
    0.079692626246167045121,
    -0.0046817541353186881007,
    0.00016044118478735982187,
    -3.5988432352120853405e-6,
)
ROUTES = {"polar": phi_i_polar, "cartesian": phi_i_cartesian, "bessel": phi_i_bessel}


def _verdict(n: int, ok: bool, detail: str) -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_headline_reproduction():
    start = time.perf_counter()
    report = verify_theorem(RotationFamily(0.228))
    elapsed = time.perf_counter() - start
    close = abs(report.phi_i_value - MATHEMATICA_REFERENCE) <= 1e-7
    ok = close and report.passed and report.margin >= 5.1e-4 and elapsed < 10.0
    _verdict(
        1, ok,
        f"value {report.phi_i_value:.15f} within 1e-7 of the published "
        f"{MATHEMATICA_REFERENCE}, margin {report.margin:.6e} >= 5.1e-4, "
        f"pass={report.passed}, {elapsed:.2f}s",
    )


def test_criterion_2_threshold_anchor():
    anchor = 2.0 / math.pi * math.log(1.0 + math.sqrt(2.0))
    value = phi_i_bessel(RotationFamily(0.0)).value
    report = verify_theorem(RotationFamily(0.0))
    ok = abs(value - anchor) <= 1e-10 and not report.passed
    _verdict(
        2, ok,
        f"phi_i_bessel(0) = {value:.15f} within 1e-10 of (2/pi)ln(1+sqrt2) "
        f"= {anchor:.15f}; verification at eta=0 reports pass=False",
    )


def test_criterion_3_method_cross_agreement():
    worst_gap_ratio = 0.0
    worst_err = 0.0
    ok = True
    for eta in (0.0, 0.1, 0.228, 0.35):
        family = RotationFamily(eta)
        results = [ROUTES[m](family) for m in METHODS]
        for r in results:
            worst_err = max(worst_err, r.error_estimate)
            ok = ok and r.error_estimate <= 1e-6
        for i, a in enumerate(results):
            for b in results[i + 1:]:
                budget = a.error_estimate + b.error_estimate
                gap = abs(a.value - b.value)
                ok = ok and gap <= budget
                worst_gap_ratio = max(worst_gap_ratio, gap / budget)
    _verdict(
        3, ok,
        f"3 methods x 4 etas pairwise agree within summed error estimates "
        f"(worst gap {worst_gap_ratio:.2f} of budget); all estimates "
        f"<= 1e-6 (max {worst_err:.1e})",
    )


def test_criterion_4_conditional_bound():
    bound = conditional_bound(phi_i_bessel(RotationFamily(0.228)).value)
    ok = 1.7805 < bound < 1.7806
    _verdict(4, ok, f"1/V(0.228) = {bound:.10f} lies in (1.7805, 1.7806)")


def test_criterion_5_alternation_findings():
    broken = alternation_check(
        revert_odd_series(mehler_coefficients(RotationFamily(0.228), 11))
    )
    clean_series = revert_odd_series(mehler_coefficients(RotationFamily(0.0), 11))
    clean = alternation_check(clean_series)
    rel_errs = [
        abs(got - ref) / abs(ref)
        for got, ref in zip(clean_series.coeffs, SIN_HALF_PI_COEFFS)
    ]
    ok = (
        not broken.alternating
        and broken.first_violation == 5
        and clean.alternating
        and max(rel_errs) <= 1e-9
    )
    _verdict(
        5, ok,
        f"eta=0.228 reversion NOT alternating (first violation at order "
        f"{broken.first_violation}, signs {''.join(broken.signs)}); eta=0 "
        f"reversion alternating and matches sin(pi s/2) to "
        f"{max(rel_errs):.1e} relative (<= 1e-9)",
    )


def test_criterion_6_series_quadrature_consistency():
    partial = mehler_coefficients(RotationFamily(0.228), 11).evaluate(0.3)
    direct = phi_real_t(RotationFamily(0.228), 0.3).value
    gap = abs(partial - direct)
    ok = gap <= 1e-5
    _verdict(
        6, ok,
        f"order-11 partial sum at t=0.3 ({partial:.12f}) agrees with direct "
        f"quadrature ({direct:.12f}) to {gap:.2e} (<= 1e-5)",
    )


def test_criterion_7_monte_carlo_validation():
    arc = estimate_phi_t(identity1(), 0.5, 10**6, 42)
    arc_again = estimate_phi_t(identity1(), 0.5, 10**6, 42)
    z_arc = abs(arc.mean - 1.0 / 3.0) / arc.stderr

    reference = phi_i_bessel(RotationFamily(0.228)).value
    rot = estimate_phi_i(rotation3(0.228), 10**7, 42)
    z_rot = abs(rot.mean - reference) / rot.stderr
    rot_small = estimate_phi_i(rotation3(0.228), 10**6, 42)
    rot_small_again = estimate_phi_i(rotation3(0.228), 10**6, 42)

    reproducible = (
        arc.mean == arc_again.mean and rot_small.mean == rot_small_again.mean
    )
    ok = z_arc <= 4.0 and z_rot <= 4.0 and reproducible
    _verdict(
        7, ok,
        f"identity1 Phi(0.5) z={z_arc:.2f} (<= 4) at 1e6 samples; rotation3 "
        f"Phi(i)/i z={z_rot:.2f} (<= 4) at 1e7 samples; fixed-seed reruns "
        f"bit-identical={reproducible}",
    )


def test_criterion_8_optimization():
    res = maximize_eta(0.0, 0.5)
    v228 = phi_i_bessel(RotationFamily(0.228)).value
    ok = (
        0.20 <= res.eta_star <= 0.26
        and res.value_star >= 0.5616144
        and res.value_star >= v228 - 1e-9
    )
    _verdict(
        8, ok,
        f"eta_star = {res.eta_star:.6f} in [0.20, 0.26], value "
        f"{res.value_star:.10f} >= 0.5616144 and >= V(0.228) - 1e-9 "
        f"(V(0.228) = {v228:.10f})",
    )


def test_criterion_9_property_suites():
    checks = []

    # parity of He_m
    xs = np.linspace(-4.0, 4.0, 17)
    checks.append(all(
        np.allclose(hermite_prob(m, -xs), (-1.0) ** m * hermite_prob(m, xs),
                    rtol=1e-12, atol=1e-12)
        for m in range(15)
    ))

    # evenness of V in eta
    for eta in (0.1, 0.35):
        plus = phi_i_bessel(RotationFamily(eta))
        minus = phi_i_bessel(RotationFamily(-eta))
        checks.append(
            abs(plus.value - minus.value)
            <= plus.error_estimate + minus.error_estimate
        )

    # oddness of Phi in t and arcsin-law domination
    fam = RotationFamily(0.228)
    for t in (0.2, 0.6):
        checks.append(
            abs(phi_real_t(fam, t).value + phi_real_t(fam, -t).value) <= 1e-8
        )
    checks.append(all(
        abs(phi_real_t(fam, t).value) <= 2.0 / math.pi * math.asin(t) + 1e-9
        for t in (0.1, 0.3, 0.5, 0.7, 0.9)
    ))

    # reversion round-trip on the measured coefficients
    c = mehler_coefficients(fam, 11)
    rt = revert_odd_series(revert_odd_series(c))
    checks.append(all(
        abs(a - b) <= 1e-11 for a, b in zip(rt.coeffs, c.coeffs)
    ))

    # honest quadrature error estimates on known integrals
    for f, a, b, truth in (
        (np.sin, 0.0, math.pi, 2.0),
        (lambda x: np.cos(40.0 * x), 0.0, 1.0, math.sin(40.0) / 40.0),
        (np.exp, 0.0, 1.0, math.e - 1.0),
    ):
        r = integrate_1d(f, a, b, 1e-10)
        checks.append(abs(r.value - truth) <= max(r.error_estimate, 1e-14))

    ok = all(checks)
    _verdict(
        9, ok,
        f"{len(checks)} property checks (Hermite parity, evenness in eta, "
        f"oddness in t, arcsin-law domination, reversion round-trip, honest "
        f"error estimates) all hold; hypothesis suites in the module tests "
        f"cover the randomized versions",
    )
