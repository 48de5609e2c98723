"""Taylor coefficients, odd-series reversion, and the alternation check."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from signcorr import (
    THRESHOLD,
    AlternationVerdict,
    OddSeries,
    RotationFamily,
    alternation_check,
    arcsin_coeff,
    conditional_bound,
    hermite_prob,
    integrate_1d,
    mehler_coefficients,
    phi_i_bessel,
    phi_real_t,
    revert_odd_series,
)
from signcorr.series import _char_integral

# Reference values computed with 40-digit interval arithmetic and frozen.
C_REF_228 = (
    0.62068659660996004651,
    0.085557040935449652745,
    0.040344880276466674017,
    0.022859102784327083574,
    0.015229641030094891544,
    0.010821242285144787344,
)
B_REF_228 = (
    1.6111190501966015538,
    -0.57645616367305952383,
    -0.086827292758786905815,
    0.096387313873978078681,
    -0.052448053283078216595,
    0.047989360228607701705,
)
SIN_HALF_PI_COEFFS = (
    1.5707963267948966192,
    -0.64596409750624625366,
    0.079692626246167045121,
    -0.0046817541353186881007,
    0.00016044118478735982187,
    -3.5988432352120853405e-6,
)
PARTIAL_SUM_REF_228_03 = 0.18861937536762636715
A00_REF_114 = 0.97497222604575097331
KRIVINE_BOUND = math.pi / (2.0 * math.asinh(1.0))
# I_m(beta) = E[He_m(X) e^{i beta (X^2-1)}]. The last two are 30-digit values
# from mpmath at 40 digits: the defining integral folded onto [0, 40] and
# summed over 200 panels, which agrees with the closed form evaluated in
# mpmath to 1e-41.
CHAR_REF = {
    (0, 0.114): 0.98740863129826544 - 0.0018918553229379198j,
    (2, 0.114): -0.048382967113358364 + 0.21409785143415881j,
    (4, 0.114): -0.13203386163069226 - 0.063197669957334956j,
    (2, 0.342): -0.27152167498535199 + 0.4351499630573948j,
    (6, 0.570): 3.4666826304081591 + 3.8422938096634444j,
    (0, 7.8): 0.182731754548018482003410829352 - 0.174872443006740671906950344210j,
    (4, 5.4): 0.119801699360855093272559385177 + 0.895200667064103637713739789950j,
}


def char_integral(m: int, beta: float, tol: float) -> complex:
    """One characteristic integral I_m(beta) for even m by two 1D quadratures
    folded onto [0, 12], where He_m(x) phi(x) < 4e-17 for every m <= 14: an
    oracle for the closed form."""

    def part(trig):
        def f(x):
            return (
                hermite_prob(m, x)
                * trig(beta * (x * x - 1.0))
                * np.exp(-x * x / 2.0)
                / math.sqrt(2.0 * math.pi)
            )

        return 2.0 * integrate_1d(f, 0.0, 12.0, tol).value

    return complex(part(np.cos), part(np.sin))


def compose_odd(outer: OddSeries, inner: OddSeries) -> OddSeries:
    """Coefficients of outer(inner(t)) through the smaller max_order, by
    plain truncated products: an oracle for reversion."""
    K = min(outer.max_order, inner.max_order)

    def mul(p, q):
        out = [0.0] * (K + 1)
        for i, pv in enumerate(p):
            for j, qv in enumerate(q[: K + 1 - i]):
                out[i + j] += pv * qv
        return out

    s = [0.0] * (K + 1)
    for k, c in zip(inner.orders, inner.coeffs):
        if k <= K:
            s[k] = c
    s2 = mul(s, s)
    full = [0.0] * (K + 1)
    power = s
    for k, c in zip(outer.orders, outer.coeffs):
        if k > K:
            break
        full = [acc + c * p for acc, p in zip(full, power)]
        power = mul(power, s2)
    return OddSeries(tuple(full[k] for k in range(1, K + 1, 2)))


def sin_series(K: int) -> OddSeries:
    coeffs = tuple(
        (-1.0) ** p / math.factorial(2 * p + 1) for p in range((K + 1) // 2)
    )
    return OddSeries(coeffs)


def arcsin_series(K: int) -> OddSeries:
    return OddSeries(tuple(arcsin_coeff(p) for p in range((K + 1) // 2)))


class TestOddSeries:
    def test_orders(self):
        s = OddSeries((1.0, 2.0, 3.0))
        assert s.max_order == 5
        assert s.orders == (1, 3, 5)

    def test_evaluate(self):
        s = OddSeries((2.0, -1.0))
        # 2t - t^3 at t = 0.5
        assert s.evaluate(0.5) == pytest.approx(2 * 0.5 - 0.125, abs=1e-16)

    def test_evaluate_sin(self):
        s = sin_series(15)
        for t in (-1.2, 0.3, 1.0):
            assert s.evaluate(t) == pytest.approx(math.sin(t), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            OddSeries(())
        with pytest.raises(ValueError):
            OddSeries((math.nan,))

    def test_immutable(self):
        s = OddSeries((1.0,))
        with pytest.raises(AttributeError):
            s.coeffs = (2.0,)

    def test_list_is_kept_as_a_tuple(self):
        # a frozen series hashes, and no caller can append past the checks
        s = OddSeries([1.0, -1 / 6])
        assert s.coeffs == (1.0, -1 / 6)
        assert hash(s) == hash(OddSeries((1.0, -1 / 6)))
        with pytest.raises(AttributeError):
            s.coeffs.append(math.nan)
        assert s.max_order == 3


class TestCharIntegral:
    @pytest.mark.parametrize("m,beta", sorted(CHAR_REF))
    def test_closed_form(self, m, beta):
        ref = CHAR_REF[(m, beta)]
        assert abs(_char_integral(m, beta) - ref) <= 1e-15 * max(1.0, abs(ref))

    def test_beta_zero_orthogonality(self):
        assert _char_integral(0, 0.0) == pytest.approx(1.0, abs=1e-14)
        assert abs(_char_integral(2, 0.0)) < 1e-12
        assert abs(_char_integral(6, 0.0)) < 1e-10

    @pytest.mark.parametrize("eta", [0.0, 0.228])
    def test_matches_quadrature_oracle(self, eta):
        # every (m, beta) pair mehler_coefficients reads at order 15; the
        # worst gap measured is 1.1e-11
        qtol = 1e-10 / 8.0
        for m in range(0, 15, 2):
            for q in range((14 - m) // 2 + 1):
                beta = (2 * q + 1) * eta / 2.0
                got = _char_integral(m, beta)
                assert abs(got - char_integral(m, beta, qtol)) <= 2e-11


class TestMehlerCoefficients:
    def test_reference_values(self):
        # c_k within one ulp of c_1; one ulp on any c_k moves the reverted
        # coefficients by up to 1.5e-15 (measured), hence the second bound
        c = mehler_coefficients(RotationFamily(0.228), 11)
        assert c.max_order == 11
        for got, ref in zip(c.coeffs, C_REF_228):
            assert abs(got - ref) <= 1.5e-16
        for got, ref in zip(revert_odd_series(c).coeffs, B_REF_228):
            assert abs(got - ref) <= 1.6e-15

    def test_eta_zero_degenerates_to_arcsin(self):
        c = mehler_coefficients(RotationFamily(0.0), 11)
        for got, a in zip(c.coeffs, arcsin_series(11).coeffs):
            assert got == pytest.approx(2.0 / math.pi * a, abs=1e-12)

    def test_leading_coefficient_identity(self):
        # c_1 = (2/pi) |E[e^{i eps He_2}]|^2 evaluated through the kernel sum
        c = mehler_coefficients(RotationFamily(0.228), 1)
        assert c.coeffs[0] == pytest.approx(2.0 / math.pi * A00_REF_114, abs=1e-13)

    def test_even_in_eta(self):
        plus = mehler_coefficients(RotationFamily(0.35), 7)
        minus = mehler_coefficients(RotationFamily(-0.35), 7)
        for a, b in zip(plus.coeffs, minus.coeffs):
            assert a == pytest.approx(b, abs=1e-13)

    def test_partial_sum_matches_quadrature(self):
        c = mehler_coefficients(RotationFamily(0.228), 11)
        partial = c.evaluate(0.3)
        assert partial == pytest.approx(PARTIAL_SUM_REF_228_03, abs=1e-13)
        direct = phi_real_t(RotationFamily(0.228), 0.3)
        assert partial == pytest.approx(direct.value, abs=1e-5)

    def test_order_15_at_large_eta(self):
        # the partial sum still tracks the radial quadrature at small t
        c = mehler_coefficients(RotationFamily(20.0), 15)
        assert len(c.coeffs) == 8
        direct = phi_real_t(RotationFamily(20.0), 0.1, 1e-13)
        assert c.evaluate(0.1) == pytest.approx(direct.value, abs=1e-15)

    def test_rejects_bad_order(self):
        fam = RotationFamily(0.228)
        for K in (0, -3, 2, 13.0, 17, True, np.int64(12), np.float64(11.0)):
            with pytest.raises(ValueError):
                mehler_coefficients(fam, K)

    @pytest.mark.parametrize("K", [np.int64(11), np.int32(11), np.uint8(11)])
    def test_accepts_numpy_integer_order(self, K):
        fam = RotationFamily(0.228)
        assert mehler_coefficients(fam, K) == mehler_coefficients(fam, 11)


class TestReversion:
    def test_identity(self):
        s = OddSeries((1.0, 0.0, 0.0, 0.0))
        assert revert_odd_series(s).coeffs == pytest.approx(s.coeffs, abs=1e-15)

    def test_sin_reverts_to_arcsin(self):
        b = revert_odd_series(sin_series(15))
        for got, a in zip(b.coeffs, arcsin_series(15).coeffs):
            assert got == pytest.approx(a, rel=1e-12)

    def test_arcsin_reverts_to_sin(self):
        b = revert_odd_series(arcsin_series(15))
        for got, ref in zip(b.coeffs, sin_series(15).coeffs):
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-15)

    def test_scaling_rule(self):
        # reverting c(t) = a t gives b(s) = s / a
        s = OddSeries((4.0, 0.0))
        b = revert_odd_series(s)
        assert b.coeffs[0] == pytest.approx(0.25, abs=1e-16)
        assert b.coeffs[1] == 0.0

    def test_reference_values(self):
        # worst measured gap 1.3e-15, at b_11
        c = OddSeries(C_REF_228)
        b = revert_odd_series(c)
        for got, ref in zip(b.coeffs, B_REF_228):
            assert abs(got - ref) <= 3e-15

    def test_rejects_zero_leading(self):
        with pytest.raises(ValueError):
            revert_odd_series(OddSeries((0.0, 1.0)))

    @given(
        st.tuples(
            st.floats(0.5, 2.0),
            st.floats(-0.3, 0.3),
            st.floats(-0.3, 0.3),
            st.floats(-0.3, 0.3),
        )
    )
    def test_round_trip_composition(self, coeffs):
        c = OddSeries(coeffs)
        b = revert_odd_series(c)
        rt = compose_odd(c, b)
        # b(c(t)) = t through order 7
        assert rt.coeffs[0] == pytest.approx(1.0, abs=1e-11)
        for higher in rt.coeffs[1:]:
            assert abs(higher) < 1e-10 * max(1.0, max(abs(x) for x in b.coeffs))

    def test_double_reversion_restores(self):
        c = OddSeries(C_REF_228)
        back = revert_odd_series(revert_odd_series(c))
        for got, ref in zip(back.coeffs, c.coeffs):
            assert got == pytest.approx(ref, rel=1e-12)


class TestAlternationCheck:
    def test_sin_alternates(self):
        verdict = alternation_check(sin_series(11))
        assert verdict.alternating
        assert verdict.first_violation is None
        assert verdict.signs == ("+", "-", "+", "-", "+", "-")

    def test_all_positive_fails_at_three(self):
        verdict = alternation_check(OddSeries((1.0, 1.0, 1.0)))
        assert not verdict.alternating
        assert verdict.first_violation == 3
        assert verdict.signs == ("+", "+", "+")

    def test_zero_counts_as_violation(self):
        verdict = alternation_check(OddSeries((1.0, 0.0, 0.1)))
        assert not verdict.alternating
        assert verdict.first_violation == 3
        assert verdict.signs[1] == "0"

    def test_rotation_family_not_alternating(self):
        c = mehler_coefficients(RotationFamily(0.228), 11)
        verdict = alternation_check(revert_odd_series(c))
        assert not verdict.alternating
        assert verdict.first_violation == 5
        assert verdict.signs == ("+", "-", "-", "+", "-", "+")

    def test_eta_zero_alternates_and_matches_sine(self):
        c = mehler_coefficients(RotationFamily(0.0), 11)
        b = revert_odd_series(c)
        verdict = alternation_check(b)
        assert verdict.alternating
        # the inverse of (2/pi) arcsin is sin(pi s / 2)
        for got, ref in zip(b.coeffs, SIN_HALF_PI_COEFFS):
            assert got == pytest.approx(ref, rel=1e-9)

    def test_verdict_record(self):
        v = AlternationVerdict(False, 5, ("+", "-", "-"))
        assert v.first_violation == 5


class TestConditionalBound:
    def test_reference_value(self):
        v = phi_i_bessel(RotationFamily(0.228)).value
        bound = conditional_bound(v)
        assert bound == pytest.approx(1.7805808750750804715, abs=1e-9)
        assert 1.7805 < bound < 1.7806

    def test_threshold_gives_krivine(self):
        assert conditional_bound(THRESHOLD) == pytest.approx(KRIVINE_BOUND, rel=1e-15)

    def test_unit(self):
        assert conditional_bound(1.0) == 1.0

    def test_rejects_non_positive(self):
        for v in (0.0, -0.3):
            with pytest.raises(ValueError):
                conditional_bound(v)
