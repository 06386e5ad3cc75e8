"""Special functions and quadrature: checks against independent oracles.

The Bessel oracle is the defining power series evaluated in 50-digit
arithmetic (mpmath), so it stays meaningful in the cancellation regime
x ~ 50 where a float64 series loses all accuracy.  The gamma oracles are
the factorial recursion and the reflection identity gamma(0.5)^2 = pi.
Quadrature rules are checked against closed-form monomial integrals.
"""

import math
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmholtz_lab.numerics import (
    _MAX_FRAC_ORDER,
    QuadratureRule,
    _bessel_miller,
    _miller_start,
    bessel_j,
    gamma,
    gauss_interval,
    oscillatory_degree,
    quad_triangle,
)


def series_oracle(order, x, terms=None, dps=None):
    """Power series sum_m (-1)^m (x/2)^(2m+order) / (m! Gamma(m+order+1)).

    Working precision grows with x because the partial sums reach
    ~exp(x) before cancelling down to O(1).
    """
    if dps is None:
        dps = 50 + int(x)
    if terms is None:
        terms = 120 + int(3 * x)
    with mpmath.workdps(dps):
        nu = mpmath.mpf(order) if not isinstance(order, str) else mpmath.mpf(order)
        xx = mpmath.mpf(x)
        half = xx / 2
        total = mpmath.mpf(0)
        for m in range(terms):
            term = (-1) ** m * half ** (2 * m + nu) / (
                mpmath.factorial(m) * mpmath.gamma(m + nu + 1)
            )
            total += term
        return float(total)


class TestGamma:
    def test_half_integer_reflection(self):
        # Gamma(0.5)^2 = pi by the reflection identity.
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_factorials(self):
        for n in range(1, 21):
            assert gamma(n) == pytest.approx(math.factorial(n - 1), rel=1e-12)

    def test_recursion_property(self):
        # Gamma(x+1) = x Gamma(x) on a seeded sample of the positive axis.
        rng = np.random.default_rng(7)
        for x in rng.uniform(0.05, 40.0, size=50):
            assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)

    def test_against_reference_grid(self):
        for x in np.linspace(0.1, 50.0, 173):
            ref = float(mpmath.gamma(x))
            assert gamma(float(x)) == pytest.approx(ref, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gamma(0.0)
        with pytest.raises(ValueError):
            gamma(-1.5)

    @pytest.mark.parametrize("x", [141.9, 142.0, 142.5, 143.0, 157.25,
                                   171.0, 171.62])
    def test_large_arguments_stay_finite(self, x):
        # t ** (z + 0.5) alone overflows from x = 142.5, Gamma only past
        # 171.6244
        assert gamma(x) == pytest.approx(float(mpmath.gamma(x)), rel=1e-12)

    @pytest.mark.parametrize("x", [171.63, 200.0, math.inf, math.nan])
    def test_overflowing_arguments_raise_naming_x(self, x):
        with pytest.raises(ValueError, match=f"got {x}"):
            gamma(x)


class TestBesselInteger:
    def test_small_argument_series(self):
        # bessel_j(0, 1) against the 40-term power-series oracle.
        assert bessel_j(0, 1.0) == pytest.approx(series_oracle(0, 1.0, terms=40), rel=1e-13)

    def test_oracle_grid(self):
        xs = [0.1, 0.5, 1.0, 2.0, 5.0, 8.0, 8.5, 12.0, 20.0, 35.0, 50.0]
        for n in [0, 1, 2, 3, 5, 8, 13, 20]:
            for x in xs:
                assert bessel_j(n, x) == pytest.approx(
                    series_oracle(n, x), abs=1e-12
                ), f"J_{n}({x})"

    def test_high_order(self):
        # Orders up to 60; the values underflow fast, absolute tolerance.
        for n in [30, 45, 60]:
            for x in [1.0, 10.0, 40.0, 60.0, 120.0, 200.0]:
                ref = series_oracle(n, x)
                assert bessel_j(n, x) == pytest.approx(ref, abs=1e-9), f"J_{n}({x})"

    def test_large_argument(self):
        for x in [60.0, 100.0, 200.0]:
            for n in [0, 1, 7]:
                ref = series_oracle(n, x)
                assert bessel_j(n, x) == pytest.approx(ref, abs=1e-9)

    def test_normalization_identity(self):
        # J_0(x)^2 + 2 sum_{n>=1} J_n(x)^2 = 1
        for x in np.linspace(0.5, 20.0, 14):
            s = bessel_j(0, x) ** 2 + 2.0 * sum(
                bessel_j(n, x) ** 2 for n in range(1, 41)
            )
            assert s == pytest.approx(1.0, abs=1e-10)

    def test_recurrence(self):
        # J_{n-1}(x) + J_{n+1}(x) = (2n/x) J_n(x)
        for x in [0.7, 3.3, 17.0]:
            for n in range(1, 12):
                lhs = bessel_j(n - 1, x) + bessel_j(n + 1, x)
                assert lhs == pytest.approx(2 * n / x * bessel_j(n, x), abs=1e-11)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(0.0, 30.0, 57)
        vals = bessel_j(3, xs)
        assert vals.shape == xs.shape
        for x, v in zip(xs, vals):
            assert v == pytest.approx(bessel_j(3, float(x)), abs=1e-14)

    def test_x_zero(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(4, 0.0) == 0.0


class TestBesselFractional:
    def test_two_thirds(self):
        for x in [0.05, 0.8, 2.0, 7.0, 15.0, 30.0, 50.0]:
            assert bessel_j(2.0 / 3.0, x) == pytest.approx(
                series_oracle(mpmath.mpf(2) / 3, x), abs=1e-12
            )

    def test_minus_one_third(self):
        # Needed by the gradient of the corner-singular solution.
        for x in [0.05, 0.8, 2.0, 7.0, 15.0, 30.0, 50.0]:
            assert bessel_j(-1.0 / 3.0, x) == pytest.approx(
                series_oracle(mpmath.mpf(-1) / 3, x), abs=1e-12
            )

    def test_five_thirds(self):
        for x in [0.3, 4.0, 25.0]:
            assert bessel_j(5.0 / 3.0, x) == pytest.approx(
                series_oracle(mpmath.mpf(5) / 3, x), abs=1e-12
            )

    def test_closed_form_half(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x
        for x in [0.4, 3.0, 22.0]:
            ref = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
            assert bessel_j(0.5, x) == pytest.approx(ref, abs=1e-12)

    def test_derivative_identity(self):
        # J_nu'(x) = (J_{nu-1}(x) - J_{nu+1}(x)) / 2 against central differences.
        nu = 2.0 / 3.0
        for x in [1.0, 6.0, 18.0]:
            h = 1e-6
            fd = (bessel_j(nu, x + h) - bessel_j(nu, x - h)) / (2 * h)
            ident = 0.5 * (bessel_j(nu - 1.0, x) - bessel_j(nu + 1.0, x))
            assert ident == pytest.approx(fd, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bessel_j(0, -1.0)
        with pytest.raises(ValueError):
            bessel_j(-2, 1.0)
        with pytest.raises(ValueError):
            bessel_j(-1.5, 1.0)
        with pytest.raises(ValueError):
            bessel_j(-1.0 / 3.0, 0.0)

    @pytest.mark.parametrize("nu", [_MAX_FRAC_ORDER, 12.5, 7.25],
                             ids=["cap", "12.5", "7.25"])
    def test_orders_up_to_the_cap_match_mpmath_on_mixed_arrays(self, nu):
        # The recurrence starts from the largest argument of a call, so an
        # argument near 9 next to 1e4 sees the largest Neumann weights
        # times the fastest growth; warnings are errors in this suite.
        x = np.array([1e-3, 1.0, 9.0, 9.01, 50.0, 1e3, 1e4])
        for pts in (x, np.array([9.01, 1e4]), np.array([50.0, 1e4])):
            want = [float(mpmath.besselj(nu, v)) for v in pts]
            np.testing.assert_allclose(bessel_j(nu, pts), want, rtol=0,
                                       atol=1e-10)


def one_order_series(nu, x):
    """The power series for one order with a scalar exponent, as a
    one-order bessel_j call computes it for 0 <= x <= 9."""
    half2 = (0.5 * x) ** 2
    term = np.ones_like(x)
    total = np.ones_like(x)
    for m in range(1, 80):
        term = term * (-half2) / (m * (m + nu))
        total = total + term
        if np.all(np.abs(term) <= 1e-20 * np.maximum(np.abs(total), 1e-280)):
            break
    out = np.where(x > 0.0, 0.0, 1.0 if nu == 0.0 else 0.0)
    pos = x > 0.0
    out[pos] = np.power(0.5 * x[pos], nu) * total[pos] / gamma(nu + 1.0)
    return out


# Fixed example sequence, no example database: tier-1 runs stay the same.
LADDER_SETTINGS = settings(derandomize=True, deadline=None, database=None,
                           max_examples=60)

series_x = st.floats(0.0, 9.0)
miller_x = st.floats(9.0, 60.0, exclude_min=True)


@st.composite
def ladders(draw):
    """An integer ladder within 0..60 or a fractional one starting above
    -1, with x on the series branch, the recurrence branch or both."""
    if draw(st.booleans()):
        lo = draw(st.integers(0, 60))
        orders = list(range(lo, draw(st.integers(lo, 60)) + 1))
    else:
        start = draw(st.floats(-0.99, 4.0).filter(
            lambda v: not float(v).is_integer()))
        orders = [start + i for i in range(draw(st.integers(1, 8)))]
    regime = draw(st.sampled_from(["series", "miller", "mixed"]))
    points = {"series": series_x, "miller": miller_x,
              "mixed": st.one_of(series_x, miller_x)}[regime]
    x = draw(st.lists(points, min_size=1, max_size=40))
    if orders[0] >= 0.0 and draw(st.booleans()):
        x += [0.0, 0.0]
    return orders, np.array(x)


class TestBesselLadder:
    @LADDER_SETTINGS
    @given(ladders())
    def test_rows_bitwise_equal_single_order_calls(self, case):
        orders, x = case
        rows = bessel_j(orders, x)
        assert rows.shape == (len(orders),) + x.shape
        for row, nu in zip(rows, orders):
            assert row.tobytes() == bessel_j(nu, x).tobytes()

    def test_order_two_keeps_scalar_exponent(self):
        # np.power with a broadcast column of exponents rounds order 2
        # differently from the scalar exponent at about 5% of points
        x = np.random.default_rng(0).uniform(0.0, 9.0, 400)
        want = one_order_series(2.0, x)
        assert bessel_j([0, 1, 2, 3], x)[2].tobytes() == want.tobytes()
        assert bessel_j(2, x).tobytes() == want.tobytes()

    def test_twelve_order_ladder_on_a_batch_of_points(self):
        # the in-place series, tested for convergence every few terms,
        # against the plain one, at the size of one error-pass batch
        x = np.random.default_rng(3).uniform(0.0, 9.0, 16_384)
        x[:3] = 0.0, 1e-300, 9.0
        rows = bessel_j(range(12), x)
        for nu, row in enumerate(rows):
            assert row.tobytes() == one_order_series(float(nu), x).tobytes()
        fractional = [2.0 / 3.0 + i for i in range(12)]
        for nu, row in zip(fractional, bessel_j(fractional, x)):
            assert row.tobytes() == one_order_series(nu, x).tobytes()

    def test_shapes(self):
        x = np.linspace(0.0, 20.0, 12).reshape(3, 4)
        assert bessel_j(range(5), x).shape == (5, 3, 4)
        assert bessel_j((0.5, 1.5), 2.0).shape == (2,)
        one = bessel_j(np.array([3]), x)
        assert one[0].tobytes() == bessel_j(3, x).tobytes()
        assert bessel_j(np.float64(1.0), x).shape == (3, 4)
        assert isinstance(bessel_j(1, 2.0), float)

    @pytest.mark.parametrize("orders, x, message", [
        ([0, 1, 61], 1.0, "integer order 61"),
        ([0.5, -1.0], 1.0, "integer order -1"),
        ([0.5, -1.5], 1.0, "order -1.5"),
        ([2.0 / 3.0, -1.0 / 3.0], [1.0, 0.0], "negative order -0.333"),
        ([], 1.0, r"shape \(0,\)"),
        ([[0, 1], [2, 3]], 1.0, r"shape \(2, 2\)"),
        ([0, float("nan")], 1.0, "order nan"),
        (float("nan"), 1.0, "order nan"),
        ([12.5, 30.5], [50.0, 1e4], "order 30.5"),
        (100.5, 10.0, "order 100.5"),
        (150.5, 5.0, "order 150.5"),
        (_MAX_FRAC_ORDER + 0.01, 1.0, f"order {_MAX_FRAC_ORDER + 0.01}"),
    ], ids=["above_60", "minus_one", "below_minus_one", "negative_at_zero",
            "empty", "two_d", "nan_in_ladder", "nan", "fractional_30.5",
            "fractional_100.5", "fractional_150.5", "above_the_cap"])
    def test_bad_orders_raise_before_allocating(self, orders, x, message):
        big = np.full(200_000, 1.0)
        if np.ndim(x):
            big[-1] = 0.0
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                bessel_j(orders, big)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one row of the result would be 1.6 MB
        assert peak < big.nbytes // 4
        with pytest.raises(ValueError, match=message):
            bessel_j(orders, x)

    @pytest.mark.parametrize("order", [0, 2.0 / 3.0, [0, 1, 2]],
                             ids=["integer", "fractional", "ladder"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "minus_inf"])
    def test_non_finite_x_raises_before_allocating(self, order, bad):
        message = f"finite x, got {bad}"
        with pytest.raises(ValueError, match=message):
            bessel_j(order, bad)
        # a mixed array: finite values on both sides of the series cutoff
        mixed = np.full(200_000, 1.0)
        mixed[::2] = 30.0
        mixed[-3] = bad
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                bessel_j(order, mixed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < mixed.nbytes // 4


def miller_int(n, x):
    """Downward recurrence for integer order n, normalized by
    J_0 + 2 sum_m J_{2m} = 1 with the even rungs summed plainly and
    doubled at the end."""
    m_top = _miller_start(n, float(np.max(x)))
    jp = np.zeros_like(x)
    jc = np.full_like(x, 1e-30)
    target = jc.copy() if n == m_top else np.zeros_like(x)
    even_sum = jc.copy()
    for m in range(m_top, 0, -1):
        jm1 = (2.0 * m / x) * jc - jp
        jp, jc = jc, jm1
        mm = m - 1
        if mm == n:
            target = jc.copy()
        if mm >= 2 and mm % 2 == 0:
            even_sum = even_sum + jc
        hot = np.abs(jc) > 1e250
        if np.any(hot):
            scale = np.where(hot, 1e-250, 1.0)
            jc = jc * scale
            jp = jp * scale
            even_sum = even_sum * scale
            target = target * scale
    return target / (jc + 2.0 * even_sum)


def miller_frac(nu, x):
    """Downward recurrence on the ladder nu+m for a fractional order,
    normalized by (x/2)^nu = sum_k c_k J_{nu+2k}."""
    m_top = _miller_start(abs(nu) + 1.0, float(np.max(x)))
    n_k = m_top // 2 + 1
    coeff = np.empty(n_k)
    coeff[0] = gamma(nu + 1.0)
    ratio = gamma(nu + 1.0)
    for k in range(1, n_k):
        if k > 1:
            ratio = ratio * (nu + k - 1.0) / k
        coeff[k] = (nu + 2.0 * k) * ratio
    jp = np.zeros_like(x)
    jc = np.full_like(x, 1e-30)
    target = np.zeros_like(x)
    ssum = coeff[m_top // 2] * jc
    for m in range(m_top, 0, -1):
        jm1 = (2.0 * (nu + m) / x) * jc - jp
        jp, jc = jc, jm1
        mm = m - 1
        if mm == 0:
            target = jc.copy()
        if mm % 2 == 0 and mm > 0:
            ssum = ssum + coeff[mm // 2] * jc
        hot = np.abs(jc) > 1e250
        if np.any(hot):
            scale = np.where(hot, 1e-250, 1.0)
            jc = jc * scale
            jp = jp * scale
            ssum = ssum * scale
            target = target * scale
    ssum = ssum + coeff[0] * target
    return target * np.power(0.5 * x, nu) / ssum


class TestMillerRecurrence:
    # One recurrence serves both normalizations with the bits of the two
    # recurrences it replaced: the integer weights (1, 2, 2, ...) double
    # exactly, (x/2)^0 is 1 and 2 (0 + m) is 2m.
    @LADDER_SETTINGS
    @given(st.one_of(st.integers(0, 60).map(float),
                     st.sampled_from([2.0 / 3.0, -1.0 / 3.0, 5.0 / 3.0, 0.5,
                                      7.25]),
                     st.floats(-0.99, 12.0).filter(
                         lambda v: not float(v).is_integer())),
           st.lists(st.floats(9.0, 1e3, exclude_min=True), min_size=1,
                    max_size=30))
    def test_bitwise_equal_to_separate_recurrences(self, nu, x):
        x = np.array(x)
        want = miller_int(int(nu), x) if nu.is_integer() else miller_frac(nu, x)
        assert _bessel_miller(nu, x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("nu, x, rescales", [
        (7.25, [9.01, 1000.0], 8),
        (3.0, [9.5, 2000.0, 40.0], 31),
    ])
    def test_rescales_at_the_same_steps(self, nu, x, rescales):
        # The recurrence skips the |jc| > 1e250 test while its growth
        # bound rules a rescale out; each rescale is one np.where call.
        x = np.array(x)
        reference = miller_int if nu.is_integer() else miller_frac
        with mock.patch.object(np, "where", wraps=np.where) as where:
            want = reference(int(nu) if nu.is_integer() else nu, x)
        assert where.call_count == rescales
        with mock.patch.object(np, "where", wraps=np.where) as where:
            got = _bessel_miller(nu, x)
        assert where.call_count == rescales
        assert got.tobytes() == want.tobytes()


class TestGaussInterval:
    def test_midpoint_rule(self):
        rule = gauss_interval(1)
        assert rule.points == pytest.approx([0.5])
        assert rule.weights == pytest.approx([1.0])

    def test_monomial_exactness(self):
        # Degree-by-degree: rule with n points is exact through degree 2n-1.
        for n in [1, 2, 3, 5, 8, 13, 32, 64]:
            rule = gauss_interval(n)
            assert rule.exactness_degree == 2 * n - 1
            for d in range(0, 2 * n):
                approx = np.sum(rule.weights * rule.points**d)
                assert approx == pytest.approx(1.0 / (d + 1), abs=1e-13), (n, d)

    def test_weight_sum(self):
        for n in range(1, 65):
            rule = gauss_interval(n)
            assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-14)
            assert np.all(rule.weights > 0)
            assert np.all((rule.points > 0) & (rule.points < 1))

    def test_oscillatory_integral(self):
        # int_0^1 cos(40 x) dx = sin(40)/40 with an oscillation-boosted rule.
        deg = oscillatory_degree(2, 40.0, 1.0)
        n = max(1, min(64, (deg + 2) // 2 + 8))
        rule = gauss_interval(n)
        val = np.sum(rule.weights * np.cos(40.0 * rule.points))
        assert val == pytest.approx(math.sin(40.0) / 40.0, abs=1e-10)

    def test_bounds(self):
        with pytest.raises(ValueError):
            gauss_interval(0)
        with pytest.raises(ValueError):
            gauss_interval(65)


class TestQuadTriangle:
    @staticmethod
    def exact_monomial(a, b):
        # int_T x^a y^b over the reference triangle = a! b! / (a+b+2)!
        return (
            math.factorial(a)
            * math.factorial(b)
            / math.factorial(a + b + 2)
        )

    def test_area(self):
        rule = quad_triangle(1)
        assert np.sum(rule.weights) == pytest.approx(0.5, abs=1e-14)

    def test_monomials_through_degree(self):
        for degree in [1, 2, 3, 5, 8, 10, 14, 20]:
            rule = quad_triangle(degree)
            assert rule.exactness_degree >= degree
            for a in range(degree + 1):
                for b in range(degree + 1 - a):
                    approx = np.sum(
                        rule.weights * rule.points[:, 0] ** a * rule.points[:, 1] ** b
                    )
                    assert approx == pytest.approx(
                        self.exact_monomial(a, b), abs=1e-13
                    ), (degree, a, b)

    def test_x5y5(self):
        rule = quad_triangle(10)
        approx = np.sum(rule.weights * rule.points[:, 0] ** 5 * rule.points[:, 1] ** 5)
        assert approx == pytest.approx(
            math.factorial(5) ** 2 / math.factorial(12), rel=1e-12
        )

    def test_points_inside(self):
        rule = quad_triangle(12)
        x, y = rule.points[:, 0], rule.points[:, 1]
        assert np.all(x > 0) and np.all(y >= 0) and np.all(x + y < 1 + 1e-12)
        assert np.all(rule.weights > 0)

    def test_bounds(self):
        with pytest.raises(ValueError):
            quad_triangle(0)
        with pytest.raises(ValueError):
            quad_triangle(41)


class TestOscillatoryDegree:
    def test_monotone_in_kh(self):
        assert oscillatory_degree(2, 10.0, 0.1) <= oscillatory_degree(2, 10.0, 0.5)
        assert oscillatory_degree(3, 0.0, 1.0) == 3

    def test_formula(self):
        # ceil(d + factor*k*h) with the documented default factor 1.5
        assert oscillatory_degree(2, 10.0, 1.0) == 17
        assert oscillatory_degree(1, 4.0, 0.5) == 4
