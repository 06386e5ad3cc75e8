"""Special functions and quadrature: checks against independent oracles.

The Bessel oracle is the defining power series evaluated in 50-digit
arithmetic (mpmath), so it stays meaningful in the cancellation regime
x ~ 50 where a float64 series loses all accuracy.  The gamma oracles are
the factorial recursion and the reflection identity gamma(0.5)^2 = pi.
Quadrature rules are checked against closed-form monomial integrals.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmholtz_lab.numerics import (
    QuadratureRule,
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
    ], ids=["above_60", "minus_one", "below_minus_one", "negative_at_zero",
            "empty", "two_d", "nan_in_ladder", "nan"])
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
