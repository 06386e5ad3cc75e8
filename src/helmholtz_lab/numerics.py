"""Scalar special functions and quadrature rules.

Self-contained Bessel J and Gamma implementations (downward Miller
recurrence with sum normalization, Lanczos approximation) so that basis
evaluations do not depend on an external special-function library, plus
Gauss-Legendre rules on [0, 1] and collapsed tensor rules on the
reference triangle.

The Bessel kernels keep their bits: the power series and the recurrence
run in place, with the operations of each point in a fixed order, so a
row of a ladder of orders equals the call with that order alone, and a
kernel rewritten for speed must equal the one it replaces bit for bit
(the tests pin both against plain references).  The series tests its
convergence every few terms and the recurrence tests for rescaling only
once an a-priori bound allows it; neither changes a result.  Refused,
with a ValueError naming the value before anything is allocated: integer
orders outside 0..60, non-integer orders outside (-1, 14.5], where the
Neumann normalization of the recurrence overflows, a negative order at
x = 0, and non-finite or negative x.  gamma refuses x outside
(0, 171.62], where Gamma overflows a double.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadratureRule",
    "bessel_j",
    "gamma",
    "gauss_interval",
    "quad_triangle",
    "oscillatory_degree",
]

_MAX_INT_ORDER = 60
# Largest non-integer order.  The Neumann weights grow like k^(nu-1) up to
# k = m_top/2 ~ x_max/2, and the recurrence values up to ~1e253 before a
# rescale; their products overflow for large orders.  On a grid of orders
# up to 14.89, every call matched mpmath to 1e-10 absolute without a
# warning, for x in (0, 1e4] alone and in mixed arrays, and 14.9
# overflows for x = [9.01, 1e4].  The worst case of the bound, x_min just
# above 9 with x_max = 1e4, passes the largest double from 14.75.
_MAX_FRAC_ORDER = 14.5
_SERIES_CUTOFF = 9.0  # below this the power series keeps ~13 digits
_SERIES_CHECK = 4  # terms between convergence tests of the series

# Lanczos g=7, 9 coefficients (double precision set).
_LANCZOS_G = 7.0
_GAMMA_MAX = 171.62  # Gamma(x) passes the largest double at x = 171.6244
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


@dataclass(frozen=True)
class QuadratureRule:
    """Points, weights and the polynomial degree integrated exactly."""

    points: np.ndarray
    weights: np.ndarray
    exactness_degree: int


def gamma(x):
    """Gamma function on the positive real axis (Lanczos, g=7).

    Refuses x outside (0, _GAMMA_MAX], Gamma overflowing a double above
    it, with a ValueError naming x.
    """
    x = float(x)
    if not 0.0 < x <= _GAMMA_MAX:
        raise ValueError(f"gamma requires 0 < x <= {_GAMMA_MAX}, got {x}")
    if x < 0.5:
        # reflection keeps the Lanczos sum in its accurate range
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, 9):
        acc += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    if x < 142.0:
        return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc
    # t ** (z + 0.5) overflows from x = 142.5 on: take it in two halves
    root = t ** (0.5 * (z + 0.5))
    return math.sqrt(2.0 * math.pi) * root * math.exp(-t) * root * acc


def bessel_j(order, x):
    """Bessel function of the first kind J_order(x) for finite x >= 0.

    Supported orders: integers 0..60 and non-integer real orders in
    (-1, 14.5] (fractional orders appear in corner-singular solutions);
    fractional orders are checked against x up to 1e4.  Scalar or
    array x.  Small arguments (x <= 9) use the power series; larger
    arguments use downward recurrence normalized either by the even-order
    sum identity (integer order) or by the Neumann series for (x/2)^order
    (fractional order), which avoids the catastrophic series cancellation
    at x >> 1.

    `order` may also be a non-empty 1-D sequence of orders (a ladder such
    as 0..p+1); the result then carries the orders along a new leading
    axis, shape (len(order),) + x.shape.  Every row is bitwise equal to
    the call with that order alone on the same x: the series runs once
    for all orders, and the recurrence, whose start depends on the order
    and the largest argument above 9, runs per order as in a scalar call.
    Orders and arguments are checked before anything is allocated: a bad
    order or a non-finite x raises ValueError naming it, and a negative x
    raises ValueError.
    """
    ladder = np.ndim(order) > 0
    orders = _checked_orders(order)
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
    if not np.isfinite(flat).all():
        bad = flat[np.argmin(np.isfinite(flat))]
        raise ValueError(f"bessel_j requires finite x, got {bad}")
    if np.any(flat < 0.0):
        raise ValueError("bessel_j requires x >= 0")
    negative = [nu for nu in orders if nu < 0.0]
    if negative and np.any(flat == 0.0):
        raise ValueError(f"bessel_j diverges at x = 0 for negative order "
                         f"{negative[0]}")

    out = np.empty((len(orders), flat.size))
    small = flat <= _SERIES_CUTOFF
    if np.any(small):
        out[:, small] = _bessel_series(orders, flat[small])
    if not np.all(small):
        big = ~small
        points = flat[big]
        for row, nu in zip(out, orders):
            row[big] = _bessel_miller(nu, points)

    if ladder:
        return out.reshape((len(orders),) + arr.shape)
    if arr.ndim == 0:
        return float(out[0, 0])
    return out[0].reshape(arr.shape)


def _expi(theta):
    """e^{i theta} for a real array theta, written from cos(theta) and
    sin(theta) into one complex array.

    It skips the complex argument 1j*theta and the complex exponential;
    with NumPy 2.4 on x86-64 it equals np.exp(1j * theta) bit for bit
    (a tier-1 test checks this, negative phases included).  The sine
    takes theta + 0.0, which turns theta = -0 into +0 as the imaginary
    part 0*0 + 1*theta of 1j*theta does.
    """
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta + 0.0, out=out.imag)
    return out


def _bessel_ladder_slabs(orders, x):
    """bessel_j(orders, row) for every row of the 2-D array x, stacked as
    (len(orders),) + x.shape.

    The series points of all rows go through one bessel_j call.  The
    recurrence starts from the largest argument above 9 of a call, so a
    row with such arguments gets its own call on them alone: every row
    equals a bessel_j call on that row.
    """
    out = np.empty((len(orders),) + x.shape)
    series = x <= _SERIES_CUTOFF
    if np.any(series):
        out[:, series] = bessel_j(orders, x[series])
    for s in np.flatnonzero(~series.all(axis=1)):
        miller = ~series[s]
        out[:, s, miller] = bessel_j(orders, x[s, miller])
    return out


def _checked_orders(order):
    """The orders of a bessel_j call as Python floats; raises ValueError
    naming the first unsupported one."""
    nus = np.asarray(order, dtype=float)
    if nus.ndim > 1 or nus.size == 0:
        raise ValueError(f"bessel_j takes a scalar order or a non-empty 1-D "
                         f"sequence of orders, got shape {nus.shape}")
    orders = [float(nu) for nu in nus.ravel()]
    for nu in orders:
        if not math.isfinite(nu):
            raise ValueError(f"unsupported order {nu}")
        if nu.is_integer():
            if nu < 0.0 or nu > _MAX_INT_ORDER:
                raise ValueError(f"unsupported integer order {int(nu)}")
        elif nu <= -1.0:
            raise ValueError(f"unsupported order {nu}")
        elif nu > _MAX_FRAC_ORDER:
            raise ValueError(f"unsupported order {nu}: non-integer orders "
                             f"above {_MAX_FRAC_ORDER} overflow the Neumann "
                             f"normalization")
    return orders


def _bessel_series(orders, x):
    """Defining power series for every order at every x, rows following
    `orders`; reliable for x <= ~9.

    The recurrence runs in place until every point of every order has
    converged, tested every _SERIES_CHECK terms.  A term added after a
    point converged is below 1e-20 of its sum, so it leaves the double
    unchanged, and m*(m+nu) rounds the same for a scalar nu and a column
    of orders: each row equals a one-order call.
    """
    nu_col = np.array(orders)[:, None]
    neg_half2 = -((0.5 * x) ** 2)
    term = np.ones((len(orders), x.size))
    total = np.ones_like(term)
    size, bound = np.empty_like(term), np.empty_like(term)
    done = np.empty(term.shape, dtype=bool)
    for m in range(1, 80):
        term *= neg_half2
        term /= m * (m + nu_col)
        total += term
        if m % _SERIES_CHECK == 0:
            np.abs(total, out=bound)
            np.maximum(bound, 1e-280, out=bound)
            bound *= 1e-20
            if np.less_equal(np.abs(term, out=size), bound, out=done).all():
                break
    # One order at a time with a Python-float exponent: np.power with a
    # broadcast array of exponents rounds differently (order 2 by 1 ulp).
    # At x = 0 the power is 0, or 1 for order 0 (a negative order is
    # refused there), and the row is set to the limit.
    half_x = 0.5 * x
    zero = np.flatnonzero(x == 0.0)
    for row, nu in zip(total, orders):
        row *= np.power(half_x, nu, out=size[0])
        row /= gamma(nu + 1.0)
        row[zero] = 1.0 if nu == 0.0 else 0.0
    return total


def _miller_start(order, xmax):
    top = max(order, xmax)
    m = int(math.ceil(top)) + 20 + 2 * int(math.ceil(math.sqrt(top + 1.0)))
    return m + (m % 2)


def _bessel_miller(nu, x):
    """J_nu(x) from one downward recurrence on the orders base+m, m from
    m_top down to 0, normalized by sum_k w_k J_{base+2k} = (x/2)^base.

    An integer order n runs on base 0 and keeps rung n, with weights
    (1, 2, 2, ...) (J_0 + 2 sum_m J_{2m} = 1); a fractional order runs on
    base nu and keeps rung 0, with the Neumann coefficients
    w_k = (nu+2k) Gamma(nu+k)/k!.  For an integer order the doubled
    weights, (x/2)^0 = 1 and 2 (0 + m) = 2m are all exact, so it gets the
    bits of the sum of plain even rungs doubled at the end.
    """
    xmax = float(np.max(x))
    if nu.is_integer():
        base, rung = 0.0, int(nu)
        m_top = _miller_start(rung, xmax)
        weights = np.full(m_top // 2 + 1, 2.0)
        weights[0] = 1.0
    else:
        base, rung = nu, 0
        m_top = _miller_start(abs(nu) + 1.0, xmax)
        weights = np.empty(m_top // 2 + 1)
        weights[0] = gamma(nu + 1.0)
        ratio = gamma(nu + 1.0)  # Gamma(nu+k)/k!, starting at k=1
        for k in range(1, len(weights)):
            if k > 1:
                ratio = ratio * (nu + k - 1.0) / k
            weights[k] = (nu + 2.0 * k) * ratio
    # In place on two rotating buffers and a scratch one.  |jc| and |jp|
    # stay below `growth`, which starts at 1e-30 and grows by
    # 2|base+m|/x_min + 1 a step.  Until it passes 1e240 (a margin of
    # 1e10 for the rounding of the recurrence) no point can pass 1e250
    # and the rescale test is skipped; from then on it runs every step,
    # so each rescale happens at the step where it would with a test at
    # every step.
    xmin = float(np.min(x))
    jp = np.zeros_like(x)  # unnormalized J_{base+m+1}
    jc = np.full_like(x, 1e-30)  # unnormalized J_{base+m_top}
    step = np.empty_like(x)
    hot = np.empty(x.shape, dtype=bool)
    target = np.zeros_like(x)
    ssum = weights[m_top // 2] * jc  # m_top is even by construction
    growth = 1e-30
    for m in range(m_top, 0, -1):
        twice = 2.0 * (base + m)
        np.divide(twice, x, out=step)
        step *= jc
        np.subtract(step, jp, out=jp)
        jp, jc = jc, jp
        mm = m - 1
        if mm == rung:
            np.copyto(target, jc)
        if mm % 2 == 0 and mm > 0:
            ssum += np.multiply(jc, weights[mm // 2], out=step)
        growth *= abs(twice) / xmin + 1.0
        if growth > 1e240 and np.greater(np.abs(jc, out=step), 1e250,
                                         out=hot).any():
            scale = np.where(hot, 1e-250, 1.0)
            jc *= scale
            jp *= scale
            ssum *= scale
            target *= scale
    ssum += np.multiply(jc, weights[0], out=step)  # jc: unnormalized J_base
    if base:  # (x/2)^0 is 1
        target *= np.power(0.5 * x, base)
    target /= ssum
    return target


@functools.lru_cache(maxsize=256)
def gauss_interval(n):
    """Gauss-Legendre rule with n points on [0, 1]; exact through 2n-1."""
    if not 1 <= n <= 64:
        raise ValueError(f"gauss_interval supports 1 <= n <= 64, got {n}")
    xi, w = np.polynomial.legendre.leggauss(n)
    pts = 0.5 * (xi + 1.0)
    wts = 0.5 * w
    pts.setflags(write=False)
    wts.setflags(write=False)
    return QuadratureRule(points=pts, weights=wts, exactness_degree=2 * n - 1)


@functools.lru_cache(maxsize=256)
def quad_triangle(degree):
    """Rule on the reference triangle {x,y >= 0, x+y <= 1}.

    Collapsed (Duffy) tensor Gauss rule: (x, y) = (u, v(1-u)) with the
    Jacobian 1-u absorbed into the weights; exact for total degree
    <= degree.
    """
    if not 1 <= degree <= 40:
        raise ValueError(f"quad_triangle supports 1 <= degree <= 40, got {degree}")
    n = (degree + 3) // 2  # 2n-1 >= degree+1 covers the Jacobian factor
    line = gauss_interval(n)
    u = line.points[:, None]
    v = line.points[None, :]
    wu = line.weights[:, None]
    wv = line.weights[None, :]
    xs = np.broadcast_to(u, (n, n)).ravel()
    ys = (v * (1.0 - u)).ravel()
    ws = (wu * wv * (1.0 - u)).ravel()
    pts = np.column_stack([xs, ys])
    pts.setflags(write=False)
    ws.setflags(write=False)
    return QuadratureRule(points=pts, weights=ws, exactness_degree=degree)


def oscillatory_degree(base_degree, k, h, factor=1.5, offset=0):
    """Quadrature degree for oscillatory integrands on a cell of size h.

    ceil(base + factor*k*h) + offset; the default factor keeps a few
    points per wavelength, callers needing identity-level accuracy pass
    a larger factor/offset.
    """
    return int(math.ceil(base_degree + factor * float(k) * float(h))) + int(offset)
