"""Scalar special functions and quadrature rules.

Self-contained Bessel J and Gamma implementations (downward Miller
recurrence with sum normalization, Lanczos approximation) so that basis
evaluations do not depend on an external special-function library, plus
Gauss-Legendre rules on [0, 1] and collapsed tensor rules on the
reference triangle.
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
_SERIES_CUTOFF = 9.0  # below this the power series keeps ~13 digits

# Lanczos g=7, 9 coefficients (double precision set).
_LANCZOS_G = 7.0
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
    """Gamma function on the positive real axis (Lanczos, g=7)."""
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"gamma requires x > 0, got {x}")
    if x < 0.5:
        # reflection keeps the Lanczos sum in its accurate range
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, 9):
        acc += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc


def bessel_j(order, x):
    """Bessel function of the first kind J_order(x) for x >= 0.

    Supported orders: integers 0..60 and non-integer real orders > -1
    (fractional orders appear in corner-singular solutions).  Scalar or
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
    Orders are checked before anything is allocated; a bad one raises
    ValueError naming it.
    """
    ladder = np.ndim(order) > 0
    orders = _checked_orders(order)
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
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
        big = flat[~small]
        for row, nu in zip(out, orders):
            if nu.is_integer():
                row[~small] = _bessel_miller_int(int(nu), big)
            else:
                row[~small] = _bessel_miller_frac(nu, big)

    if ladder:
        return out.reshape((len(orders),) + arr.shape)
    if arr.ndim == 0:
        return float(out[0, 0])
    return out[0].reshape(arr.shape)


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
    return orders


def _bessel_series(orders, x):
    """Defining power series for every order at every x, rows following
    `orders`; reliable for x <= ~9.

    The recurrence runs until every point of every order has converged.
    A term added after a point converged is below 1e-20 of its sum, so it
    leaves the double unchanged, and m*(m+nu) rounds the same for a
    scalar nu and a column of orders: each row equals a one-order call.
    """
    nu_col = np.array(orders)[:, None]
    half2 = (0.5 * x) ** 2
    term = np.ones((len(orders), x.size))
    total = np.ones_like(term)
    for m in range(1, 80):
        term = term * (-half2) / (m * (m + nu_col))
        total = total + term
        if np.all(np.abs(term) <= 1e-20 * np.maximum(np.abs(total), 1e-280)):
            break
    out = np.empty_like(total)
    pos = x > 0.0
    # One order at a time with a Python-float exponent: np.power with a
    # broadcast array of exponents rounds differently (order 2 by 1 ulp).
    for row, tot, nu in zip(out, total, orders):
        row[pos] = np.power(0.5 * x[pos], nu) * tot[pos] / gamma(nu + 1.0)
        row[~pos] = 1.0 if nu == 0.0 else 0.0
    return out


def _miller_start(order, xmax):
    top = max(order, xmax)
    m = int(math.ceil(top)) + 20 + 2 * int(math.ceil(math.sqrt(top + 1.0)))
    return m + (m % 2)


def _bessel_miller_int(n, x):
    """Downward recurrence normalized by J_0 + 2 sum_m J_{2m} = 1."""
    m_top = _miller_start(n, float(np.max(x)))
    jp = np.zeros_like(x)  # unnormalized J_{m+1}
    jc = np.full_like(x, 1e-30)  # unnormalized J_{m_top}
    target = jc.copy() if n == m_top else np.zeros_like(x)
    even_sum = jc.copy()  # m_top is even by construction
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
    # jc now holds the unnormalized J_0, which enters the sum once
    return target / (jc + 2.0 * even_sum)


def _bessel_miller_frac(nu, x):
    """Downward recurrence on the order ladder nu+m, normalized by
    (x/2)^nu = sum_k c_k J_{nu+2k}, c_k = (nu+2k) Gamma(nu+k)/k!."""
    m_top = _miller_start(abs(nu) + 1.0, float(np.max(x)))
    n_k = m_top // 2 + 1
    coeff = np.empty(n_k)
    coeff[0] = gamma(nu + 1.0)
    ratio = gamma(nu + 1.0)  # Gamma(nu+k)/k!, starting at k=1
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
    ssum = ssum + coeff[0] * target  # the mm == 0 rung
    return target * np.power(0.5 * x, nu) / ssum


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
