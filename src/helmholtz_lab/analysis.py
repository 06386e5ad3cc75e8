"""Norms, error functionals, and convergence-rate fitting.

Shared post-processing for all solver drivers: relative errors in L2,
H1-seminorm, and the wavenumber-weighted (1,k) norm against analytic
solutions, the mesh-skeleton DG norms whose squares realize the imaginary
part of the discontinuous Galerkin quadratic form, the least squares
functional by direct edge quadrature, and log-log slope fits used to read
convergence rates off error series.
"""

import math
from dataclasses import dataclass

import numpy as np

from .assembly import (_check_flux, _edge_groups, _edge_traces, _edge_values,
                       _flat, _skeleton_edges)


@dataclass
class ErrorReport:
    """Collected error measures for one discrete solve.

    Fields that a given method does not produce stay None: dg_norm and
    dg_plus_norm are filled by DG runs, j_value by least squares runs,
    nodal_max by 1D nodally exact runs, and gamma_n, the discrete inf-sup
    constant, by `methods.infsup_constant`, which fills no error field.
    """

    h1_semi_rel: float = None
    l2_rel: float = None
    norm_1k_rel: float = None
    dg_norm: float = None
    dg_plus_norm: float = None
    j_value: float = None
    nodal_max: float = None
    gamma_n: float = None
    dofs: int = 0
    n_lambda: float = 0.0
    k: float = 0.0
    h: float = 0.0
    p: int = 0
    method: str = ""


# -- error quadrature --------------------------------------------------------


def _apply_exclusion(pts, w, radius, safe_points):
    """Zero the weights of points inside the disk of `radius` around the
    origin.

    The excluded points of element e are also moved to safe_points[e]
    before the exact solution is evaluated, so singular formulas never
    see r ~ 0.
    """
    r2 = (pts ** 2).sum(axis=-1)
    mask = r2 < radius * radius
    if not mask.any():
        return pts, w
    w = np.where(mask, 0.0, w)
    pts = np.where(mask[..., None], safe_points[:, None, :], pts)
    return pts, w


def _rel(num, den):
    num = max(num, 0.0)
    if den <= 0.0:
        return math.sqrt(num)
    return math.sqrt(num / den)


def _weighted_square_sum(w, z, out):
    """Sum of w |z|^2 over n points: w holds the n weights, z the complex
    values (n,) or gradients (n, dim) at the points, in any leading
    shape.  The squares of z's float view go into `out`, a complex array
    of z's size that the caller owns and may be z itself; one BLAS
    matrix-vector product with w reduces them over the points, and its 2
    or 2*dim column sums are added last."""
    zf = np.ascontiguousarray(z).view(float).reshape(len(w), -1)
    sq = np.multiply(zf, zf, out=out.view(float).reshape(zf.shape))
    return float((w @ sq).sum())


def relative_errors(space, coeffs, exact, k, exclude_radius=0.0):
    """Relative L2, H1-seminorm, and (1,k)-norm errors vs an exact solution.

    exact maps an array of points to (complex values, complex gradients),
    the gradients analytic, not differenced, such as `ExactSolution.eval`;
    it is called once per element batch, and the arrays it returns are
    only read, so it may return the same arrays on every call.  Relative
    norms divide by the exact solution's norm computed with the same
    quadrature.  Per batch, the exact norms are summed first; the errors
    are then formed and squared in place in two buffers of this call.  A
    positive exclude_radius drops quadrature points inside the disk around
    the origin, the re-entrant corner of the L-shape; used for solutions
    whose gradient is singular there (`ExactSolution.exclude_radius`).

    Returns (h1_semi_rel, l2_rel, norm_1k_rel).
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    mesh = space.mesh
    rule = space.error_rule(k)
    num_l2 = den_l2 = num_h1 = den_h1 = 0.0
    for elems in space.element_batches(len(rule.weights)):
        pts, w = mesh.map_rule(elems, rule)
        if exclude_radius > 0.0 and mesh.dim == 2:
            pts, w = _apply_exclusion(pts, w, exclude_radius,
                                      mesh.centroids()[elems])
        u_n, g_n = space.field(elems, coeffs, rule)
        u_e, g_e = exact(_flat(pts))
        u_e = np.asarray(u_e, dtype=complex).reshape(w.shape)
        g_e = np.asarray(g_e, dtype=complex).reshape(g_n.shape)
        w = w.ravel()
        u_d = np.empty_like(u_e, order="C")
        g_d = np.empty_like(g_e, order="C")
        den_l2 += _weighted_square_sum(w, u_e, out=u_d)
        den_h1 += _weighted_square_sum(w, g_e, out=g_d)
        num_l2 += _weighted_square_sum(w, np.subtract(u_e, u_n, out=u_d),
                                       out=u_d)
        num_h1 += _weighted_square_sum(w, np.subtract(g_e, g_n, out=g_d),
                                       out=g_d)
    kk = float(k) ** 2
    return (
        _rel(num_h1, den_h1),
        _rel(num_l2, den_l2),
        _rel(kk * num_l2 + num_h1, kk * den_l2 + den_h1),
    )


def nodal_max_error(space, coeffs, exact_value):
    """Largest |u_N - u| over the mesh nodes."""
    mesh = space.mesh
    coeffs = np.asarray(coeffs, dtype=complex)
    vals = np.zeros(mesh.n_nodes, dtype=complex)
    for elems in space.element_batches(mesh.elements.shape[1]):
        nd = mesh.elements[elems]
        bv, _ = space.eval_basis(elems, mesh.nodes[nd])
        c = coeffs[space.dof_matrix()[elems]]
        vals[nd] = np.matmul(bv.astype(complex), c[:, :, None])[..., 0]
    exact = np.asarray(exact_value(mesh.nodes), dtype=complex)
    return float(np.max(np.abs(vals - exact)))


# -- skeleton DG norms --------------------------------------------------------


def _edge_fields(space, coeffs, edges, t):
    """Points (E, Q, 2) and, per side, the values and plus-normal
    derivatives (E, Q) of the discrete function on a batch of edges."""
    pts, sides = _edge_traces(space, edges, t)
    fields = [(np.einsum("eql,el->eq", vals, coeffs[dofs]),
               np.einsum("eql,el->eq", dn, coeffs[dofs]))
              for dofs, vals, dn in sides]
    return pts, fields


def _exact_traces(space, edges, pts, exact):
    """Values and plus-normal derivatives (E, Q) of the exact solution."""
    u, g = exact(_flat(pts))
    u = np.asarray(u, dtype=complex).reshape(pts.shape[:2])
    g = np.asarray(g, dtype=complex).reshape(pts.shape)
    return u, np.einsum("eqd,ed->eq", g, space.mesh.edge_normals[edges])


def _dg_squares(space, coeffs, flux, k, exact=None):
    """Squared skeleton DG and DG+ norms of u_N, or of (exact - u_N) when
    the exact solution's (values, gradients) callback is supplied, from
    one pass over the skeleton."""
    mesh = space.mesh
    if mesh.dim != 2:
        raise ValueError("DG norms are defined on 2D meshes")
    coeffs = np.asarray(coeffs, dtype=complex)
    k = float(k)
    interior, boundary = _skeleton_edges(mesh)
    _check_flux(flux, mesh)
    total = total_plus = 0.0
    for edges, t, ds in _edge_groups(space, k, interior):
        alpha, beta, _ = (a[:, None] for a in flux.on_edges(edges))
        pts, ((u_p, gn_p), (u_m, gn_m)) = _edge_fields(space, coeffs, edges, t)
        if exact is not None:
            u_e, gn_e = _exact_traces(space, edges, pts, exact)
            u_p, u_m = u_e - u_p, u_e - u_m
            gn_p, gn_m = gn_e - gn_p, gn_e - gn_m
        sq = (beta / k * np.abs(gn_p - gn_m) ** 2
              + k * alpha * np.abs(u_p - u_m) ** 2)
        sq_plus = sq + ((k / beta + 1.0 / (k * alpha))
                        * np.abs(0.5 * (u_p + u_m)) ** 2)
        total += float(np.sum(ds * sq))
        total_plus += float(np.sum(ds * sq_plus))
    for edges, t, ds in _edge_groups(space, k, boundary):
        delta = flux.on_edges(edges)[2][:, None]
        pts, ((u, gn),) = _edge_fields(space, coeffs, edges, t)
        if exact is not None:
            u_e, gn_e = _exact_traces(space, edges, pts, exact)
            u, gn = u_e - u, gn_e - gn
        sq = delta / k * np.abs(gn) ** 2 + k * (1.0 - delta) * np.abs(u) ** 2
        sq_plus = sq + k / delta * np.abs(u) ** 2
        total += float(np.sum(ds * sq))
        total_plus += float(np.sum(ds * sq_plus))
    return total, total_plus


def _root(sq):
    return math.sqrt(max(sq, 0.0))


def dg_norm(space, coeffs, flux, k):
    """Skeleton DG norm of a piecewise discrete function.

    Interior edges contribute (beta/k)||[grad u]||^2 + k alpha ||[u]||^2,
    boundary edges (delta/k)||du/dn||^2 + k(1-delta)||u||^2.  On Trefftz
    spaces the square equals Im A_N(u, u) of the assembled DG form.
    """
    return _root(_dg_squares(space, coeffs, flux, k)[0])


def dg_plus_norm(space, coeffs, flux, k):
    """Augmented DG norm adding mean-value and boundary-trace terms.

    On top of the DG norm: k||beta^{-1/2}{u}||^2 and (1/k)||alpha^{-1/2}{u}||^2
    on interior edges and k||delta^{-1/2} u||^2 on boundary edges, with {u}
    the two-sided average.
    """
    return _root(_dg_squares(space, coeffs, flux, k)[1])


def dg_error_norm(space, coeffs, flux, k, exact, plus=False):
    """Skeleton DG norm of the error (exact - u_N).

    The exact solution's traces enter through `exact`, which maps points
    to analytic (values, gradients); its interior jumps vanish, so the
    interior terms reduce to the discrete jumps while boundary terms see
    the true residual traces.
    """
    return dg_error_norms(space, coeffs, flux, k, exact)[int(plus)]


def dg_error_norms(space, coeffs, flux, k, exact):
    """Both skeleton norms of the error (exact - u_N), (DG, DG+), from one
    pass over the skeleton; each equals its `dg_error_norm` call bit for
    bit."""
    sq, sq_plus = _dg_squares(space, coeffs, flux, k, exact=exact)
    return _root(sq), _root(sq_plus)


# -- least squares functional -------------------------------------------------


def j_functional(space, coeffs, k, g, w1=None, w2=None):
    """Least squares functional evaluated by direct edge quadrature.

    J(v) = sum_int w1^2 ||[v]||^2 + w2^2 ||[dv/dn]||^2
         + sum_bnd w2^2 ||dv/dn + ikv - g||^2, defaults w1 = k, w2 = 1.
    Cross-checks the assembled normal-equation algebra.
    """
    mesh = space.mesh
    coeffs = np.asarray(coeffs, dtype=complex)
    k = float(k)
    w1 = k if w1 is None else float(w1)
    w2 = 1.0 if w2 is None else float(w2)
    interior, boundary = _skeleton_edges(mesh)
    total = 0.0
    for edges, t, ds in _edge_groups(space, k, interior):
        _, ((u_p, gn_p), (u_m, gn_m)) = _edge_fields(space, coeffs, edges, t)
        total += float(np.sum(ds * (w1**2 * np.abs(u_p - u_m) ** 2
                                    + w2**2 * np.abs(gn_p - gn_m) ** 2)))
    for edges, t, ds in _edge_groups(space, k, boundary):
        pts, ((u, gn),) = _edge_fields(space, coeffs, edges, t)
        gv = _edge_values(g, pts)
        total += w2**2 * float(np.sum(ds * np.abs(gn + 1j * k * u - gv) ** 2))
    return total


# -- rate fitting -------------------------------------------------------------


def fit_rate(series, window=4):
    """Least squares slope of log(error) vs log(x) over the trailing window.

    series is a sequence of (x, error) pairs with positive entries; the fit
    uses the last `window` points (all of them if fewer, minimum 3).
    Returns (slope, intercept, r_squared).
    """
    pairs = [(float(x), float(e)) for x, e in series]
    if len(pairs) < 3:
        raise ValueError("rate fit needs at least 3 points")
    if any(x <= 0.0 or e <= 0.0 for x, e in pairs):
        raise ValueError("rate fit needs positive abscissae and errors")
    tail = pairs[-max(3, int(window)):]
    lx = np.log([x for x, _ in tail])
    le = np.log([e for _, e in tail])
    slope, intercept = np.polyfit(lx, le, 1)
    resid = le - (slope * lx + intercept)
    ss_res = float(resid @ resid)
    centered = le - le.mean()
    ss_tot = float(centered @ centered)
    r2 = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)
