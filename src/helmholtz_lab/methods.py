"""End-to-end Helmholtz solvers and experiment drivers.

Problem descriptions bundle a domain, wavenumber, data, and optionally an
analytic solution; the solver drivers assemble the corresponding discrete
systems, solve them, and return the coefficients together with an error
report whose primary metrics are always recomputed by direct quadrature
against the exact solution.  Drivers cover the conforming Galerkin method
(polynomial, partition-of-unity, and nodally exact 1D spaces), the Trefftz
least squares method, the plane-wave discontinuous Galerkin method, the
best approximation in the (1,k) norm, and the discrete inf-sup constant
of the Galerkin form.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import analysis, assembly, meshing, spaces
from .numerics import _expi, bessel_j


# -- exact solutions ----------------------------------------------------------


@dataclass(frozen=True)
class ExactSolution:
    """Analytic reference solution.

    `eval` maps an array of points to (values, gradients): complex values
    and complex gradients (shape (n, dim), or (n,) in 1D), computed
    together so that shared factors are evaluated once.  `source` is the
    volume term f that the solution satisfies in -Delta u - k^2 u = f.
    Error integrals drop the quadrature points within `exclude_radius`
    of the origin (see `analysis.relative_errors`), and
    `verify_exact_solution` samples its finite-difference points at least
    `verify_radius` from it; a solution whose gradient is singular there
    sets both.
    """

    id: str
    k: float
    eval: object
    source: object = None
    exclude_radius: float = 0.0
    verify_radius: float = 0.0

    def value(self, pts):
        """Values of the solution at pts."""
        return self.eval(pts)[0]

    def gradient(self, pts):
        """Gradients of the solution at pts."""
        return self.eval(pts)[1]


def plane_wave_2d(k, direction=None):
    """Plane wave traveling along `direction` (default (1, -1)/sqrt 2)."""
    k = float(k)
    if direction is None:
        direction = (1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0))
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)

    def evaluate(pts):
        pts = np.asarray(pts, dtype=float)
        u = _expi(k * (pts @ d))
        # column by column: the same products as the (N, 1) x (1, 2)
        # broadcast, without its strided writes
        g = np.empty((len(u), 2), dtype=complex)
        for i, c in enumerate(1j * k * d):
            np.multiply(c, u, out=g[:, i])
        return u, g

    return ExactSolution(id="pw2d", k=k, eval=evaluate)


def _corner_polar(pts):
    """Polar coordinates with the angle mapped to [0, 3*pi/2]."""
    pts = np.asarray(pts, dtype=float)
    r = np.hypot(pts[:, 0], pts[:, 1])
    phi = np.arctan2(pts[:, 1], pts[:, 0])
    phi = np.where(phi < 0.0, phi + 2.0 * math.pi, phi)
    return r, phi


def bessel_singular(k):
    """Corner singularity J_{2/3}(kr) cos(2 phi/3) on the L-shaped domain.

    Solves the homogeneous Helmholtz equation with homogeneous Neumann
    data on the two legs meeting at the reentrant corner; the gradient
    behaves like r^{-1/3} there.
    """
    k = float(k)
    nu = 2.0 / 3.0

    def evaluate(pts):
        r, phi = _corner_polar(pts)
        # J_{nu-1} is singular at 0: the gradient sees r >= 1e-300, the
        # value the true r, which differs only below 1e-300
        r_safe = np.maximum(r, 1e-300)
        jm, jn, jp = bessel_j((nu - 1.0, nu, nu + 1.0), k * r_safe)
        tiny = r < r_safe
        ju = jn.copy()
        if np.any(tiny):
            ju[tiny] = bessel_j(nu, k * r[tiny])
        du_dr = k * 0.5 * (jm - jp) * np.cos(nu * phi)
        du_dphi_over_r = -nu * jn * np.sin(nu * phi) / r_safe
        cos_p, sin_p = np.cos(phi), np.sin(phi)
        gx = du_dr * cos_p - du_dphi_over_r * sin_p
        gy = du_dr * sin_p + du_dphi_over_r * cos_p
        return (ju * np.cos(nu * phi) + 0.0j,
                np.stack([gx, gy], axis=1) + 0.0j)

    return ExactSolution(id="bessel_singular", k=k, eval=evaluate,
                         exclude_radius=1e-8, verify_radius=0.45)


def model_1d(k, robin_sign=1.0):
    """Closed-form solution of -u'' - k^2 u = 1 on (0, 1).

    Dirichlet u(0) = 0 and the homogeneous impedance condition
    u'(1) + s*ik*u(1) = 0 with s = robin_sign.  The formula comes from
    integrating the Green's function of the model problem against f = 1.
    """
    k = float(k)
    s = float(robin_sign)
    if s not in (1.0, -1.0):
        raise ValueError("robin_sign must be +1 or -1")

    def value(pts):
        x = np.asarray(pts, dtype=float)
        return (np.exp(-s * 1j * k * x) - 1.0
                + s * 1j * np.exp(-s * 1j * k) * np.sin(k * x)) / k**2

    def gradient(pts):
        x = np.asarray(pts, dtype=float)
        return (s * 1j / k) * (np.exp(-s * 1j * k) * np.cos(k * x)
                               - np.exp(-s * 1j * k * x))

    return ExactSolution(id="model1d", k=k,
                         eval=lambda pts: (value(pts), gradient(pts)),
                         source=1.0)


# -- problem descriptions ----------------------------------------------------


@dataclass
class ProblemSpec:
    """Boundary value problem: -Delta u - k^2 u = f with impedance data.

    `bc` maps boundary tags to 'robin', 'neumann', or 'dirichlet';
    unlisted tags default to robin.  `g` is the Robin datum
    g = du/dn + robin_sign*ik*u, a callable on boundary points (None
    means homogeneous).  robin_sign selects the impedance sign variant.
    """

    domain: meshing.Polygon
    k: float
    f: object = None
    g: object = None
    bc: dict = field(default_factory=dict)
    robin_sign: float = 1.0
    exact: ExactSolution = None

    def __post_init__(self):
        self.k = float(self.k)
        if self.k < 1.0:
            raise ValueError("wavenumber below the supported floor k0 = 1")
        if self.robin_sign not in (1.0, -1.0):
            raise ValueError("robin_sign must be +1 or -1")


def impedance_data(exact, domain, robin_sign=1.0):
    """Robin datum g = du/dn + s*ik*u of an exact solution on `domain`.

    The outward normal at each boundary point is the polygon's
    (`Polygon.outward_normals`); points off the boundary raise.
    """
    k = exact.k
    s = float(robin_sign)

    def g(pts):
        pts = np.asarray(pts, dtype=float)
        n = domain.outward_normals(pts)
        vals, grads = exact.eval(pts)
        vals = np.asarray(vals, dtype=complex)
        grads = np.asarray(grads, dtype=complex)
        return np.einsum("qd,qd->q", grads, n) + s * 1j * k * vals

    return g


def _impedance_problem(exact, domain, robin_sign, bc=None):
    """The source-free problem on `domain` whose impedance data g are the
    exact solution's (`impedance_data`), posed as `bc` lays out."""
    return ProblemSpec(
        domain=domain,
        k=exact.k,
        f=None,
        g=impedance_data(exact, domain, robin_sign),
        bc=bc or {},
        robin_sign=robin_sign,
        exact=exact,
    )


def model_problem_1d(k, robin_sign=1.0):
    """The 1D model problem: f = 1, u(0) = 0, impedance at x = 1."""
    return ProblemSpec(
        domain=meshing.unit_interval(),
        k=k,
        f=1.0,
        g=None,
        bc={"left": "dirichlet", "right": "robin"},
        robin_sign=robin_sign,
        exact=model_1d(k, robin_sign),
    )


def plane_wave_problem(k, direction=None, robin_sign=1.0):
    """Plane wave on the unit square with matching impedance data."""
    return _impedance_problem(plane_wave_2d(k, direction),
                              meshing.unit_square(), robin_sign)


def lshape_plane_wave_problem(k, direction=None, robin_sign=-1.0):
    """Plane wave on the L-shape with impedance data on the whole boundary.

    The smooth companion of the singular L-shape study.  A plane wave
    cannot satisfy a homogeneous Neumann condition on the reentrant legs,
    so the data are imposed in impedance form everywhere; the sign variant
    defaults to s = -1 like the other L-shape runs.
    """
    return _impedance_problem(plane_wave_2d(k, direction),
                              meshing.l_shape(neumann_gamma=False), robin_sign)


def lshape_singular_problem(k, robin_sign=-1.0):
    """Corner-singular solution on the L-shape with mixed boundary layout.

    Homogeneous Neumann on the two legs meeting at the reentrant corner,
    impedance data du/dn + s ik u = g elsewhere; the sign variant defaults
    to s = -1 like the other L-shape runs.
    """
    return _impedance_problem(bessel_singular(k),
                              meshing.l_shape(neumann_gamma=True), robin_sign,
                              bc={"neumann": "neumann", "robin": "robin"})


# -- exact-solution verification ----------------------------------------------


# Rounds of n candidate points `_sample_interior` draws before it gives up
# on an acceptance region that is empty (or nearly so).
_SAMPLE_ROUNDS = 1000


def _sample_interior(domain, n, rng, min_radius=0.0, margin=0.02):
    """n random points at least `margin` inside the domain, in the sense
    that the square of half-width `margin` around each lies in it (2D),
    and at least `min_radius` from the origin.

    Raises ValueError, naming both, when _SAMPLE_ROUNDS rounds of n
    candidates leave fewer than n points.
    """
    lo = np.min(domain.vertices, axis=0) + margin
    hi = np.max(domain.vertices, axis=0) - margin
    if domain.dim == 1:
        return rng.uniform(lo[0], hi[0], size=n)
    box = margin * np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0],
                             [-1.0, 1.0]])
    pts = np.empty((0, 2))
    for _ in range(_SAMPLE_ROUNDS):
        cand = rng.uniform(lo, hi, size=(n, 2))
        corners = (cand[:, None, :] + box).reshape(-1, 2)
        keep = domain.contains(corners).reshape(n, 4).all(axis=1)
        keep &= np.hypot(cand[:, 0], cand[:, 1]) >= min_radius
        pts = np.concatenate([pts, cand[keep]])
        if len(pts) >= n:
            return pts[:n]
    raise ValueError(
        f"{len(pts)} of {_SAMPLE_ROUNDS * n} points drawn in domain "
        f"'{domain.name}' lie min_radius={min_radius} from the origin and "
        f"margin={margin} inside it; {n} are needed")


def _fd_laplacian(value, pts, h):
    """Richardson-extrapolated central-difference Laplacian."""
    pts = np.asarray(pts, dtype=float)
    one_d = pts.ndim == 1
    if one_d:
        pts = pts[:, None]
    dim = pts.shape[1]

    def evaluate(at):
        return np.asarray(value(at[:, 0] if one_d else at), dtype=complex)

    def plain(step):
        acc = -2.0 * dim * evaluate(pts)
        for d in range(dim):
            for sgn in (1.0, -1.0):
                shifted = pts.copy()
                shifted[:, d] += sgn * step
                acc = acc + evaluate(shifted)
        return acc / step**2

    return (4.0 * plain(h / 2.0) - plain(h)) / 3.0


def _fd_gradient(value, pts, h):
    """Richardson-extrapolated central-difference gradient."""
    pts = np.asarray(pts, dtype=float)
    one_d = pts.ndim == 1
    if one_d:
        pts = pts[:, None]
    dim = pts.shape[1]

    def central(step):
        cols = []
        for d in range(dim):
            up = pts.copy()
            dn = pts.copy()
            up[:, d] += step
            dn[:, d] -= step
            uv = np.asarray(value(up if not one_d else up[:, 0]), dtype=complex)
            dv = np.asarray(value(dn if not one_d else dn[:, 0]), dtype=complex)
            cols.append((uv - dv) / (2.0 * step))
        return np.stack(cols, axis=1)

    grad = (4.0 * central(h / 2.0) - central(h)) / 3.0
    return grad[:, 0] if one_d else grad


def verify_exact_solution(problem, n_samples=20, rng=None, fd_step=None):
    """Independent residual checks for a problem's declared exact solution.

    Returns a dict of relative residuals: 'pde' for the finite-difference
    Helmholtz residual at random interior points, 'gradient' for the
    analytic-vs-differenced gradient, and 'boundary' for the declared
    boundary data against the solution's traces on a coarse mesh.  The
    interior points keep the solution's `verify_radius` from the origin.
    The default step 1e-2/k balances the O(step^4) truncation of the
    extrapolated stencils against roundoff amplified by 1/step^2.
    """
    if problem.exact is None:
        raise ValueError("problem declares no exact solution")
    exact = problem.exact
    k = problem.k
    rng = rng or np.random.default_rng(1234)
    pts = _sample_interior(problem.domain, n_samples, rng,
                           exact.verify_radius)
    h = fd_step if fd_step is not None else 1e-2 / k

    u = np.asarray(exact.value(pts), dtype=complex)
    lap = _fd_laplacian(exact.value, pts, h)
    f = problem.f
    if f is None:
        fv = np.zeros(len(u), dtype=complex)
    elif callable(f):
        fv = np.asarray(f(pts), dtype=complex)
    else:
        fv = np.full(len(u), complex(f))
    scale = k**2 * np.max(np.abs(u)) + np.max(np.abs(fv)) + 1e-300
    pde = float(np.max(np.abs(-lap - k**2 * u - fv)) / scale)

    grad_exact = np.asarray(exact.gradient(pts), dtype=complex)
    grad_fd = _fd_gradient(exact.value, pts, h)
    gscale = np.max(np.abs(grad_fd)) + 1e-300
    gradient = float(np.max(np.abs(grad_exact - grad_fd)) / gscale)

    boundary = _boundary_data_residual(problem)
    return {"pde": pde, "gradient": gradient, "boundary": boundary}


def _boundary_data_residual(problem):
    """Max relative mismatch of the declared boundary data on a coarse mesh."""
    exact = problem.exact
    k = problem.k
    s = problem.robin_sign
    mesh = meshing.triangulate(problem.domain, 0.5 if problem.domain.dim == 2
                               else 0.25)
    rule = np.array([0.2113248654051871, 0.7886751345948129])
    worst = 0.0
    scale = 1e-300
    for edge in mesh.boundary_edges():
        kind = problem.bc.get(edge.tag, "robin")
        if mesh.dim == 1:
            pts = np.asarray([mesh.nodes[edge.nodes[0]]])
            normal = np.asarray([edge.normal[0]])
            vals, grads = exact.eval(pts)
            vals = np.asarray(vals, dtype=complex)
            grads = np.asarray(grads, dtype=complex)
            dn = grads * normal
        else:
            a, b = mesh.nodes[edge.nodes[0]], mesh.nodes[edge.nodes[1]]
            pts = a[None, :] + rule[:, None] * (b - a)[None, :]
            vals, grads = exact.eval(pts)
            vals = np.asarray(vals, dtype=complex)
            grads = np.asarray(grads, dtype=complex)
            dn = grads @ edge.normal
        if kind == "dirichlet":
            resid = vals
        elif kind == "neumann":
            resid = dn
        else:
            trace = dn + s * 1j * k * vals
            data = (np.zeros_like(trace) if problem.g is None
                    else np.asarray(problem.g(pts), dtype=complex))
            resid = trace - data
            scale = max(scale, float(np.max(np.abs(trace))))
        scale = max(scale, float(np.max(np.abs(vals))) * k)
        worst = max(worst, float(np.max(np.abs(resid))))
    return worst / scale


# -- solver drivers -----------------------------------------------------------


@dataclass
class SolveOutput:
    """Solver result bundle: coefficients, system, and error report.

    `infsup_constant` solves nothing; its coeffs and result are None.
    """

    coeffs: np.ndarray
    space: object
    system: object
    result: object
    report: analysis.ErrorReport
    checks: dict = field(default_factory=dict)


def _is_zero_source(f):
    if f is None:
        return True
    if np.isscalar(f):
        return complex(f) == 0.0
    return False


def _require_trefftz_problem(problem, space, driver):
    """Refuse a problem that the Trefftz skeleton forms would solve wrongly.

    They take f = 0 and impose du/dn + ik u = g on every boundary edge, so
    the problem needs robin_sign = +1 and a robin condition on every tag
    of the mesh boundary.
    """
    if not _is_zero_source(problem.f):
        raise ValueError(f"the {driver} driver requires f = 0")
    if problem.robin_sign != 1.0:
        raise ValueError(f"the {driver} driver imposes du/dn + iku = g and "
                         f"needs robin_sign = +1, got {problem.robin_sign}")
    mesh = space.mesh
    tags = {mesh.edge_tags[i] for i in np.flatnonzero(mesh.boundary_mask)}
    for tag in sorted(tags, key=str):
        kind = problem.bc.get(tag, "robin")
        if kind != "robin":
            raise ValueError(f"the {driver} driver imposes the impedance "
                             f"condition on every boundary edge, but bc "
                             f"maps mesh tag '{tag}' to '{kind}'")


def _error_fields(exact, space, coeffs, report):
    if exact is None:
        return
    h1, l2, e1k = analysis.relative_errors(
        space, coeffs, exact.eval, report.k,
        exclude_radius=exact.exclude_radius)
    report.h1_semi_rel = h1
    report.l2_rel = l2
    report.norm_1k_rel = e1k


def _make_report(k, space, method, n_unknowns):
    return analysis.ErrorReport(
        dofs=int(n_unknowns),
        n_lambda=meshing.n_lambda(n_unknowns, k, space.mesh.dim),
        k=k,
        h=space.mesh.h,
        p=space.order,
        method=method,
    )


def solve_fem(problem, space):
    """Conforming Galerkin solve of the impedance problem on `space`."""
    if not space.conforming:
        raise ValueError("solve_fem requires a conforming space")
    system = assembly.assemble_galerkin(
        space, problem.k, f=problem.f, g=problem.g, bc=problem.bc,
        robin_sign=problem.robin_sign)
    result = assembly.solve(system)
    x = result.x
    nfree = len(system.free) if system.free is not None else system.ndof
    report = _make_report(problem.k, space, "fem", nfree)
    _error_fields(problem.exact, space, x, report)
    checks = {"solve_residual": result.residual}
    bd = system.meta.get("boundary_mass")
    if bd is not None:
        flux = float(np.vdot(x, bd @ x).real)
        lhs = problem.robin_sign * problem.k * flux
        rhs_im = float(np.imag(np.vdot(x, system.rhs)))
        denom = max(abs(lhs), abs(rhs_im), 1e-300)
        checks["boundary_energy_rel"] = abs(lhs - rhs_im) / denom
    return SolveOutput(coeffs=x, space=space, system=system, result=result,
                       report=report, checks=checks)


def h1_best_approximation(problem, space):
    """Best approximation of the declared exact solution in the H1 seminorm.

    Projects onto the conforming space through the stiffness matrix, with
    the same homogeneous Dirichlet constraints as the Galerkin system, and
    returns (coeffs, h1_semi_rel).  Comparing a Galerkin error against this
    projection error isolates the stability (pollution) contribution from
    plain approximability.
    """
    if problem.exact is None:
        raise ValueError("best approximation needs a declared exact solution")
    if not space.conforming:
        raise ValueError("h1_best_approximation requires a conforming space")
    exact = problem.exact

    def gradient_only(pts):
        g = np.asarray(exact.gradient(pts), dtype=complex)
        return np.zeros(g.shape[0], dtype=complex), g.reshape(g.shape[0], -1)

    b = assembly.project_rhs_1k(space, problem.k, gradient_only)
    system = assembly.assemble_galerkin(
        space, problem.k, f=problem.f, g=problem.g, bc=problem.bc,
        robin_sign=problem.robin_sign)
    stiff = system.A.real + problem.k**2 * system.mass
    coeffs = assembly.solve(replace(system, A=stiff, rhs=b)).x
    h1, _, _ = analysis.relative_errors(space, coeffs, exact.eval, problem.k,
                                        exclude_radius=exact.exclude_radius)
    return coeffs, h1


def solve_nodally_exact_1d(problem, n_elements):
    """Galerkin solve in the 1D wave-adapted nodal space.

    The space construction rejects kh >= pi.  The report's nodal_max field
    carries the largest nodal deviation from the exact solution.
    """
    if problem.domain.dim != 1:
        raise ValueError("the nodally exact solver is one dimensional")
    mesh = meshing.triangulate(problem.domain, 1.0 / int(n_elements))
    space = spaces.nodally_exact_space_1d(mesh, problem.k)
    out = solve_fem(problem, space)
    out.report.method = "nodally_exact"
    if problem.exact is not None:
        out.report.nodal_max = analysis.nodal_max_error(
            space, out.coeffs, problem.exact.value)
    return out


def _zero_data(pts):
    return np.zeros(len(pts), dtype=complex)


def solve_least_squares(problem, space, w1=None, w2=None, svd_cutoff=1e-12):
    """Trefftz least squares solve; requires a source-free problem with
    robin_sign = +1 and a robin condition on the whole boundary.

    The normal equations of a plane-wave basis can be numerically
    singular, so they get the truncated minimum-norm solve with relative
    cutoff `svd_cutoff` (`assembly.solve`).
    The reported j_value is recomputed by direct edge quadrature, not read
    off the normal-equation algebra; the checks record how far the two
    evaluations drift apart.
    """
    _require_trefftz_problem(problem, space, "least squares")
    g = problem.g if problem.g is not None else _zero_data
    system = assembly.assemble_least_squares(space, problem.k, g, w1=w1, w2=w2)
    result = assembly.solve(system, svd_cutoff=svd_cutoff)
    x = result.x
    report = _make_report(problem.k, space, "least_squares", system.ndof)
    _error_fields(problem.exact, space, x, report)
    w1v, w2v = system.meta["w1"], system.meta["w2"]
    j_direct = analysis.j_functional(space, x, problem.k, g, w1=w1v, w2=w2v)
    report.j_value = j_direct
    a = system.A
    j_algebra = (float(np.vdot(x, a @ x).real)
                 - 2.0 * float(np.real(np.vdot(x, system.rhs)))
                 + system.meta["g_norm2"])
    denom = max(abs(j_direct), system.meta["g_norm2"], 1e-300)
    checks = {
        "solve_residual": result.residual,
        "j_algebra_rel": abs(j_direct - j_algebra) / denom,
    }
    return SolveOutput(coeffs=x, space=space, system=system, result=result,
                       report=report, checks=checks)


_FLUX_PRESETS = ("uwvf", "hmp", "h_version")


def _resolve_flux(flux, space):
    if isinstance(flux, assembly.FluxParams):
        return flux
    if flux == "uwvf":
        return assembly.uwvf_fluxes()
    if flux == "hmp":
        return assembly.hmp_fluxes(space)
    if flux == "h_version":
        return assembly.h_version_fluxes(space)
    raise ValueError(f"unknown flux preset '{flux}'; "
                     f"choose from {_FLUX_PRESETS}")


def solve_pwdg(problem, space, flux="uwvf"):
    """Plane-wave DG solve; requires a source-free problem with
    robin_sign = +1 and a robin condition on the whole boundary.

    The reported dg_norm and dg_plus_norm are skeleton norms of the error
    against the exact solution's traces (when one is declared), computed
    by quadrature of the norm definitions.
    """
    _require_trefftz_problem(problem, space, "DG")
    flux = _resolve_flux(flux, space)
    g = problem.g if problem.g is not None else _zero_data
    system = assembly.assemble_pwdg(space, problem.k, g, flux)
    result = assembly.solve(system)
    x = result.x
    report = _make_report(problem.k, space, "pwdg", system.ndof)
    _error_fields(problem.exact, space, x, report)
    if problem.exact is not None:
        report.dg_norm, report.dg_plus_norm = analysis.dg_error_norms(
            space, x, flux, problem.k, problem.exact.eval)
    a = system.A
    im_lhs = float(np.imag(np.vdot(x, a @ x)))
    im_rhs = float(np.imag(np.vdot(x, system.rhs)))
    denom = max(abs(im_lhs), abs(im_rhs), 1e-300)
    checks = {
        "solve_residual": result.residual,
        "im_consistency_rel": abs(im_lhs - im_rhs) / denom,
    }
    return SolveOutput(coeffs=x, space=space, system=system, result=result,
                       report=report, checks=checks)


# -- best approximation -------------------------------------------------------


def best_approximation_1k(exact, space, svd_cutoff):
    """Best approximation of `exact` in `space` in the (1,k) norm.

    Solves the projection system of `assembly.assemble_projection_1k`
    through `assembly.solve`.  The Gram matrix of a wave-based basis can
    be numerically singular and needs the truncated minimum-norm solve
    with relative cutoff `svd_cutoff`, after which `out.result.svd_dropped`
    counts the singular values it dropped; the positive definite Gram
    matrix of a conforming space takes the sparse LU, `svd_cutoff=None`.
    The report carries the errors of the projection.
    """
    system = assembly.assemble_projection_1k(space, exact.k, exact.eval)
    result = assembly.solve(system, svd_cutoff=svd_cutoff)
    report = _make_report(exact.k, space, "best_approximation_1k",
                          system.ndof)
    _error_fields(exact, space, result.x, report)
    return SolveOutput(coeffs=result.x, space=space, system=system,
                       result=result, report=report)


# -- discrete inf-sup constant ------------------------------------------------


def infsup_constant(problem, space):
    """Discrete inf-sup constant of the Galerkin form of `problem` on a
    conforming `space`, measured in the (1,k) norm.

    Assembles the Galerkin matrix and the (1,k) Gram matrix
    (`assembly.assemble_gram_1k`), restricts both to the free DOFs of the
    Galerkin system (`assembly.restrict`; the Gram matrix stays real) and
    takes `assembly.infsup_probe` of the pair.  Returns a `SolveOutput`
    without coefficients whose report carries the constant as gamma_n and
    the free DOF count as dofs.
    """
    system = assembly.assemble_galerkin(
        space, problem.k, f=problem.f, g=problem.g, bc=problem.bc,
        robin_sign=problem.robin_sign)
    gram = assembly.assemble_gram_1k(space, problem.k)
    a_free = assembly.restrict(system.A, system.free)
    report = _make_report(problem.k, space, "infsup", a_free.shape[0])
    report.gamma_n = assembly.infsup_probe(
        a_free, assembly.restrict(gram, system.free))
    return SolveOutput(coeffs=None, space=space, system=system, result=None,
                       report=report)
