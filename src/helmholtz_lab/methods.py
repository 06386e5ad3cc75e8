"""End-to-end Helmholtz solvers and experiment drivers.

Problem descriptions bundle a domain, wavenumber, data, and optionally an
analytic solution; the solver drivers assemble the corresponding discrete
systems, solve them, and return the coefficients together with an error
report whose primary metrics are always recomputed by direct quadrature
against the exact solution.  Drivers cover the conforming Galerkin method
(polynomial, partition-of-unity, and nodally exact 1D spaces), the Trefftz
least squares method, and the plane-wave discontinuous Galerkin method.
"""

import math
from dataclasses import dataclass, field

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
    of the origin (see `analysis.relative_errors`); a solution whose
    gradient is singular there sets it.
    """

    id: str
    k: float
    eval: object
    source: object = None
    exclude_radius: float = 0.0

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
        return u, 1j * k * d[None, :] * u[:, None]

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
                         exclude_radius=1e-8)


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


def exact_solution(name, k, **kwargs):
    """Factory for the named reference solutions."""
    factories = {
        "pw2d": plane_wave_2d,
        "bessel_singular": bessel_singular,
        "model1d": model_1d,
    }
    if name not in factories:
        raise ValueError(f"unknown exact solution '{name}'; "
                         f"choose from {sorted(factories)}")
    return factories[name](k, **kwargs)


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


def _square_normal(pts, tol=1e-9):
    pts = np.asarray(pts, dtype=float)
    n = np.zeros_like(pts)
    n[np.abs(pts[:, 0]) < tol, 0] = -1.0
    n[np.abs(pts[:, 0] - 1.0) < tol, 0] = 1.0
    n[np.abs(pts[:, 1]) < tol, 1] = -1.0
    n[np.abs(pts[:, 1] - 1.0) < tol, 1] = 1.0
    return n


def _lshape_normal(pts, tol=1e-9):
    pts = np.asarray(pts, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    n = np.zeros_like(pts)
    n[np.abs(x + 1.0) < tol, 0] = -1.0
    n[np.abs(x - 1.0) < tol, 0] = 1.0
    n[np.abs(y + 1.0) < tol, 1] = -1.0
    n[np.abs(y - 1.0) < tol, 1] = 1.0
    # Reentrant legs: the interior lies at x < 0 beside the vertical leg
    # and at y > 0 above the horizontal one.
    n[(np.abs(x) < tol) & (y < tol), 0] = 1.0
    n[(np.abs(y) < tol) & (x > tol), 1] = -1.0
    return n


_NORMAL_FNS = {"square": _square_normal, "lshape": _lshape_normal}


def impedance_data(exact, domain, robin_sign=1.0):
    """Robin datum g = du/dn + s*ik*u of an exact solution on `domain`.

    The outward normal is reconstructed from the position of each boundary
    point; points off the boundary raise.
    """
    if domain.name not in _NORMAL_FNS:
        raise ValueError(f"no boundary-normal rule for domain '{domain.name}'")
    normal_fn = _NORMAL_FNS[domain.name]
    k = exact.k
    s = float(robin_sign)

    def g(pts):
        pts = np.asarray(pts, dtype=float)
        n = normal_fn(pts)
        lengths = np.linalg.norm(n, axis=1)
        if np.any(lengths < 0.5):
            raise ValueError("impedance data requested off the boundary")
        vals, grads = exact.eval(pts)
        vals = np.asarray(vals, dtype=complex)
        grads = np.asarray(grads, dtype=complex)
        return np.einsum("qd,qd->q", grads, n) + s * 1j * k * vals

    return g


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
    exact = plane_wave_2d(k, direction)
    domain = meshing.unit_square()
    return ProblemSpec(
        domain=domain,
        k=k,
        f=None,
        g=impedance_data(exact, domain, robin_sign),
        bc={},
        robin_sign=robin_sign,
        exact=exact,
    )


def lshape_plane_wave_problem(k, direction=None, robin_sign=-1.0):
    """Plane wave on the L-shape with impedance data on the whole boundary.

    The smooth companion of the singular L-shape study.  A plane wave
    cannot satisfy a homogeneous Neumann condition on the reentrant legs,
    so the data are imposed in impedance form everywhere; the sign variant
    defaults to s = -1 like the other L-shape runs.
    """
    exact = plane_wave_2d(k, direction)
    domain = meshing.l_shape(neumann_gamma=False)
    return ProblemSpec(
        domain=domain,
        k=k,
        f=None,
        g=impedance_data(exact, domain, robin_sign),
        bc={},
        robin_sign=robin_sign,
        exact=exact,
    )


def lshape_singular_problem(k, robin_sign=-1.0):
    """Corner-singular solution on the L-shape with mixed boundary layout.

    Homogeneous Neumann on the two legs meeting at the reentrant corner,
    impedance data du/dn + s ik u = g elsewhere; the sign variant defaults
    to s = -1 like the other L-shape runs.
    """
    exact = bessel_singular(k)
    domain = meshing.l_shape(neumann_gamma=True)
    return ProblemSpec(
        domain=domain,
        k=k,
        f=None,
        g=impedance_data(exact, domain, robin_sign),
        bc={"neumann": "neumann", "robin": "robin"},
        robin_sign=robin_sign,
        exact=exact,
    )


# -- exact-solution verification ----------------------------------------------


def _sample_interior(domain, n, rng, min_radius=0.0, margin=0.02):
    if domain.dim == 1:
        return rng.uniform(margin, 1.0 - margin, size=n)
    pts = []
    while len(pts) < n:
        cand = rng.uniform(-1.0 + margin, 1.0 - margin, size=2)
        if domain.name == "square":
            cand = rng.uniform(margin, 1.0 - margin, size=2)
        elif domain.name == "lshape":
            if cand[0] > -margin and cand[1] < margin:
                continue
        else:
            raise ValueError(f"no interior sampler for domain '{domain.name}'")
        if min_radius > 0.0 and np.hypot(*cand) < min_radius:
            continue
        pts.append(cand)
    return np.asarray(pts)


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


def verify_exact_solution(problem, n_samples=20, rng=None, min_radius=None,
                          fd_step=None):
    """Independent residual checks for a problem's declared exact solution.

    Returns a dict of relative residuals: 'pde' for the finite-difference
    Helmholtz residual at random interior points, 'gradient' for the
    analytic-vs-differenced gradient, and 'boundary' for the declared
    boundary data against the solution's traces on a coarse mesh.  The
    default step 1e-2/k balances the O(step^4) truncation of the
    extrapolated stencils against roundoff amplified by 1/step^2.
    """
    if problem.exact is None:
        raise ValueError("problem declares no exact solution")
    exact = problem.exact
    k = problem.k
    rng = rng or np.random.default_rng(1234)
    if min_radius is None:
        min_radius = 0.45 if exact.id == "bessel_singular" else 0.0
    pts = _sample_interior(problem.domain, n_samples, rng, min_radius)
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
    """Solver result bundle: coefficients, system, and error report."""

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


def _error_fields(problem, space, coeffs, report):
    if problem.exact is None:
        return
    h1, l2, e1k = analysis.relative_errors(
        space, coeffs, problem.exact.eval, problem.k,
        exclude_radius=problem.exact.exclude_radius)
    report.h1_semi_rel = h1
    report.l2_rel = l2
    report.norm_1k_rel = e1k


def _make_report(problem, space, method, n_unknowns):
    return analysis.ErrorReport(
        dofs=int(n_unknowns),
        n_lambda=meshing.n_lambda(n_unknowns, problem.k, space.mesh.dim),
        k=problem.k,
        h=space.mesh.h,
        p=space.order,
        method=method,
    )


def solve_fem(problem, space, strategy="sparse_lu"):
    """Conforming Galerkin solve of the impedance problem on `space`."""
    if not space.conforming:
        raise ValueError("solve_fem requires a conforming space")
    system = assembly.assemble_galerkin(
        space, problem.k, f=problem.f, g=problem.g, bc=problem.bc,
        robin_sign=problem.robin_sign)
    result = assembly.solve(system, strategy=strategy)
    x = result.x
    nfree = len(system.free) if system.free is not None else system.ndof
    report = _make_report(problem, space, "fem", nfree)
    _error_fields(problem, space, x, report)
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
    coeffs = assembly.solve(
        assembly.ComplexSystem(A=stiff, rhs=b, free=system.free,
                               meta={"dim": system.meta["dim"]})).x
    h1, _, _ = analysis.relative_errors(space, coeffs, exact.eval, problem.k,
                                        exclude_radius=exact.exclude_radius)
    return coeffs, h1


def solve_nodally_exact_1d(problem, n_elements, strategy="sparse_lu"):
    """Galerkin solve in the 1D wave-adapted nodal space.

    The space construction rejects kh >= pi.  The report's nodal_max field
    carries the largest nodal deviation from the exact solution.
    """
    if problem.domain.dim != 1:
        raise ValueError("the nodally exact solver is one dimensional")
    mesh = meshing.triangulate(problem.domain, 1.0 / int(n_elements))
    space = spaces.nodally_exact_space_1d(mesh, problem.k)
    out = solve_fem(problem, space, strategy=strategy)
    out.report.method = "nodally_exact"
    if problem.exact is not None:
        out.report.nodal_max = analysis.nodal_max_error(
            space, out.coeffs, problem.exact.value)
    return out


def _zero_data(pts):
    return np.zeros(len(pts), dtype=complex)


def solve_least_squares(problem, space, w1=None, w2=None,
                        strategy="truncated_svd", svd_cutoff=1e-12):
    """Trefftz least squares solve; requires a source-free problem.

    The reported j_value is recomputed by direct edge quadrature, not read
    off the normal-equation algebra; the checks record how far the two
    evaluations drift apart.
    """
    if not _is_zero_source(problem.f):
        raise ValueError("the least squares driver requires f = 0")
    g = problem.g if problem.g is not None else _zero_data
    system = assembly.assemble_least_squares(space, problem.k, g, w1=w1, w2=w2)
    result = assembly.solve(system, strategy=strategy, svd_cutoff=svd_cutoff)
    x = result.x
    report = _make_report(problem, space, "least_squares", system.ndof)
    _error_fields(problem, space, x, report)
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


def solve_pwdg(problem, space, flux="uwvf", strategy="sparse_lu"):
    """Plane-wave DG solve; requires a source-free problem.

    The reported dg_norm and dg_plus_norm are skeleton norms of the error
    against the exact solution's traces (when one is declared), computed
    by quadrature of the norm definitions.
    """
    if not _is_zero_source(problem.f):
        raise ValueError("the DG driver requires f = 0")
    flux = _resolve_flux(flux, space)
    g = problem.g if problem.g is not None else _zero_data
    system = assembly.assemble_pwdg(space, problem.k, g, flux)
    result = assembly.solve(system, strategy=strategy)
    x = result.x
    report = _make_report(problem, space, "pwdg", system.ndof)
    _error_fields(problem, space, x, report)
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


# -- resolution heuristics ----------------------------------------------------


def scale_resolution_check(k, h, p, L, constants=(1.0, 1.0, 1.0)):
    """Scale-resolution predicate: kh/p <= c1, p >= c2 log k, L >= c3 p.

    Returns (satisfied, margins) where each margin is the slack of the
    corresponding condition (nonnegative means satisfied).
    """
    if min(k, h, p, L) <= 0:
        raise ValueError("scale resolution check needs positive inputs")
    c1, c2, c3 = constants
    margins = {
        "oscillation": c1 - k * h / p,
        "degree": p - c2 * math.log(k),
        "levels": L - c3 * p,
    }
    ok = all(m >= 0.0 for m in margins.values())
    return ok, margins


# -- best approximation studies ------------------------------------------------


_BASIS_KINDS = ("pw", "ghp")


def _make_basis(kind, k, order):
    if kind == "pw":
        return spaces.PlaneWaveBasis(k, order)
    if kind == "ghp":
        return spaces.GhpBasis(k, order)
    raise ValueError(f"unknown basis kind '{kind}'; choose from {_BASIS_KINDS}")


def _best_approximation(space, k, target, cutoff):
    system = assembly.assemble_projection_1k(space, k, target.eval)
    result = assembly.solve(system, strategy="truncated_svd",
                            svd_cutoff=cutoff)
    h1, l2, e1k = analysis.relative_errors(space, result.x, target.eval, k)
    return result.x, result.svd_dropped == 0, h1, l2, e1k


def approx_study(target, basis_kind, mode, domain=None, orders=None,
                 hs=None, order=3, target_h=0.35, cutoff=1e-12):
    """Best-approximation error sweep for wave-enriched local bases.

    Projects the target (a homogeneous Helmholtz solution) onto Trefftz
    spaces in the wavenumber-weighted inner product, solving the normal
    equations with truncated-SVD regularization.  mode 'p_sweep' varies
    the local basis order on a fixed mesh; 'h_sweep' refines the mesh at
    fixed order.  Rows whose Gram matrix needed truncation are marked
    unreliable.
    """
    if mode not in ("p_sweep", "h_sweep"):
        raise ValueError("mode must be 'p_sweep' or 'h_sweep'")
    domain = domain or meshing.unit_square()
    k = target.k
    # (mesh, order) pairs; each mesh is built when its row is due
    if mode == "p_sweep":
        mesh = meshing.triangulate(domain, target_h)
        sweep = ((mesh, q) for q in (range(1, 13) if orders is None
                                     else orders))
    else:
        sweep = ((meshing.triangulate(domain, h), order)
                 for h in ((0.5, 0.25, 0.125, 0.0625) if hs is None else hs))
    rows = []
    for mesh, q in sweep:
        space = spaces.trefftz_space(mesh, k, _make_basis(basis_kind, k, q))
        _, reliable, h1, l2, e1k = _best_approximation(space, k, target, cutoff)
        rows.append({"p": int(q), "h": mesh.h, "dofs": space.ndof,
                     "err_h1semi_rel": h1, "err_l2_rel": l2,
                     "err_1k_rel": e1k, "reliable": reliable})
    return rows
