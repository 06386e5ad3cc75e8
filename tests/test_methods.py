"""Tests for the end-to-end solver drivers and exact solutions."""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmholtz_lab import analysis, assembly, cli, meshing, methods, spaces
from helmholtz_lab.numerics import bessel_j, gauss_interval


def greens_quadrature_1d(k, x, n=60):
    """Independent oracle: u(x) = int_0^1 G(x,y) dy for -u''-k^2 u = 1.

    G(x,y) = sin(k*min(x,y))/k * exp(ik*max(x,y)) for the variant with
    u(0) = 0 and u'(1) - ik u(1) = 0; integrated piecewise so the kink at
    y = x never crosses a panel.
    """
    rule = gauss_interval(n)

    def panel(a, b, f):
        y = a + (b - a) * rule.points
        return (b - a) * np.sum(rule.weights * f(y))

    left = panel(0.0, x, lambda y: np.sin(k * y) / k * np.exp(1j * k * x))
    right = panel(x, 1.0, lambda y: np.sin(k * x) / k * np.exp(1j * k * y))
    return left + right


def separate_evaluators(exact):
    """The value and gradient of pw2d and bessel_singular, each computed
    on its own, as reference for the fused evaluation."""
    k = exact.k
    if exact.id == "pw2d":
        d = np.array([1.0, -1.0]) / math.sqrt(2.0)
        d = d / np.linalg.norm(d)

        def value(pts):
            return np.exp(1j * k * (pts @ d))

        def gradient(pts):
            return 1j * k * d[None, :] * np.exp(1j * k * (pts @ d))[:, None]

        return value, gradient
    nu = 2.0 / 3.0

    def polar(pts):
        r = np.hypot(pts[:, 0], pts[:, 1])
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        return r, np.where(phi < 0.0, phi + 2.0 * math.pi, phi)

    def value(pts):
        r, phi = polar(pts)
        return bessel_j(nu, k * r) * np.cos(nu * phi) + 0.0j

    def gradient(pts):
        r, phi = polar(pts)
        r_safe = np.maximum(r, 1e-300)
        jm = bessel_j(nu - 1.0, k * r_safe)
        jp = bessel_j(nu + 1.0, k * r_safe)
        du_dr = k * 0.5 * (jm - jp) * np.cos(nu * phi)
        du_dphi_over_r = (-nu * bessel_j(nu, k * r_safe) * np.sin(nu * phi)
                          / r_safe)
        cos_p, sin_p = np.cos(phi), np.sin(phi)
        gx = du_dr * cos_p - du_dphi_over_r * sin_p
        gy = du_dr * sin_p + du_dphi_over_r * cos_p
        return np.stack([gx, gy], axis=1) + 0.0j

    return value, gradient


# the reference solutions by name
EXACT_BUILDERS = {"model1d": methods.model_1d,
                  "pw2d": methods.plane_wave_2d,
                  "bessel_singular": methods.bessel_singular}


def trefftz_square(k, h, basis):
    mesh = meshing.triangulate(meshing.unit_square(), h)
    return spaces.trefftz_space(mesh, k, basis)


class TestExactSolutions:
    def test_model1d_matches_greens_function_oracle(self):
        k = 3.7
        exact = methods.model_1d(k, robin_sign=-1.0)
        for x in (0.12, 0.43, 0.77, 0.98):
            oracle = greens_quadrature_1d(k, x)
            got = complex(exact.value(np.array([x]))[0])
            assert abs(got - oracle) < 1e-12

    def test_model1d_sign_variants_are_conjugate(self):
        k = 5.0
        plus = methods.model_1d(k, robin_sign=1.0)
        minus = methods.model_1d(k, robin_sign=-1.0)
        x = np.linspace(0.05, 0.95, 7)
        assert np.allclose(plus.value(x), np.conj(minus.value(x)), atol=1e-14)

    def test_model1d_invalid_sign(self):
        with pytest.raises(ValueError):
            methods.model_1d(4.0, robin_sign=0.5)

    def test_pw2d_default_direction(self):
        k = 9.0
        exact = methods.plane_wave_2d(k)
        g = exact.gradient(np.zeros((1, 2)))
        assert abs(g[0, 0] - 1j * k / math.sqrt(2.0)) < 1e-13
        assert abs(g[0, 1] + 1j * k / math.sqrt(2.0)) < 1e-13

    def test_pw2d_gradient_bitwise_equal_to_broadcast(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1.0, 1.0, (1001, 2))
        default = (1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0))
        for k, direction in ((40.0, default), (7.3, (0.3, 0.9)),
                             (1.0, (-1.0, 0.0))):
            u, g = methods.plane_wave_2d(k, direction).eval(pts)
            d = np.array(direction) / np.linalg.norm(direction)
            want = 1j * k * d[None, :] * u[:, None]
            assert g.dtype == want.dtype and g.shape == want.shape
            assert g.tobytes() == want.tobytes()

    def test_bessel_singular_neumann_legs(self):
        k = 4.0
        exact = methods.bessel_singular(k)
        xs = np.linspace(0.1, 0.9, 5)
        leg1 = np.stack([xs, np.zeros_like(xs)], axis=1)
        g1 = exact.gradient(leg1)
        assert np.max(np.abs(g1[:, 1])) < 1e-12 * np.max(np.abs(g1))
        leg2 = np.stack([np.zeros_like(xs), -xs], axis=1)
        g2 = exact.gradient(leg2)
        assert np.max(np.abs(g2[:, 0])) < 1e-12 * np.max(np.abs(g2))

    @pytest.mark.parametrize("name", ["pw2d", "bessel_singular"])
    def test_fused_eval_bitwise_equals_separate_evaluators(self, name):
        # L-shape points, the corner r = 0 and r = 1e-310 (below the
        # 1e-300 floor of the gradient) included; k r crosses x = 9
        exact = EXACT_BUILDERS[name](12.0)
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1.0, 1.0, size=(300, 2))
        pts = pts[(pts[:, 0] < 0.0) | (pts[:, 1] > 0.0)]
        pts = np.vstack([pts, [[0.0, 0.0], [1e-310, 0.0], [0.0, 1e-310]]])
        value, gradient = separate_evaluators(exact)
        u, g = exact.eval(pts)
        for got, want in ((u, value(pts)), (g, gradient(pts)),
                          (exact.value(pts), value(pts)),
                          (exact.gradient(pts), gradient(pts))):
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @given(st.floats(1.0, 60.0), st.floats(-math.pi, math.pi),
           st.integers(0, 2**16))
    def test_pw2d_phase_bitwise_equals_complex_exp(self, k, angle, seed):
        # any direction, so phases of both signs; the origin gives a phase
        # of exactly 0 or -0
        direction = (math.cos(angle), math.sin(angle))
        pts = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(50, 2))
        pts[0] = 0.0
        d = np.asarray(direction) / np.linalg.norm(direction)
        u_want = np.exp(1j * k * (pts @ d))
        g_want = 1j * k * d[None, :] * u_want[:, None]
        u, g = methods.plane_wave_2d(k, direction).eval(pts)
        assert u.tobytes() == u_want.tobytes()
        assert g.tobytes() == g_want.tobytes()

    @pytest.mark.parametrize("name", ["model1d", "pw2d", "bessel_singular"])
    def test_value_and_gradient_are_eval_outputs(self, name):
        exact = EXACT_BUILDERS[name](3.0)
        if name == "model1d":
            x = np.linspace(0.0, 1.0, 9)
        else:
            x = np.array([[0.0, 0.0], [0.3, 0.4], [-0.5, 0.25]])
        u, g = exact.eval(x)
        assert u.tobytes() == exact.value(x).tobytes()
        assert g.tobytes() == exact.gradient(x).tobytes()

    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
    @pytest.mark.parametrize("domain, exact", sorted(cli._PROBLEMS))
    def test_declared_solutions_verify(self, domain, exact, sign):
        problem = cli._PROBLEMS[domain, exact](6.0, robin_sign=sign)
        resid = methods.verify_exact_solution(problem,
                                              rng=np.random.default_rng(2))
        assert resid["pde"] < 1e-8
        assert resid["gradient"] < 1e-6
        assert resid["boundary"] < 1e-8

    @pytest.mark.parametrize("kind", ["robinn", "Dirichlet", None])
    def test_unknown_boundary_kind_raises(self, kind):
        problem = methods.model_problem_1d(6.0)
        problem.bc = {"left": "dirichlet", "right": kind}
        with pytest.raises(ValueError, match=f"tag 'right' to '{kind}'"):
            methods.verify_exact_solution(problem)

    def test_verification_radius_belongs_to_the_solution(self, monkeypatch):
        # A renamed copy of the corner solution keeps its sampling radius.
        # Its residuals cannot tell: the sampling margin keeps the points
        # off the corner, so only the sampler's argument shows the radius.
        problem = methods.lshape_singular_problem(4.0)
        problem.exact = dataclasses.replace(problem.exact, id="corner")
        radii = []
        sample = methods._sample_interior

        def spy(domain, n, rng, min_radius=0.0, **kwargs):
            radii.append(min_radius)
            return sample(domain, n, rng, min_radius, **kwargs)

        monkeypatch.setattr(methods, "_sample_interior", spy)
        resid = methods.verify_exact_solution(problem,
                                              rng=np.random.default_rng(2))
        assert radii == [0.45]
        assert resid["gradient"] < 1e-6


def per_edge_boundary_residual(problem):
    """The boundary-data residual of `verify_exact_solution` from one
    evaluation per boundary edge, over the `Edge` views of the mesh."""
    exact, k, s = problem.exact, problem.k, problem.robin_sign
    mesh = meshing.triangulate(problem.domain, 0.5 if problem.domain.dim == 2
                               else 0.25)
    rule = np.array([0.2113248654051871, 0.7886751345948129])
    worst, scale = 0.0, 1e-300
    for edge in mesh.boundary_edges():
        kind = problem.bc.get(edge.tag, "robin")
        if mesh.dim == 1:
            pts = np.asarray([mesh.nodes[edge.nodes[0]]])
            vals, grads = exact.eval(pts)
            dn = np.asarray(grads, dtype=complex) * np.asarray([edge.normal[0]])
        else:
            a, b = mesh.nodes[edge.nodes[0]], mesh.nodes[edge.nodes[1]]
            pts = a[None, :] + rule[:, None] * (b - a)[None, :]
            vals, grads = exact.eval(pts)
            dn = np.asarray(grads, dtype=complex) @ edge.normal
        vals = np.asarray(vals, dtype=complex)
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


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["plus", "minus"])
@pytest.mark.parametrize("k", [1.0, 6.0, 23.5])
@pytest.mark.parametrize("domain, exact", sorted(cli._PROBLEMS))
def test_boundary_residual_batched_per_kind_equals_per_edge(domain, exact, k,
                                                            sign):
    # One evaluation per boundary condition kind takes the maxima of the
    # same values as one evaluation per edge.
    problem = cli._PROBLEMS[domain, exact](k, robin_sign=sign)
    assert (methods._boundary_data_residual(problem)
            == per_edge_boundary_residual(problem))


class TestProblemSpec:
    def test_wavenumber_floor(self):
        with pytest.raises(ValueError):
            methods.ProblemSpec(domain=meshing.unit_interval(), k=0.5)

    def test_robin_sign_validation(self):
        with pytest.raises(ValueError):
            methods.ProblemSpec(domain=meshing.unit_square(), k=2.0,
                                robin_sign=2.0)

    def test_impedance_data_off_boundary(self):
        exact = methods.plane_wave_2d(3.0)
        g = methods.impedance_data(exact, meshing.unit_square())
        with pytest.raises(ValueError):
            g(np.array([[0.5, 0.5]]))

    def test_lshape_layout(self):
        problem = methods.lshape_singular_problem(2.0)
        assert problem.bc["neumann"] == "neumann"
        assert problem.robin_sign == -1.0

    @pytest.mark.parametrize("domain, h", [(meshing.unit_square(), 0.25),
                                           (meshing.l_shape(), 0.4)],
                             ids=["square", "lshape"])
    def test_impedance_data_takes_mesh_normals_on_graded_mesh(self, domain,
                                                               h):
        # Grading puts Gauss points within 1e-9 of the corner, on both
        # sides meeting there; each must see its own edge's normal.  The
        # direction is oblique, so every side gives a different du/dn.
        mesh = meshing.geometric_refine(meshing.triangulate(domain, h),
                                        [(0.0, 0.0)], 0.125, 10)
        k = 5.0
        exact = methods.plane_wave_2d(k, direction=(math.cos(0.3),
                                                    math.sin(0.3)))
        idx = np.flatnonzero(mesh.boundary_mask)
        a = mesh.nodes[mesh.edge_nodes[idx, 0]]
        b = mesh.nodes[mesh.edge_nodes[idx, 1]]
        t = gauss_interval(2).points
        pts = (a[:, None, :] + t[None, :, None] * (b - a)[:, None, :])
        pts = pts.reshape(-1, 2)
        normals = np.repeat(mesh.edge_normals[idx], len(t), axis=0)
        assert np.min(np.hypot(pts[:, 0], pts[:, 1])) < 1e-9
        vals, grads = exact.eval(pts)
        for s in (1.0, -1.0):
            want = np.sum(grads * normals, axis=1) + s * 1j * k * vals
            got = methods.impedance_data(exact, domain, s)(pts)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_renamed_polygon_keeps_its_boundary_data(self):
        # Geometry comes from the vertices, not from the domain's name.
        box = dataclasses.replace(meshing.unit_square(), name="box")
        exact = methods.plane_wave_2d(5.0)
        problem = methods.ProblemSpec(
            domain=box, k=5.0, g=methods.impedance_data(exact, box),
            exact=exact)
        resid = methods.verify_exact_solution(problem,
                                              rng=np.random.default_rng(2))
        assert resid["pde"] < 1e-8
        assert resid["gradient"] < 1e-6
        assert resid["boundary"] < 1e-8


def _in_margin_region(domain, pts, m):
    """The interior sampler's acceptance region for the built-in
    polygons, written out side by side."""
    x, y = pts[:, 0], pts[:, 1]
    if domain.vertices == meshing.l_shape().vertices:
        return ((-1 + m <= x) & (x <= 1 - m) & (-1 + m <= y) & (y <= 1 - m)
                & ~((x > -m) & (y < m)))
    return (m <= x) & (x <= 1 - m) & (m <= y) & (y <= 1 - m)


class TestSampleInterior:
    @pytest.mark.parametrize("domain", [
        meshing.unit_square(), meshing.l_shape(),
        dataclasses.replace(meshing.unit_square(), name="box")],
        ids=["square", "lshape", "box"])
    @pytest.mark.parametrize("min_radius", [0.0, 0.45])
    def test_points_keep_margin_and_radius(self, domain, min_radius):
        rng = np.random.default_rng(5)
        pts = methods._sample_interior(domain, 200, rng, min_radius)
        assert pts.shape == (200, 2)
        assert np.all(_in_margin_region(domain, pts, 0.02))
        assert np.all(np.hypot(pts[:, 0], pts[:, 1]) >= min_radius)

    def test_empty_region_raises_promptly(self):
        # no point of the unit square lies 1.5 from the origin
        started = time.perf_counter()
        with pytest.raises(ValueError, match=r"min_radius=1\.5.*margin=0\.02"):
            methods._sample_interior(meshing.unit_square(), 5,
                                     np.random.default_rng(0), 1.5)
        assert time.perf_counter() - started < 5.0

    def test_interval_draws_are_plain_uniform(self):
        pts = methods._sample_interior(meshing.unit_interval(), 7,
                                       np.random.default_rng(3))
        want = np.random.default_rng(3).uniform(0.02, 0.98, size=7)
        assert pts.tobytes() == want.tobytes()


class TestSolveFem:
    def test_model_1d_asymptotic_rate(self):
        k = 1.0
        problem = methods.model_problem_1d(k)
        series = []
        for n in (125, 250, 500, 1000):
            mesh = meshing.triangulate(problem.domain, 1.0 / n)
            out = methods.solve_fem(problem, spaces.h1_space(mesh, 1))
            series.append((out.report.n_lambda, out.report.h1_semi_rel))
        slope, _, _ = analysis.fit_rate(series)
        assert -1.2 <= slope <= -0.8

    def test_zero_data_zero_solution(self):
        problem = methods.ProblemSpec(domain=meshing.unit_square(), k=5.0)
        mesh = meshing.triangulate(problem.domain, 0.5)
        out = methods.solve_fem(problem, spaces.h1_space(mesh, 2))
        assert np.max(np.abs(out.coeffs)) < 1e-13

    def test_linearity_in_data(self):
        k = 6.0
        base = methods.plane_wave_problem(k)
        lam = 0.7 - 1.3j
        scaled = methods.ProblemSpec(
            domain=base.domain, k=k, f=None,
            g=lambda pts: lam * base.g(pts), bc=base.bc,
            robin_sign=base.robin_sign)
        mesh = meshing.triangulate(base.domain, 0.35)
        space = spaces.h1_space(mesh, 2)
        u1 = methods.solve_fem(base, space).coeffs
        u2 = methods.solve_fem(scaled, space).coeffs
        scale = np.max(np.abs(u1))
        assert np.max(np.abs(u2 - lam * u1)) < 1e-11 * scale

    def test_pollution_ordering(self):
        # Pollution is the growth, with k, of the gap between the Galerkin
        # error and the best approximation error at fixed resolution.  The
        # raw relative error is not monotone here: at k=1 a 20-dofs-per-
        # wavelength budget is only a 3-element mesh, whose (large) error
        # is nearly pure approximation error.
        ratios = []
        raw = []
        for k in (1.0, 10.0, 100.0):
            n = max(3, int(round(20.0 * k / (2.0 * math.pi))))
            problem = methods.model_problem_1d(k)
            mesh = meshing.triangulate(problem.domain, 1.0 / n)
            space = spaces.h1_space(mesh, 1)
            out = methods.solve_fem(problem, space)
            assert out.report.n_lambda >= 18.0
            _, best = methods.h1_best_approximation(problem, space)
            ratios.append(out.report.h1_semi_rel / best)
            raw.append(out.report.h1_semi_rel)
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[0] < 1.01
        assert ratios[2] > 2.0
        assert raw[1] < raw[2]

    def test_1d_high_order_is_quasi_optimal(self):
        # kh/p = 0.5 at k = 40: degrees up to the cap of 10 solve to
        # roundoff, stay within 1% of the best H1 approximation, and
        # converge in p.
        k = 40.0
        problem = methods.model_problem_1d(k)
        errors = []
        for p in range(5, 11):
            mesh = meshing.triangulate(problem.domain, 0.5 * p / k)
            space = spaces.h1_space(mesh, p)
            out = methods.solve_fem(problem, space)
            _, best = methods.h1_best_approximation(problem, space)
            assert out.checks["solve_residual"] <= 1e-12
            assert out.report.h1_semi_rel / best <= 1.01
            errors.append(out.report.h1_semi_rel)
        assert errors[-1] < errors[0] / 100.0

    def test_boundary_energy_identity(self):
        problem = methods.plane_wave_problem(8.0)
        mesh = meshing.triangulate(problem.domain, 0.25)
        out = methods.solve_fem(problem, spaces.h1_space(mesh, 2))
        assert out.checks["boundary_energy_rel"] < 1e-10

    def test_2d_errors_decrease_under_refinement(self):
        problem = methods.plane_wave_problem(6.0)
        errs = []
        for h in (0.5, 0.25, 0.125):
            mesh = meshing.triangulate(problem.domain, h)
            out = methods.solve_fem(problem, spaces.h1_space(mesh, 1))
            errs.append(out.report.h1_semi_rel)
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 0.4 * errs[0]

    def test_pum_solver_runs(self):
        k = 6.0
        problem = methods.plane_wave_problem(k)
        mesh = meshing.triangulate(problem.domain, 0.35)
        space = spaces.pum_space(mesh, k, spaces.PlaneWaveBasis(k, 4))
        out = methods.solve_fem(problem, space)
        assert out.report.method == "fem"
        assert out.report.p == 4
        assert out.report.l2_rel < 0.2

    def test_rejects_nonconforming_space(self):
        k = 4.0
        problem = methods.plane_wave_problem(k)
        mesh = meshing.triangulate(problem.domain, 0.5)
        space = spaces.trefftz_space(mesh, k, spaces.PlaneWaveBasis(k, 5))
        with pytest.raises(ValueError):
            methods.solve_fem(problem, space)


class TestNodallyExact:
    def test_nodal_exactness(self):
        k = 10.0
        problem = methods.model_problem_1d(k)
        out = methods.solve_nodally_exact_1d(problem, 20)
        nodes = np.linspace(0.0, 1.0, 21)
        umax = np.max(np.abs(problem.exact.value(nodes)))
        assert out.report.nodal_max <= 1e-8 * umax
        assert out.report.method == "nodally_exact"

    def test_h_rate_in_weighted_norm(self):
        k = 10.0
        problem = methods.model_problem_1d(k)
        series = []
        for n in (16, 32, 64, 128):
            out = methods.solve_nodally_exact_1d(problem, n)
            series.append((1.0 / n, out.report.norm_1k_rel))
        slope, _, _ = analysis.fit_rate(series)
        assert 0.8 <= slope <= 1.2

    def test_rejects_underresolved(self):
        problem = methods.model_problem_1d(10.0)
        with pytest.raises(ValueError):
            methods.solve_nodally_exact_1d(problem, 2)

    def test_zero_data(self):
        problem = methods.ProblemSpec(
            domain=meshing.unit_interval(), k=4.0,
            bc={"left": "dirichlet", "right": "robin"})
        out = methods.solve_nodally_exact_1d(problem, 10)
        assert np.max(np.abs(out.coeffs)) < 1e-14


class TestLeastSquares:
    def aligned_problem(self, k):
        exact = methods.plane_wave_2d(k, direction=(1.0, 0.0))
        domain = meshing.unit_square()
        return methods.ProblemSpec(
            domain=domain, k=k, g=methods.impedance_data(exact, domain),
            exact=exact)

    def test_in_space_reproduction(self):
        k = 5.0
        problem = self.aligned_problem(k)
        mesh = meshing.triangulate(problem.domain, 0.5)
        space = spaces.trefftz_space(mesh, k, spaces.PlaneWaveBasis(k, 7))
        out = methods.solve_least_squares(problem, space)
        assert out.report.l2_rel < 1e-8
        assert out.report.j_value < 1e-12 * out.system.meta["g_norm2"]
        assert out.checks["j_algebra_rel"] < 1e-8

    def test_minimality_among_random_candidates(self):
        k = 5.0
        problem = methods.plane_wave_problem(k)
        mesh = meshing.triangulate(problem.domain, 0.5)
        space = spaces.trefftz_space(mesh, k, spaces.PlaneWaveBasis(k, 5))
        out = methods.solve_least_squares(problem, space)
        rng = np.random.default_rng(31)
        for _ in range(25):
            v = out.coeffs + 0.1 * (rng.standard_normal(space.ndof)
                                    + 1j * rng.standard_normal(space.ndof))
            j_v = analysis.j_functional(space, v, k, problem.g)
            assert out.report.j_value <= j_v + 1e-12

    def test_doubling_data_doubles_solution(self):
        k = 5.0
        base = methods.plane_wave_problem(k)
        doubled = methods.ProblemSpec(
            domain=base.domain, k=k, g=lambda pts: 2.0 * base.g(pts),
            bc=base.bc, robin_sign=base.robin_sign)
        mesh = meshing.triangulate(base.domain, 0.5)
        space = spaces.trefftz_space(mesh, k, spaces.PlaneWaveBasis(k, 5))
        u1 = methods.solve_least_squares(base, space).coeffs
        u2 = methods.solve_least_squares(doubled, space).coeffs
        assert np.max(np.abs(u2 - 2.0 * u1)) < 1e-10 * np.max(np.abs(u1))

    def test_requires_zero_source(self):
        problem = methods.model_problem_1d(5.0)
        mesh = meshing.triangulate(meshing.unit_square(), 0.5)
        space = spaces.trefftz_space(mesh, 5.0, spaces.PlaneWaveBasis(5.0, 5))
        with pytest.raises(ValueError):
            methods.solve_least_squares(problem, space)


def _trefftz_driver(name):
    return {"ls": methods.solve_least_squares, "uwvf": methods.solve_pwdg}[name]


@pytest.mark.parametrize("driver", ["ls", "uwvf"])
class TestTrefftzRefusals:
    """The skeleton forms impose du/dn + iku = g on every boundary edge;
    a problem posed otherwise is refused, not solved wrongly."""

    def test_refuses_negative_robin_sign(self, driver):
        problem = methods.plane_wave_problem(4.0, robin_sign=-1.0)
        mesh = meshing.triangulate(problem.domain, 0.5)
        space = spaces.trefftz_space(mesh, 4.0, spaces.PlaneWaveBasis(4.0, 7))
        with pytest.raises(ValueError, match="robin_sign"):
            _trefftz_driver(driver)(problem, space)

    def test_refuses_neumann_tag(self, driver):
        problem = methods.lshape_singular_problem(4.0, robin_sign=1.0)
        mesh = meshing.triangulate(problem.domain, 0.5)
        space = spaces.trefftz_space(mesh, 4.0, spaces.GhpBasis(4.0, 5))
        with pytest.raises(ValueError, match="mesh tag 'neumann' to 'neumann'"):
            _trefftz_driver(driver)(problem, space)

    def test_refuses_unknown_kind(self, driver):
        # a misspelt kind is refused, even on a tag the mesh lacks
        problem = dataclasses.replace(
            methods.plane_wave_problem(4.0),
            bc={"robin": "robin", "wall": "dirichlett"})
        mesh = meshing.triangulate(problem.domain, 0.5)
        space = spaces.trefftz_space(mesh, 4.0, spaces.PlaneWaveBasis(4.0, 7))
        with pytest.raises(ValueError, match="tag 'wall' to 'dirichlett'"):
            _trefftz_driver(driver)(problem, space)

    def test_accepts_robin_on_every_mesh_tag(self, driver):
        # robin named explicitly, and a condition on a tag the mesh lacks
        base = methods.plane_wave_problem(4.0)
        problem = dataclasses.replace(
            base, bc={"robin": "robin", "wall": "dirichlet"})
        mesh = meshing.triangulate(problem.domain, 0.5)
        space = spaces.trefftz_space(mesh, 4.0, spaces.PlaneWaveBasis(4.0, 7))
        out = _trefftz_driver(driver)(problem, space)
        assert out.report.l2_rel < 0.01


class TestPwdg:
    def test_uwvf_reproduces_aligned_wave(self):
        k = 5.0
        exact = methods.plane_wave_2d(k, direction=(1.0, 0.0))
        domain = meshing.unit_square()
        problem = methods.ProblemSpec(
            domain=domain, k=k, g=methods.impedance_data(exact, domain),
            exact=exact)
        mesh = meshing.triangulate(domain, 0.5)
        space = spaces.trefftz_space(mesh, k, spaces.PlaneWaveBasis(k, 7))
        out = methods.solve_pwdg(problem, space, flux="uwvf")
        assert out.report.l2_rel < 1e-8
        assert out.report.dg_norm < 1e-7
        assert out.report.dg_plus_norm >= out.report.dg_norm

    def test_im_consistency(self):
        k = 5.0
        problem = methods.plane_wave_problem(k)
        mesh = meshing.triangulate(problem.domain, 0.5)
        space = spaces.trefftz_space(mesh, k, spaces.PlaneWaveBasis(k, 7))
        out = methods.solve_pwdg(problem, space, flux="hmp")
        assert out.checks["im_consistency_rel"] < 1e-10

    def test_flux_presets_resolve_from_one_table(self):
        k = 5.0
        mesh = meshing.triangulate(meshing.unit_square(), 0.5)
        space = spaces.trefftz_space(mesh, k, spaces.PlaneWaveBasis(k, 5))
        want = {"uwvf": assembly.uwvf_fluxes(),
                "hmp": assembly.hmp_fluxes(space),
                "h_version": assembly.h_version_fluxes(space)}
        assert list(assembly.FLUX_PRESETS) == list(want)
        edges = np.arange(len(mesh.edge_lengths))
        for name, params in want.items():
            got = methods._resolve_flux(name, space).on_edges(edges)
            for a, b in zip(got, params.on_edges(edges)):
                assert a.tobytes() == b.tobytes()
        with pytest.raises(ValueError, match=r"'nope'.*\('uwvf', 'hmp', "
                                             r"'h_version'\)"):
            methods.solve_pwdg(methods.plane_wave_problem(k), space,
                               flux="nope")

    def test_zero_data_zero_solution(self):
        k = 5.0
        problem = methods.ProblemSpec(domain=meshing.unit_square(), k=k)
        mesh = meshing.triangulate(problem.domain, 0.5)
        space = spaces.trefftz_space(mesh, k, spaces.PlaneWaveBasis(k, 5))
        out = methods.solve_pwdg(problem, space)
        assert np.max(np.abs(out.coeffs)) < 1e-12

    def test_flux_resolution(self):
        k = 4.0
        problem = methods.plane_wave_problem(k)
        mesh = meshing.triangulate(problem.domain, 0.5)
        space = spaces.trefftz_space(mesh, k, spaces.PlaneWaveBasis(k, 5))
        for flux in ("uwvf", "hmp", "h_version",
                     assembly.FluxParams(0.5, 0.5, 0.5)):
            out = methods.solve_pwdg(problem, space, flux=flux)
            assert out.report.dg_norm >= 0.0
        with pytest.raises(ValueError):
            methods.solve_pwdg(problem, space, flux="bogus")

    def test_requires_zero_source(self):
        k = 5.0
        problem = methods.ProblemSpec(domain=meshing.unit_square(), k=k, f=2.0)
        mesh = meshing.triangulate(problem.domain, 0.5)
        space = spaces.trefftz_space(mesh, k, spaces.PlaneWaveBasis(k, 5))
        with pytest.raises(ValueError):
            methods.solve_pwdg(problem, space)


class TestApproxStudy:
    def test_membership_gives_machine_error(self):
        k = 5.0
        target = methods.plane_wave_2d(k, direction=(1.0, 0.0))
        space = trefftz_square(k, 0.35, spaces.PlaneWaveBasis(k, 5))
        out = methods.best_approximation_1k(target, space, 1e-12)
        assert out.report.norm_1k_rel < 1e-10
        assert "solve_residual" not in out.checks

    def test_ghp_p_sweep_decays(self):
        k = 4.0
        target = methods.plane_wave_2d(k)
        errs = []
        for p in range(1, 11):
            space = trefftz_square(k, 0.35, spaces.GhpBasis(k, p))
            out = methods.best_approximation_1k(target, space, 1e-12)
            errs.append(out.report.norm_1k_rel)
        for a, b in zip(errs, errs[1:]):
            assert b <= 1.1 * a + 1e-10
        assert errs[-1] < 1e-4 * errs[0]

    def test_pw_h_sweep_first_order(self):
        k = 4.0
        target = methods.plane_wave_2d(k, direction=(0.8, 0.6))
        series = []
        for h in (0.5, 0.25, 0.125):
            space = trefftz_square(k, h, spaces.PlaneWaveBasis(k, 3))
            rep = methods.best_approximation_1k(target, space, 1e-12).report
            series.append((rep.h, rep.h1_semi_rel))
        slope, _, _ = analysis.fit_rate(series, window=3)
        assert 0.7 <= slope <= 1.3

    def test_conforming_space_takes_the_sparse_lu(self):
        # the Gram matrix of an H1 space is positive definite: without a
        # cutoff the projection is a sparse LU and equals the truncated
        # solve, which drops nothing there
        k = 4.0
        target = methods.plane_wave_2d(k)
        space = spaces.h1_space(
            meshing.triangulate(meshing.unit_square(), 0.25), 2)
        lu = methods.best_approximation_1k(target, space, None)
        svd = methods.best_approximation_1k(target, space, 1e-12)
        assert lu.result.strategy == "sparse_lu"
        assert lu.result.ordering == "MMD_AT_PLUS_A"
        assert svd.result.svd_dropped == 0
        assert lu.report.norm_1k_rel == pytest.approx(
            svd.report.norm_1k_rel, rel=1e-10)
        # the (1,k) projection is no worse than the Galerkin solution
        galerkin = methods.solve_fem(methods.plane_wave_problem(k), space)
        assert lu.report.norm_1k_rel <= galerkin.report.norm_1k_rel


def _infsup_row_reference(problem, p, khp=0.25):
    """h, dofs, n_lambda and gamma_n of an inf-sup row computed in place:
    the free blocks cut by scipy's fancy indexing."""
    k = problem.k
    n = max(p, round(k / (khp * p)))
    mesh = meshing.triangulate(problem.domain, 1.0 / n)
    space = spaces.h1_space(mesh, p)
    system = assembly.assemble_galerkin(
        space, k, f=problem.f, g=problem.g, bc=problem.bc,
        robin_sign=problem.robin_sign)
    gram = assembly.assemble_gram_1k(space, k)
    a_mat = system.A[system.free][:, system.free]
    g_mat = gram[system.free][:, system.free]
    nfree = a_mat.shape[0]
    return (space, mesh.h, nfree, meshing.n_lambda(nfree, k, 1),
            assembly.infsup_probe(a_mat, g_mat))


class TestInfsupConstant:
    @pytest.mark.parametrize("robin_sign", [1.0, -1.0])
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("k", [4.0, 8.0, 16.0, 32.0])
    def test_matches_free_blocks_cut_in_place(self, k, p, robin_sign):
        problem = methods.model_problem_1d(k, robin_sign=robin_sign)
        space, h, dofs, n_lam, gamma = _infsup_row_reference(problem, p)
        out = methods.infsup_constant(problem, space)
        rep = out.report
        assert (rep.h, rep.dofs, rep.n_lambda) == (h, dofs, n_lam)
        assert np.float64(rep.gamma_n).tobytes() == np.float64(gamma).tobytes()
        assert out.coeffs is None and out.result is None
        assert rep.h1_semi_rel is None and rep.l2_rel is None

    @pytest.mark.parametrize("dim", [1, 2])
    def test_loads_are_never_evaluated(self, dim):
        # the constant and the H1 projection read only the Galerkin matrix:
        # with source and Robin data that raise they give the same bits
        def refuse(pts):
            raise AssertionError("a load was evaluated")

        if dim == 1:
            problem, h = methods.model_problem_1d(12.0), 1.0 / 48
        else:
            problem, h = methods.plane_wave_problem(4.0), 0.25
        silent = dataclasses.replace(problem, f=refuse, g=refuse)
        mesh = meshing.triangulate(problem.domain, h)
        results = []
        for prob in (problem, silent):
            space = spaces.h1_space(mesh, 2)
            gamma = methods.infsup_constant(prob, space).report.gamma_n
            coeffs, best = methods.h1_best_approximation(prob, space)
            results.append((np.float64(gamma).tobytes(), coeffs.tobytes(),
                            np.float64(best).tobytes()))
        assert results[0] == results[1]

    def test_all_dofs_free_without_dirichlet(self):
        problem = methods.plane_wave_problem(4.0)
        space = spaces.h1_space(meshing.triangulate(problem.domain, 0.5), 1)
        out = methods.infsup_constant(problem, space)
        assert out.system.free is None
        assert out.report.dofs == space.ndof
        assert out.report.n_lambda == meshing.n_lambda(space.ndof, 4.0, 2)
        assert 0.0 < out.report.gamma_n < 1.0
