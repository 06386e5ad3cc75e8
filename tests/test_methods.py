"""Tests for the end-to-end solver drivers and exact solutions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmholtz_lab import analysis, assembly, meshing, methods, spaces
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
        exact = methods.exact_solution(name, 12.0)
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
        exact = methods.exact_solution(name, 3.0)
        if name == "model1d":
            x = np.linspace(0.0, 1.0, 9)
        else:
            x = np.array([[0.0, 0.0], [0.3, 0.4], [-0.5, 0.25]])
        u, g = exact.eval(x)
        assert u.tobytes() == exact.value(x).tobytes()
        assert g.tobytes() == exact.gradient(x).tobytes()

    def test_factory_dispatch(self):
        assert methods.exact_solution("pw2d", 3.0).id == "pw2d"
        assert methods.exact_solution("model1d", 3.0).source == 1.0
        with pytest.raises(ValueError):
            methods.exact_solution("nope", 3.0)

    @pytest.mark.parametrize("maker,kw", [
        (methods.model_problem_1d, {"k": 7.0}),
        (methods.plane_wave_problem, {"k": 12.0}),
        (methods.lshape_singular_problem, {"k": 4.0}),
        (methods.lshape_plane_wave_problem, {"k": 6.0}),
        (methods.lshape_singular_problem, {"k": 4.0, "robin_sign": 1.0}),
    ])
    def test_declared_solutions_verify(self, maker, kw):
        problem = maker(**kw)
        resid = methods.verify_exact_solution(problem,
                                              rng=np.random.default_rng(2))
        assert resid["pde"] < 1e-8
        assert resid["gradient"] < 1e-6
        assert resid["boundary"] < 1e-8


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

    @pytest.mark.parametrize("domain,normal_fn", [
        (meshing.unit_square(), methods._square_normal),
        (meshing.l_shape(), methods._lshape_normal),
    ])
    def test_inferred_normals_match_mesh(self, domain, normal_fn):
        mesh = meshing.triangulate(domain, 0.25)
        for edge in mesh.boundary_edges():
            mid = mesh.nodes[list(edge.nodes)].mean(axis=0)
            inferred = normal_fn(mid[None, :])[0]
            assert np.allclose(inferred, edge.normal, atol=1e-12), (
                f"normal mismatch at {mid}")


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


class TestScaleResolution:
    def test_worked_example(self):
        ok, margins = methods.scale_resolution_check(10.0, 0.1, 2, 2)
        assert not ok
        assert abs(margins["oscillation"] - 0.5) < 1e-12
        assert margins["degree"] < 0.0
        assert margins["levels"] >= 0.0

    def test_unit_wavenumber_degree_condition_trivial(self):
        ok, margins = methods.scale_resolution_check(1.0, 0.5, 1, 1)
        assert margins["degree"] == 1.0
        assert ok

    def test_p_improves_resolution_margins(self):
        k, h, L = 20.0, 0.05, 12
        prev_osc, prev_deg = -np.inf, -np.inf
        for p in range(1, 9):
            _, margins = methods.scale_resolution_check(k, h, p, L)
            assert margins["oscillation"] >= prev_osc
            assert margins["degree"] >= prev_deg
            prev_osc = margins["oscillation"]
            prev_deg = margins["degree"]

    def test_levels_condition_caps_p(self):
        ok_small, _ = methods.scale_resolution_check(1.0, 0.1, 2, 2)
        ok_large, margins = methods.scale_resolution_check(1.0, 0.1, 3, 2)
        assert ok_small
        assert not ok_large
        assert margins["levels"] == -1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            methods.scale_resolution_check(0.0, 0.1, 1, 1)


class TestApproxStudy:
    def test_membership_gives_machine_error(self):
        k = 5.0
        target = methods.plane_wave_2d(k, direction=(1.0, 0.0))
        rows = methods.approx_study(target, "pw", "p_sweep", orders=[5])
        assert rows[0]["err_1k_rel"] < 1e-10

    def test_ghp_p_sweep_decays(self):
        k = 4.0
        target = methods.plane_wave_2d(k)
        rows = methods.approx_study(target, "ghp", "p_sweep",
                                    orders=range(1, 11))
        errs = [r["err_1k_rel"] for r in rows]
        for a, b in zip(errs, errs[1:]):
            assert b <= 1.1 * a + 1e-10
        assert errs[-1] < 1e-4 * errs[0]

    def test_pw_h_sweep_first_order(self):
        k = 4.0
        target = methods.plane_wave_2d(k, direction=(0.8, 0.6))
        rows = methods.approx_study(target, "pw", "h_sweep", order=3,
                                    hs=(0.5, 0.25, 0.125))
        series = [(r["h"], r["err_h1semi_rel"]) for r in rows]
        slope, _, _ = analysis.fit_rate(series, window=3)
        assert 0.7 <= slope <= 1.3

    def test_invalid_arguments(self):
        target = methods.plane_wave_2d(3.0)
        with pytest.raises(ValueError):
            methods.approx_study(target, "pw", "q_sweep")
        with pytest.raises(ValueError):
            methods.approx_study(target, "fourier", "p_sweep", orders=[2])
