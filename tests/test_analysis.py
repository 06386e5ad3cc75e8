"""Tests for norms, error functionals, and rate fitting."""

import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmholtz_lab import analysis, assembly, meshing, methods, numerics, spaces


def square_mesh(h=0.5):
    return meshing.triangulate(meshing.unit_square(), h)


def single_triangle_mesh():
    base = square_mesh(1.0)
    return meshing.mesh_from_arrays(2, base.nodes[:3], [[0, 2, 1]])


def random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def pair(value, grad):
    """The (values, gradients) callback the error functionals take."""
    return lambda pts: (value(pts), grad(pts))


class TestFitRate:
    def test_exact_power_law(self):
        xs = [1.0, 2.0, 4.0, 8.0, 16.0]
        series = [(x, x**-2) for x in xs]
        slope, intercept, r2 = analysis.fit_rate(series)
        assert abs(slope + 2.0) < 1e-10
        assert abs(intercept) < 1e-9
        assert abs(r2 - 1.0) < 1e-10

    def test_noisy_power_law(self):
        xs = 2.0 ** np.arange(8)
        errs = 3.0 * xs**-1.5 * (1.0 + 0.01 * np.cos(np.arange(8)))
        slope, _, r2 = analysis.fit_rate(list(zip(xs, errs)))
        assert abs(slope + 1.5) < 0.05
        assert r2 > 0.999

    def test_constant_series(self):
        series = [(x, 7.5) for x in [1.0, 2.0, 4.0, 8.0]]
        slope, intercept, r2 = analysis.fit_rate(series)
        assert abs(slope) < 1e-12
        assert abs(intercept - math.log(7.5)) < 1e-12
        assert r2 == 1.0

    def test_trailing_window(self):
        head = [(1.0, 1.0), (2.0, 0.5), (4.0, 0.25)]
        tail = [(x, 5.0 * x**-3) for x in [8.0, 16.0, 32.0, 64.0]]
        slope, _, _ = analysis.fit_rate(head + tail)
        assert abs(slope + 3.0) < 1e-10

    def test_window_larger_than_series(self):
        series = [(x, x**-1) for x in [1.0, 2.0, 4.0]]
        slope, _, _ = analysis.fit_rate(series, window=10)
        assert abs(slope + 1.0) < 1e-10

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            analysis.fit_rate([(1.0, 1.0), (2.0, 0.5)])

    def test_nonpositive_error(self):
        with pytest.raises(ValueError):
            analysis.fit_rate([(1.0, 1.0), (2.0, 0.0), (4.0, 0.1)])

    def test_nonpositive_abscissa(self):
        with pytest.raises(ValueError):
            analysis.fit_rate([(-1.0, 1.0), (2.0, 0.5), (4.0, 0.25)])


class TestRelativeErrors:
    def test_linear_function_exactly_represented(self):
        mesh = square_mesh(0.5)
        space = spaces.h1_space(mesh, 1)
        coeffs = (2.0 * mesh.nodes[:, 0] - mesh.nodes[:, 1] + 0.5).astype(complex)

        def value(pts):
            return 2.0 * pts[:, 0] - pts[:, 1] + 0.5

        def grad(pts):
            g = np.zeros((len(pts), 2), dtype=complex)
            g[:, 0] = 2.0
            g[:, 1] = -1.0
            return g

        h1, l2, e1k = analysis.relative_errors(space, coeffs, pair(value, grad), 3.0)
        assert h1 < 1e-13
        assert l2 < 1e-13
        assert e1k < 1e-13

    def test_interpolated_quadratic_closed_form_1d(self):
        n = 4
        mesh = meshing.triangulate(meshing.unit_interval(), 1.0 / n)
        space = spaces.h1_space(mesh, 1)
        coeffs = (mesh.nodes**2).astype(complex)
        k = 3.0

        def value(pts):
            return pts**2

        def grad(pts):
            return 2.0 * pts

        h1, l2, e1k = analysis.relative_errors(space, coeffs, pair(value, grad), k)
        h = 1.0 / n
        num_h1, den_h1 = h**2 / 3.0, 4.0 / 3.0
        num_l2, den_l2 = h**4 / 30.0, 1.0 / 5.0
        assert abs(h1 - math.sqrt(num_h1 / den_h1)) < 1e-12
        assert abs(l2 - math.sqrt(num_l2 / den_l2)) < 1e-12
        want = math.sqrt((k**2 * num_l2 + num_h1) / (k**2 * den_l2 + den_h1))
        assert abs(e1k - want) < 1e-12

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_pull_back_matches_physical_evaluation(self, p, monkeypatch):
        # The 2D polynomial space integrates by pulling reference tables
        # back through each element's Jacobian; the shared path evaluates
        # the basis at physical points.  Matrices and error sums agree.
        mesh = meshing.triangulate(meshing.l_shape(), 0.5)
        space = spaces.h1_space(mesh, p)
        rng = np.random.default_rng(11)
        coeffs = random_complex(rng, space.ndof)
        k = 3.0
        d = np.array([0.6, 0.8])

        def value(pts):
            return np.exp(1j * k * (pts @ d))

        def grad(pts):
            return 1j * k * d[None, :] * np.exp(1j * k * (pts @ d))[:, None]

        def run():
            errs = analysis.relative_errors(space, coeffs, pair(value, grad), k,
                                            exclude_radius=0.3)
            return np.array(errs), assembly.assemble_galerkin(space, k).A.toarray()

        pulled_errs, pulled_a = run()
        monkeypatch.setattr(spaces.H1Space, "field", spaces._Space.field)
        monkeypatch.setattr(spaces.H1Space, "element_matrices",
                            spaces._Space.element_matrices)
        physical_errs, physical_a = run()
        np.testing.assert_allclose(pulled_errs, physical_errs, rtol=1e-11)
        np.testing.assert_allclose(pulled_a, physical_a, rtol=0,
                                   atol=1e-12 * np.abs(physical_a).max())

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("graded", [False, True],
                             ids=["lshape", "graded"])
    def test_pull_back_field_matches_physical_evaluation(self, p, graded):
        # H1Space.field contracts reference tables with GEMMs and applies
        # each element's inverse transposed Jacobian; the shared path
        # evaluates the basis at the mapped points.
        mesh = meshing.triangulate(meshing.l_shape(), 0.5)
        if graded:
            mesh = meshing.geometric_refine(mesh, [(0.0, 0.0)], 0.125, 6)
        space = spaces.h1_space(mesh, p)
        coeffs = random_complex(np.random.default_rng(5), space.ndof)
        rule = numerics.quad_triangle(2 * p + 2)
        elems = np.arange(mesh.n_elements)
        pulled = space.field(elems, coeffs, rule)
        physical = spaces._Space.field(space, elems, coeffs, rule)
        for got, want in zip(pulled, physical):
            assert got.shape == want.shape
            # per element, relative to the element's largest value, since
            # gradients grow like 1/diameter into the graded corner
            scale = np.abs(want).reshape(len(elems), -1).max(axis=1)
            diff = np.abs(got - want).reshape(len(elems), -1).max(axis=1)
            assert np.all(diff <= 1e-13 * scale)

    def test_trefftz_plane_wave_zero_error(self):
        k = 6.0
        mesh = square_mesh(0.5)
        space = spaces.trefftz_space(mesh, k, spaces.PlaneWaveBasis(k, 5))
        d = space.local.directions[0]
        coeffs = np.zeros(space.ndof, dtype=complex)
        for ei in range(mesh.n_elements):
            coeffs[space.element_dofs(ei)[0]] = np.exp(
                1j * k * mesh.centroids()[ei] @ d)

        def value(pts):
            return np.exp(1j * k * (pts @ d))

        def grad(pts):
            return 1j * k * d[None, :] * np.exp(1j * k * (pts @ d))[:, None]

        h1, l2, e1k = analysis.relative_errors(space, coeffs, pair(value, grad), k)
        assert h1 < 1e-10
        assert l2 < 1e-10
        assert e1k < 1e-10

    def test_zero_solution_gives_unit_relative_error(self):
        mesh = square_mesh(0.5)
        space = spaces.h1_space(mesh, 2)
        coeffs = np.zeros(space.ndof, dtype=complex)

        def value(pts):
            return np.ones(len(pts), dtype=complex)

        def grad(pts):
            g = np.zeros((len(pts), 2), dtype=complex)
            g[:, 0] = 1.0
            return g

        h1, l2, e1k = analysis.relative_errors(space, coeffs, pair(value, grad), 2.0)
        assert abs(h1 - 1.0) < 1e-14
        assert abs(l2 - 1.0) < 1e-14
        assert abs(e1k - 1.0) < 1e-14

    def test_exclusion_disk_skips_singular_points(self):
        mesh = square_mesh(0.5)
        space = spaces.h1_space(mesh, 1)
        coeffs = np.zeros(space.ndof, dtype=complex)
        radius = 0.3

        def value(pts):
            r = np.hypot(pts[:, 0], pts[:, 1])
            return np.where(r < radius, np.nan, 1.0).astype(complex)

        def grad(pts):
            r = np.hypot(pts[:, 0], pts[:, 1])
            g = np.where(r < radius, np.nan, 1.0).astype(complex)
            return np.stack([g, np.zeros_like(g)], axis=1)

        with pytest.raises(ValueError, match="exact solution"):
            analysis.relative_errors(space, coeffs, pair(value, grad), 2.0)
        clean = analysis.relative_errors(
            space, coeffs, pair(value, grad), 2.0, exclude_radius=radius)
        assert all(abs(v - 1.0) < 1e-14 for v in clean)


class TestErrorPassRefusals:
    # A wrong coefficient vector, or a sum that is not finite, raises
    # ValueError instead of returning errors, NaN, or a bare IndexError.
    def problem(self):
        space = spaces.h1_space(square_mesh(0.25), 2)
        coeffs = random_complex(np.random.default_rng(7), space.ndof)
        return space, coeffs, methods.plane_wave_2d(3.0).eval

    @pytest.mark.parametrize("extra", [1, -1], ids=["longer", "shorter"])
    def test_coefficient_length(self, extra):
        space, coeffs, exact = self.problem()
        coeffs = np.resize(coeffs, space.ndof + extra)
        match = rf"\({space.ndof + extra},\).* {space.ndof} DOFs"
        with pytest.raises(ValueError, match=match):
            analysis.relative_errors(space, coeffs, exact, 3.0)

    def test_nan_coefficient_names_the_discrete_field(self):
        space, coeffs, exact = self.problem()
        coeffs[5] = np.nan
        with pytest.raises(ValueError, match="discrete field"):
            analysis.relative_errors(space, coeffs, exact, 3.0)

    def test_infinite_exact_value_names_the_exact_solution(self):
        space, coeffs, exact = self.problem()

        def infinite_at_origin(pts):
            u, g = exact(pts)
            return np.where(np.hypot(*pts.T) < 0.1, np.inf, u), g

        with pytest.raises(ValueError, match="exact solution"):
            analysis.relative_errors(space, coeffs, infinite_at_origin, 3.0)

    @pytest.mark.parametrize("extra", [1, -1], ids=["longer", "shorter"])
    def test_nodal_max_coefficient_length(self, extra):
        mesh = meshing.triangulate(meshing.unit_interval(), 0.25)
        space = spaces.h1_space(mesh, 1)
        coeffs = np.zeros(space.ndof + extra, dtype=complex)
        match = rf"\({space.ndof + extra},\).* {space.ndof} DOFs"
        with pytest.raises(ValueError, match=match):
            analysis.nodal_max_error(space, coeffs, np.cos)


# -- the error pass on every space kind ---------------------------------------

# Fixed example sequence, no example database: tier-1 runs stay the same.
ERROR_PASS_SETTINGS = settings(derandomize=True, deadline=None, database=None,
                               max_examples=4)

# (kind, p) of every space the error pass runs on: H1 in 1D, the nodally
# exact space, H1 in 2D on the square, the L-shape and a graded L-shape,
# plane-wave and GHP Trefftz spaces, and PUM.
ERROR_PASS_CASES = (
    [("h1_1d", p) for p in range(1, 5)] + [("nodal", 1)]
    + [(f"h1_{domain}", p) for domain in ("square", "lshape", "graded")
       for p in range(1, 5)]
    + [("pw", 7), ("ghp", 3), ("pum", 3)])


@st.composite
def error_pass_problems(draw, kind, p):
    """A space of the given kind on a drawn mesh and wavenumber, random
    coefficients, and a plane wave in a drawn direction as the
    (values, gradients) callback: (space, coeffs, exact, k)."""
    k = draw(st.floats(1.0, 8.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    if kind in ("h1_1d", "nodal"):
        mesh = meshing.uniform_interval_mesh(draw(st.integers(int(k) + 1, 12)))
        space = (spaces.h1_space(mesh, p) if kind == "h1_1d"
                 else spaces.nodally_exact_space_1d(mesh, k))
        c = 1.0 if theta < math.pi else -1.0  # the direction on the line

        def exact(pts):
            u = np.exp(1j * k * c * pts)
            return u, 1j * k * c * u
    else:
        h = draw(st.sampled_from([1.0, 0.5, 0.35]))
        domain = meshing.unit_square() if kind in ("h1_square", "pw", "ghp",
                                                   "pum") else meshing.l_shape()
        mesh = meshing.triangulate(domain, h)
        if kind == "h1_graded":
            mesh = meshing.geometric_refine(mesh, [(0.0, 0.0)], 0.125, 4)
        if kind.startswith("h1"):
            space = spaces.h1_space(mesh, p)
        elif kind == "pum":
            space = spaces.pum_space(mesh, k, spaces.PlaneWaveBasis(k, p))
        else:
            local = (spaces.PlaneWaveBasis if kind == "pw"
                     else spaces.GhpBasis)(k, p)
            space = spaces.trefftz_space(mesh, k, local)
        exact = methods.plane_wave_2d(k, (math.cos(theta),
                                          math.sin(theta))).eval
    return space, random_complex(rng, space.ndof), exact, k


def abs_square_relative_errors(space, coeffs, exact, k, exclude_radius=0.0):
    """The error pass with |.|^2 from np.abs, (E, Q) weight products and
    axis sums, over one batch of all elements, and the 2D polynomial
    gradients from a 2x2 product per element: the reference that the
    BLAS reductions and the point-bounded batches must match."""
    coeffs = np.asarray(coeffs, dtype=complex)
    mesh = space.mesh
    rule = space.error_rule(k)
    elems = np.arange(mesh.n_elements)
    pts, w = mesh.map_rule(elems, rule)
    if exclude_radius > 0.0 and mesh.dim == 2:
        pts, w = analysis._apply_exclusion(pts, w, exclude_radius,
                                           mesh.centroids())
    if isinstance(space, spaces.H1Space) and mesh.dim == 2:
        vals, grads = space.reference_tables(rule.points)
        c = coeffs[space.dof_matrix()] * space.orientation_signs()
        u_n = c @ vals.T
        g_n = (np.einsum("el,qlr->eqr", c, grads)
               @ mesh.inv_jacobians_t().transpose(0, 2, 1))
    else:
        u_n, g_n = space.field(elems, coeffs, rule)
    u_e, g_e = exact(pts.reshape((-1,) + pts.shape[2:]))
    u_e = np.asarray(u_e, dtype=complex).reshape(w.shape)
    g_e = np.asarray(g_e, dtype=complex).reshape(g_n.shape)
    num_l2 = float(np.sum(w * np.abs(u_e - u_n) ** 2))
    den_l2 = float(np.sum(w * np.abs(u_e) ** 2))
    num_h1 = float(np.sum(w * (np.abs(g_e - g_n) ** 2).sum(axis=-1)))
    den_h1 = float(np.sum(w * (np.abs(g_e) ** 2).sum(axis=-1)))
    kk = k**2
    return (math.sqrt(num_h1 / den_h1), math.sqrt(num_l2 / den_l2),
            math.sqrt((kk * num_l2 + num_h1) / (kk * den_l2 + den_h1)))


def volume_pass_bytes(space, k):
    """Bytes of every volume-pass product: the Galerkin matrix, mass and
    load with a source and Robin data for a conforming space, the (1,k)
    projection system otherwise."""
    def data(pts):
        x = pts if pts.ndim == 1 else pts[:, 0] - 0.5 * pts[:, 1]
        return np.exp(1j * k * x)

    if space.conforming:
        system = assembly.assemble_galerkin(space, k, f=data, g=data)
        parts = (system.A, system.mass, system.rhs)
    else:
        system = assembly.assemble_projection_1k(
            space, k, lambda pts: (data(pts), np.ones((len(pts), 2))))
        parts = (system.A, system.rhs)
    return [part.tobytes() if isinstance(part, np.ndarray)
            else (part.indptr.tobytes(), part.indices.tobytes(),
                  part.data.tobytes())
            for part in parts]


@pytest.mark.parametrize("exclude", [0.0, 0.3], ids=["full", "excluded"])
@pytest.mark.parametrize("kind, p", ERROR_PASS_CASES,
                         ids=[f"{kind}-p{p}" for kind, p in ERROR_PASS_CASES])
class TestErrorPass:
    @ERROR_PASS_SETTINGS
    @given(data=st.data())
    def test_matches_abs_square_reference(self, kind, p, exclude, data):
        space, coeffs, exact, k = data.draw(error_pass_problems(kind, p))
        got = analysis.relative_errors(space, coeffs, exact, k,
                                       exclude_radius=exclude)
        want = abs_square_relative_errors(space, coeffs, exact, k, exclude)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    # fewer examples: one element per batch makes each pass a Python loop
    @settings(ERROR_PASS_SETTINGS, max_examples=2)
    @given(data=st.data())
    def test_batch_bound_moves_errors_at_roundoff_only(self, kind, p,
                                                       exclude, data):
        # One element's error points per batch, or the whole mesh in one
        # batch: the error sums change order, the volume passes nothing.
        space, coeffs, exact, k = data.draw(error_pass_problems(kind, p))

        def run():
            return (analysis.relative_errors(space, coeffs, exact, k,
                                             exclude_radius=exclude),
                    volume_pass_bytes(space, k))

        errors, volume = run()
        one_element = len(space.error_rule(k).weights)
        for bound in (one_element, sys.maxsize):
            with mock.patch.object(spaces, "_BATCH_POINTS", bound):
                n_batches = len(list(space.element_batches(one_element)))
                got_errors, got_volume = run()
            assert n_batches == (space.mesh.n_elements
                                 if bound == one_element else 1)
            np.testing.assert_allclose(got_errors, errors, rtol=1e-14, atol=0)
            assert got_volume == volume


def test_error_pass_memory_is_bounded_by_the_batch():
    # p=1 on the 192 x 192 square, the largest fem2d_h system (2.65M error
    # points): one call's allocations stay those of one point-bounded
    # batch, 2.9 MB at 16,384 points (about 175 B a point), where the
    # pass with 65,536 points a batch and two difference buffers of its
    # own peaked at 14.6 MB and batches bounded by table entries alone
    # (333k points) at 68 MB.  The bound leaves 1.1 MB, 38%, for
    # temporaries that other NumPy versions may add.
    mesh = meshing.triangulate(meshing.unit_square(), 1.0 / 192)
    space = spaces.h1_space(mesh, 1)
    coeffs = random_complex(np.random.default_rng(3), space.ndof)
    exact = methods.plane_wave_2d(40.0).eval
    analysis.relative_errors(space, coeffs, exact, 40.0)  # fills mesh caches
    tracemalloc.start()
    try:
        analysis.relative_errors(space, coeffs, exact, 40.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def copying_relative_errors(space, coeffs, exact, k):
    """The error pass with a fresh array for every difference and every
    square: the reference that the in-place sums must match bit for bit."""
    def square_sum(w, z):
        zf = np.ascontiguousarray(z).view(float).reshape(len(w), -1)
        return float((w @ (zf * zf)).sum())

    coeffs = np.asarray(coeffs, dtype=complex)
    rule = space.error_rule(k)
    num_l2 = den_l2 = num_h1 = den_h1 = 0.0
    for elems in space.element_batches(len(rule.weights)):
        pts, w = space.mesh.map_rule(elems, rule)
        u_n, g_n = space.field(elems, coeffs, rule)
        u_e, g_e = exact(pts.reshape((-1,) + pts.shape[2:]))
        u_e = np.asarray(u_e, dtype=complex).reshape(w.shape)
        g_e = np.asarray(g_e, dtype=complex).reshape(g_n.shape)
        w = w.ravel()
        num_l2 += square_sum(w, u_e - u_n)
        den_l2 += square_sum(w, u_e)
        num_h1 += square_sum(w, g_e - g_n)
        den_h1 += square_sum(w, g_e)
    kk = float(k) ** 2
    return (analysis._rel(num_h1, den_h1), analysis._rel(num_l2, den_l2),
            analysis._rel(kk * num_l2 + num_h1, kk * den_l2 + den_h1))


IN_PLACE_CASES = ([("h1_1d", p) for p in range(1, 5)]
                  + [("nodal", 1), ("h1_square", 2), ("pw", 7), ("ghp", 3)])


@pytest.mark.parametrize("kind, p", IN_PLACE_CASES,
                         ids=[f"{kind}-p{p}" for kind, p in IN_PLACE_CASES])
class TestInPlaceErrorSums:
    @ERROR_PASS_SETTINGS
    @given(data=st.data())
    def test_bitwise_equal_to_copying_sums(self, kind, p, data):
        space, coeffs, exact, k = data.draw(error_pass_problems(kind, p))
        got = analysis.relative_errors(space, coeffs, exact, k)
        assert got == copying_relative_errors(space, coeffs, exact, k)

    @settings(ERROR_PASS_SETTINGS, max_examples=1)
    @given(data=st.data())
    def test_exact_arrays_only_read(self, kind, p, data):
        # a callback that hands out the same cached arrays on every call
        space, coeffs, exact, k = data.draw(error_pass_problems(kind, p))
        cache = {}

        def cached(pts):
            key = pts.tobytes()
            if key not in cache:
                cache[key] = exact(pts)
            return cache[key]

        first = analysis.relative_errors(space, coeffs, cached, k)
        saved = [a.tobytes() for pair in cache.values() for a in pair]
        assert analysis.relative_errors(space, coeffs, cached, k) == first
        assert [a.tobytes() for pair in cache.values() for a in pair] == saved


class TestNodalMax:
    def test_exact_nodal_values(self):
        mesh = meshing.triangulate(meshing.unit_interval(), 0.1)
        space = spaces.h1_space(mesh, 1)

        def value(pts):
            return np.sin(2.0 * pts) + 1j * pts

        coeffs = value(mesh.nodes).astype(complex)
        assert analysis.nodal_max_error(space, coeffs, value) < 1e-14

    def test_single_perturbation_is_measured(self):
        mesh = meshing.triangulate(meshing.unit_interval(), 0.25)
        space = spaces.h1_space(mesh, 1)

        def value(pts):
            return np.cos(pts).astype(complex)

        coeffs = value(mesh.nodes).astype(complex)
        coeffs[2] += 1e-3
        err = analysis.nodal_max_error(space, coeffs, value)
        assert abs(err - 1e-3) < 1e-12


class TestDgNorm:
    def trefftz(self, k=6.0, h=0.5, p=5):
        mesh = square_mesh(h)
        return spaces.trefftz_space(mesh, k, spaces.PlaneWaveBasis(k, p))

    def test_zero_coeffs(self):
        space = self.trefftz()
        flux = assembly.uwvf_fluxes()
        assert analysis.dg_norm(space, np.zeros(space.ndof), flux, 6.0) == 0.0
        assert analysis.dg_plus_norm(space, np.zeros(space.ndof), flux, 6.0) == 0.0

    @pytest.mark.parametrize("flux_name", ["uwvf", "hmp", "random"])
    @settings(derandomize=True, deadline=None, database=None, max_examples=10)
    @given(seed=st.integers(0, 2**16))
    def test_square_equals_imag_quadratic_form(self, flux_name, seed):
        # Im(x^H A x) of the PWDG matrix is the squared DG norm of x for
        # every x and every admissible flux, here also random per-edge
        # alpha, beta > 0 and delta in (0, 1)
        k = 6.0
        space = self.trefftz(k=k)
        rng = np.random.default_rng(seed)
        n_edges = len(space.mesh.edge_lengths)
        flux = {
            "uwvf": assembly.uwvf_fluxes,
            "hmp": lambda: assembly.hmp_fluxes(space),
            "random": lambda: assembly.FluxParams(
                alpha=np.exp(rng.uniform(-2.0, 2.0, n_edges)),
                beta=np.exp(rng.uniform(-2.0, 2.0, n_edges)),
                delta=rng.uniform(0.05, 0.95, n_edges)),
        }[flux_name]()
        system = assembly.assemble_pwdg(space, k, lambda pts: np.zeros(len(pts)),
                                        flux)
        v = random_complex(rng, space.ndof)
        lhs = analysis.dg_norm(space, v, flux, k) ** 2
        rhs = float(np.imag(np.vdot(v, system.A @ v)))
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)

    def test_single_element_closed_form(self):
        k = 4.0
        mesh = single_triangle_mesh()
        space = spaces.trefftz_space(mesh, k, spaces.PlaneWaveBasis(k, 4))
        d = space.local.directions[1]
        coeffs = np.zeros(space.ndof, dtype=complex)
        coeffs[1] = 1.0
        delta = 0.5
        flux = assembly.uwvf_fluxes()
        want_sq = 0.0
        plus_extra = 0.0
        for edge in mesh.boundary_edges():
            dn = float(d @ edge.normal)
            want_sq += k * (delta * dn**2 + (1.0 - delta)) * edge.length
            plus_extra += k / delta * edge.length
        got = analysis.dg_norm(space, coeffs, flux, k)
        assert abs(got - math.sqrt(want_sq)) < 1e-10 * math.sqrt(want_sq)
        got_plus = analysis.dg_plus_norm(space, coeffs, flux, k)
        want_plus = math.sqrt(want_sq + plus_extra)
        assert abs(got_plus - want_plus) < 1e-10 * want_plus

    def test_homogeneity(self):
        space = self.trefftz()
        flux = assembly.hmp_fluxes(space)
        rng = np.random.default_rng(7)
        v = random_complex(rng, space.ndof)
        lam = 0.3 - 2.0j
        for norm in (analysis.dg_norm, analysis.dg_plus_norm):
            a = norm(space, lam * v, flux, 6.0)
            b = abs(lam) * norm(space, v, flux, 6.0)
            assert abs(a - b) < 1e-12 * b

    def test_triangle_inequality(self):
        space = self.trefftz()
        flux = assembly.uwvf_fluxes()
        rng = np.random.default_rng(9)
        for _ in range(20):
            u = random_complex(rng, space.ndof)
            v = random_complex(rng, space.ndof)
            lhs = analysis.dg_norm(space, u + v, flux, 6.0)
            rhs = (analysis.dg_norm(space, u, flux, 6.0)
                   + analysis.dg_norm(space, v, flux, 6.0))
            assert lhs <= rhs + 1e-10

    def test_plus_dominates(self):
        space = self.trefftz()
        flux = assembly.uwvf_fluxes()
        rng = np.random.default_rng(13)
        for _ in range(50):
            v = random_complex(rng, space.ndof)
            assert (analysis.dg_plus_norm(space, v, flux, 6.0)
                    >= analysis.dg_norm(space, v, flux, 6.0))

    def test_invalid_flux_rejected(self):
        space = self.trefftz()
        v = np.ones(space.ndof, dtype=complex)
        bad_alpha = assembly.FluxParams(alpha=-1.0, beta=0.5, delta=0.5)
        with pytest.raises(ValueError):
            analysis.dg_norm(space, v, bad_alpha, 6.0)
        bad_delta = assembly.FluxParams(alpha=0.5, beta=0.5, delta=1.2)
        with pytest.raises(ValueError):
            analysis.dg_norm(space, v, bad_delta, 6.0)

    def test_rejects_1d(self):
        mesh = meshing.triangulate(meshing.unit_interval(), 0.25)
        space = spaces.h1_space(mesh, 1)
        with pytest.raises(ValueError):
            analysis.dg_norm(space, np.zeros(space.ndof),
                             assembly.uwvf_fluxes(), 2.0)


class TestDgErrorNorm:
    def make_wave(self, k, mesh, p=5):
        space = spaces.trefftz_space(mesh, k, spaces.PlaneWaveBasis(k, p))
        d = space.local.directions[0]
        coeffs = np.zeros(space.ndof, dtype=complex)
        for ei in range(mesh.n_elements):
            coeffs[space.element_dofs(ei)[0]] = np.exp(
                1j * k * mesh.centroids()[ei] @ d)

        def value(pts):
            return np.exp(1j * k * (pts @ d))

        def grad(pts):
            return 1j * k * d[None, :] * np.exp(1j * k * (pts @ d))[:, None]

        return space, coeffs, value, grad

    def test_zero_for_represented_solution(self):
        k = 6.0
        mesh = square_mesh(0.5)
        space, coeffs, value, grad = self.make_wave(k, mesh)
        flux = assembly.uwvf_fluxes()
        err = analysis.dg_error_norm(space, coeffs, flux, k, pair(value, grad))
        assert err < 1e-10

    def test_zero_coeffs_give_exact_boundary_norm(self):
        k = 6.0
        mesh = square_mesh(0.5)
        space, _, value, grad = self.make_wave(k, mesh)
        flux = assembly.uwvf_fluxes()
        zero = np.zeros(space.ndof, dtype=complex)
        err = analysis.dg_error_norm(space, zero, flux, k, pair(value, grad))
        d = space.local.directions[0]
        delta = 0.5
        want_sq = 0.0
        for edge in mesh.boundary_edges():
            dn = float(d @ edge.normal)
            want_sq += k * (delta * dn**2 + (1.0 - delta)) * edge.length
        assert abs(err - math.sqrt(want_sq)) < 1e-10 * math.sqrt(want_sq)

    def test_plus_variant_dominates(self):
        k = 6.0
        mesh = square_mesh(0.5)
        space, _, value, grad = self.make_wave(k, mesh)
        flux = assembly.uwvf_fluxes()
        rng = np.random.default_rng(23)
        v = random_complex(rng, space.ndof)
        base = analysis.dg_error_norm(space, v, flux, k, pair(value, grad))
        plus = analysis.dg_error_norm(space, v, flux, k, pair(value, grad), plus=True)
        assert plus >= base


def one_norm_square(space, coeffs, flux, k, plus, exact=None):
    """Squared skeleton norm, the DG or the DG+ one, from its own pass
    over the skeleton."""
    mesh = space.mesh
    coeffs = np.asarray(coeffs, dtype=complex)
    interior = np.flatnonzero(~mesh.boundary_mask)
    boundary = np.flatnonzero(mesh.boundary_mask)
    total = 0.0
    for edges, t, ds in space.edge_batches(k, interior):
        alpha, beta, _ = (a[:, None] for a in flux.on_edges(edges))
        pts, ((u_p, gn_p), (u_m, gn_m)) = space.edge_field(edges, coeffs, t)
        if exact is not None:
            u_e, gn_e = analysis._exact_traces(space.mesh, edges, pts, exact)
            u_p, u_m = u_e - u_p, u_e - u_m
            gn_p, gn_m = gn_e - gn_p, gn_e - gn_m
        sq = (beta / k * np.abs(gn_p - gn_m) ** 2
              + k * alpha * np.abs(u_p - u_m) ** 2)
        if plus:
            sq = sq + ((k / beta + 1.0 / (k * alpha))
                       * np.abs(0.5 * (u_p + u_m)) ** 2)
        total += float(np.sum(ds * sq))
    for edges, t, ds in space.edge_batches(k, boundary):
        delta = flux.on_edges(edges)[2][:, None]
        pts, ((u, gn),) = space.edge_field(edges, coeffs, t)
        if exact is not None:
            u_e, gn_e = analysis._exact_traces(space.mesh, edges, pts, exact)
            u, gn = u_e - u, gn_e - gn
        sq = delta / k * np.abs(gn) ** 2 + k * (1.0 - delta) * np.abs(u) ** 2
        if plus:
            sq = sq + k / delta * np.abs(u) ** 2
        total += float(np.sum(ds * sq))
    return total


class TestDgErrorNorms:
    @settings(derandomize=True, deadline=None, database=None, max_examples=30)
    @given(st.sampled_from(["uwvf", "hmp", "h_version"]),
           st.sampled_from(["pw", "ghp"]), st.integers(1, 9),
           st.floats(2.0, 12.0), st.sampled_from([1.0, 0.5, 0.35]),
           st.integers(0, 2**16))
    def test_one_pass_equals_one_norm_per_pass(self, flux_name, basis, p, k,
                                               h, seed):
        mesh = meshing.triangulate(meshing.unit_square(), h)
        local = (spaces.PlaneWaveBasis(k, p + 1) if basis == "pw"
                 else spaces.GhpBasis(k, p))
        space = spaces.trefftz_space(mesh, k, local)
        flux = methods._resolve_flux(flux_name, space)
        coeffs = random_complex(np.random.default_rng(seed), space.ndof)
        exact = methods.plane_wave_2d(k).eval
        want = [math.sqrt(max(one_norm_square(space, coeffs, flux, k, plus,
                                              exact), 0.0))
                for plus in (False, True)]
        assert analysis.dg_error_norms(space, coeffs, flux, k, exact) == tuple(want)
        assert [analysis.dg_error_norm(space, coeffs, flux, k, exact, plus=plus)
                for plus in (False, True)] == want
        assert [analysis.dg_norm(space, coeffs, flux, k),
                analysis.dg_plus_norm(space, coeffs, flux, k)] == [
            math.sqrt(max(one_norm_square(space, coeffs, flux, k, plus), 0.0))
            for plus in (False, True)]


class TestJFunctional:
    def setup_system(self, k=5.0):
        mesh = square_mesh(0.5)
        space = spaces.trefftz_space(mesh, k, spaces.PlaneWaveBasis(k, 5))

        def g(pts):
            return np.exp(1j * k * (0.3 * pts[:, 0] + 0.95 * pts[:, 1]))

        system = assembly.assemble_least_squares(space, k, g)
        return space, system, g

    def test_matches_normal_equation_algebra(self):
        k = 5.0
        space, system, g = self.setup_system(k)
        a = system.A
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = random_complex(rng, space.ndof)
            direct = analysis.j_functional(space, x, k, g)
            algebra = (np.vdot(x, a @ x).real
                       - 2.0 * np.real(np.vdot(x, system.rhs))
                       + system.meta["g_norm2"])
            assert abs(direct - algebra) < 1e-10 * max(1.0, abs(algebra))

    def test_zero_coeffs_give_data_norm(self):
        k = 5.0
        space, system, g = self.setup_system(k)
        direct = analysis.j_functional(space, np.zeros(space.ndof), k, g)
        assert abs(direct - system.meta["g_norm2"]) < 1e-12 * system.meta["g_norm2"]

    def test_default_weights(self):
        k = 5.0
        space, _, g = self.setup_system(k)
        rng = np.random.default_rng(17)
        x = random_complex(rng, space.ndof)
        assert (analysis.j_functional(space, x, k, g)
                == analysis.j_functional(space, x, k, g, w1=k, w2=1.0))


class TestErrorReport:
    def test_defaults(self):
        rep = analysis.ErrorReport(k=4.0, h=0.5, p=2, dofs=10, method="fem")
        assert rep.dg_norm is None
        assert rep.j_value is None
        assert rep.method == "fem"
        assert rep.dofs == 10
