"""Discrete spaces: dimensions, conformity, wave bases, evaluation."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helmholtz_lab import spaces
from helmholtz_lab.meshing import (
    geometric_refine,
    l_shape,
    triangulate,
    uniform_interval_mesh,
    unit_square,
)
from helmholtz_lab.numerics import _expi, bessel_j, gauss_interval, quad_triangle
from helmholtz_lab.spaces import (
    GhpBasis,
    PlaneWaveBasis,
    evaluate,
    h1_space,
    integrated_legendre,
    near_unity_deficit,
    near_unity_element,
    nodally_exact_space_1d,
    pum_space,
    trefftz_space,
)


def random_points_in(mesh, ei, n, rng):
    """Uniform-ish random points strictly inside element ei."""
    if mesh.dim == 1:
        x0, x1 = np.sort(mesh.nodes[mesh.elements[ei]])
        return x0 + (x1 - x0) * rng.uniform(0.05, 0.95, size=n)
    bary = rng.dirichlet(np.ones(3), size=n)
    return bary @ mesh.nodes[mesh.elements[ei]]


def edge_points(mesh, edge, n):
    a, b = mesh.nodes[edge.nodes[0]], mesh.nodes[edge.nodes[1]]
    t = np.linspace(0.12, 0.88, n)[:, None]
    return a + t * (b - a)


def trace_mismatch(space, coeffs, n_pts=7):
    """Max interior-edge trace jump of the function with given coeffs."""
    mesh = space.mesh
    worst = 0.0
    for edge in mesh.interior_edges():
        pts = edge_points(mesh, edge, n_pts)
        sides = []
        for ei in edge.elems:
            vals, _ = space.eval_basis(ei, pts)
            sides.append(vals @ coeffs[space.element_dofs(ei)])
        worst = max(worst, float(np.max(np.abs(sides[0] - sides[1]))))
    return worst


class TestH1Dimensions:
    def test_1d_p1(self):
        space = h1_space(uniform_interval_mesh(4), 1)
        assert space.ndof == 5

    def test_1d_p3(self):
        space = h1_space(uniform_interval_mesh(4), 3)
        assert space.ndof == 13

    def test_2d_p2_euler_count(self):
        mesh = triangulate(unit_square(), 0.5)
        space = h1_space(mesh, 2)
        n_edges = len(mesh.edge_nodes)
        # Euler: V - E + (F+1) = 2 for a planar triangulation of a disk
        assert mesh.n_nodes - n_edges + mesh.n_elements + 1 == 2
        assert space.ndof == mesh.n_nodes + n_edges

    def test_2d_general_count(self):
        mesh = triangulate(l_shape(), 0.5)
        for p in (3, 5):
            space = h1_space(mesh, p)
            expect = (
                mesh.n_nodes
                + len(mesh.edge_nodes) * (p - 1)
                + mesh.n_elements * (p - 1) * (p - 2) // 2
            )
            assert space.ndof == expect

    def test_degree_caps(self):
        with pytest.raises(ValueError):
            h1_space(uniform_interval_mesh(2), 5)
        with pytest.raises(ValueError):
            h1_space(triangulate(unit_square(), 0.5), 11)
        with pytest.raises(ValueError):
            h1_space(uniform_interval_mesh(2), 0)


class TestH1Shape:
    def test_partition_of_unity(self):
        mesh = triangulate(unit_square(), 0.5)
        space = h1_space(mesh, 3)
        rng = np.random.default_rng(1)
        ones = np.zeros(space.ndof)
        ones[: mesh.n_nodes] = 1.0
        for ei in range(mesh.n_elements):
            pts = random_points_in(mesh, ei, 6, rng)
            vals, grads = space.eval_basis(ei, pts)
            c = ones[space.element_dofs(ei)]
            np.testing.assert_allclose(vals @ c, 1.0, atol=1e-13)
            np.testing.assert_allclose(
                np.einsum("pld,l->pd", grads, c), 0.0, atol=1e-12
            )

    def test_bubbles_vanish_at_1d_nodes(self):
        mesh = uniform_interval_mesh(3)
        space = h1_space(mesh, 4)
        x0, x1 = mesh.nodes[mesh.elements[1]]
        vals, _ = space.eval_basis(1, np.array([x0, x1]))
        np.testing.assert_allclose(vals[:, 2:], 0.0, atol=1e-14)

    def test_integrated_legendre_endpoints(self):
        for q in range(2, 7):
            assert abs(integrated_legendre(np.array(1.0), q)) < 1e-14
            assert abs(integrated_legendre(np.array(-1.0), q)) < 1e-14

    def test_edge_trace_is_integrated_legendre(self):
        # on an edge the mode of degree q restricts to N_q(xi)
        mesh = triangulate(unit_square(), 1.0)
        space = h1_space(mesh, 4)
        edge = mesh.interior_edges()[0]
        a, b = edge.nodes
        if a > b:
            a, b = b, a
        t = np.linspace(-1.0, 1.0, 9)
        pts = (
            mesh.nodes[a][None, :] * (1 - t[:, None]) / 2
            + mesh.nodes[b][None, :] * (1 + t[:, None]) / 2
        )
        ei = edge.elems[0]
        vals, _ = space.eval_basis(ei, pts)
        dofs = space.element_dofs(ei)
        for q in range(2, 5):
            gdof = mesh.n_nodes + edge.index * 3 + (q - 2)
            col = np.flatnonzero(dofs == gdof)[0]
            np.testing.assert_allclose(
                vals[:, col], integrated_legendre(t, q), atol=1e-13
            )

    def test_conformity_random_coeffs(self):
        rng = np.random.default_rng(7)
        for mesh in (triangulate(unit_square(), 0.5), triangulate(l_shape(), 0.5)):
            space = h1_space(mesh, 4)
            coeffs = rng.standard_normal(space.ndof)
            assert trace_mismatch(space, coeffs) < 1e-12

    def test_gradients_match_fd(self):
        mesh = triangulate(unit_square(), 0.5)
        space = h1_space(mesh, 5)
        rng = np.random.default_rng(3)
        ei = 3
        pts = random_points_in(mesh, ei, 4, rng)
        vals, grads = space.eval_basis(ei, pts)
        step = 1e-6 * mesh.h
        for d in range(2):
            dp = pts.copy()
            dm = pts.copy()
            dp[:, d] += step
            dm[:, d] -= step
            vp, _ = space.eval_basis(ei, dp)
            vm, _ = space.eval_basis(ei, dm)
            fd = (vp - vm) / (2 * step)
            scale = np.max(np.abs(grads[:, :, d])) + 1.0
            assert np.max(np.abs(fd - grads[:, :, d])) < 1e-6 * scale

    def test_reference_tables_match_eval(self):
        mesh = triangulate(l_shape(), 0.5)
        space = h1_space(mesh, 5)
        rng = np.random.default_rng(11)
        ref = rng.dirichlet(np.ones(3), size=5)[:, 1:]
        tab_vals, tab_grads = space.reference_tables(ref)
        ei = 17
        v0 = mesh.nodes[mesh.elements[ei, 0]]
        jac = mesh.jacobians()[ei]
        pts = v0 + ref @ jac.T
        vals, grads = space.eval_basis(ei, pts)
        signs = space.orientation_signs()[ei]
        np.testing.assert_allclose(vals, tab_vals * signs, atol=1e-13)
        inv_jt = mesh.inv_jacobians_t()[ei]
        push = np.einsum("plr,dr->pld", tab_grads, inv_jt) * signs[None, :, None]
        np.testing.assert_allclose(grads, push, atol=1e-12)


def dict_dof_matrix(space):
    """DOF numbering of a 2D polynomial space built from an edge dict."""
    mesh, p = space.mesh, space.p
    index = {(min(a, b), max(a, b)): i
             for i, (a, b) in enumerate(mesh.edge_nodes)}
    n_bub = (p - 1) * (p - 2) // 2
    bubble_base = mesh.n_nodes + len(mesh.edge_nodes) * (p - 1)
    rows = []
    for ei, tri in enumerate(mesh.elements):
        row = [int(v) for v in tri]
        for a, b in ((0, 1), (1, 2), (0, 2)):
            e = index[(min(tri[a], tri[b]), max(tri[a], tri[b]))]
            row += [mesh.n_nodes + e * (p - 1) + q - 2 for q in range(2, p + 1)]
        row += range(bubble_base + ei * n_bub, bubble_base + (ei + 1) * n_bub)
        rows.append(row)
    return np.array(rows)


class TestDofNumbering:
    @pytest.mark.parametrize("name", ["square", "lshape", "graded"])
    def test_matches_dict_reference(self, name):
        if name == "square":
            mesh = triangulate(unit_square(), 0.25)
        elif name == "lshape":
            mesh = triangulate(l_shape(), 0.5)
        else:
            mesh = geometric_refine(triangulate(l_shape(), 0.5), [(0.0, 0.0)],
                                    0.25, 3)
        for p in (1, 2, 4):
            space = h1_space(mesh, p)
            np.testing.assert_array_equal(space.dof_matrix(),
                                          dict_dof_matrix(space))


def batch_points(mesh, elems, n, rng):
    return np.stack([random_points_in(mesh, ei, n, rng) for ei in elems])


class TestBatchedEval:
    @pytest.mark.parametrize("kind", ["h1_1d", "h1_2d", "nodal", "pum",
                                      "trefftz_pw", "trefftz_ghp"])
    def test_batch_equals_per_element(self, kind):
        k = 4.0
        square = triangulate(unit_square(), 0.5)
        if kind == "h1_1d":
            space = h1_space(uniform_interval_mesh(6), 4)
        elif kind == "h1_2d":
            space = h1_space(square, 4)
        elif kind == "nodal":
            space = nodally_exact_space_1d(uniform_interval_mesh(6), k)
        elif kind == "pum":
            space = pum_space(square, k, GhpBasis(k=k, p=2))
        elif kind == "trefftz_pw":
            space = trefftz_space(square, k, PlaneWaveBasis(k=k, p=5))
        else:
            space = trefftz_space(square, k, GhpBasis(k=k, p=3))
        rng = np.random.default_rng(7)
        elems = np.array([3, 0, 5, 1])
        pts = batch_points(space.mesh, elems, 6, rng)
        vals, grads = space.eval_basis(elems, pts)
        dim = space.mesh.dim
        assert vals.shape == (4, 6, space.nloc)
        assert grads.shape == (4, 6, space.nloc, dim)
        for i, ei in enumerate(elems):
            v, g = space.eval_basis(int(ei), pts[i])
            np.testing.assert_allclose(vals[i], v, rtol=0, atol=1e-13)
            np.testing.assert_allclose(grads[i], g, rtol=0,
                                       atol=1e-13 * np.abs(g).max())
            np.testing.assert_array_equal(space.dof_matrix()[ei],
                                          space.element_dofs(int(ei)))


class TestNodallyExact:
    def test_basic_properties(self):
        mesh = uniform_interval_mesh(8)
        space = nodally_exact_space_1d(mesh, 10.0)
        assert space.ndof == 9
        assert space.conforming

    def test_shape_closed_form(self):
        mesh = uniform_interval_mesh(4)
        k = 6.0
        space = nodally_exact_space_1d(mesh, k)
        h = 0.25
        x = np.array([0.1])
        vals, _ = space.eval_basis(0, x)
        assert vals[0, 0] == pytest.approx(math.sin(k * (h - 0.1)) / math.sin(k * h))
        assert vals[0, 1] == pytest.approx(math.sin(k * 0.1) / math.sin(k * h))

    def test_nodal_delta(self):
        mesh = uniform_interval_mesh(5)
        space = nodally_exact_space_1d(mesh, 9.0)
        for ei in range(5):
            nodes = mesh.nodes[mesh.elements[ei]]
            vals, _ = space.eval_basis(ei, nodes)
            np.testing.assert_allclose(vals, np.eye(2), atol=1e-13)

    def test_helmholtz_residual_fd(self):
        mesh = uniform_interval_mesh(6)
        k = 11.0
        space = nodally_exact_space_1d(mesh, k)
        x = np.array([0.4 / 6 + 0.02, 0.4 / 6 + 0.05])
        step = 1e-4
        for col in (0, 1):
            vm, _ = space.eval_basis(2, x - step)
            v0, _ = space.eval_basis(2, x)
            vp, _ = space.eval_basis(2, x + step)
            second = (vp[:, col] - 2 * v0[:, col] + vm[:, col]) / step**2
            resid = -second - k**2 * v0[:, col]
            assert np.max(np.abs(resid)) < 1e-6 * k**2

    def test_rejects_coarse_mesh(self):
        with pytest.raises(ValueError):
            nodally_exact_space_1d(uniform_interval_mesh(2), 7.0)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            nodally_exact_space_1d(triangulate(unit_square(), 0.5), 1.0)


class TestWaveBases:
    def test_plane_wave_directions(self):
        basis = PlaneWaveBasis(k=5.0, p=7)
        d = basis.directions
        np.testing.assert_allclose(np.linalg.norm(d, axis=1), 1.0, atol=1e-15)
        assert d.shape == (7, 2)
        np.testing.assert_allclose(d[0], [1.0, 0.0], atol=1e-15)

    def test_plane_wave_values(self):
        basis = PlaneWaveBasis(k=3.0, p=4)
        y = np.array([[0.2, -0.1]])
        vals, grads = basis.eval(y)
        for n in range(4):
            w = basis.directions[n]
            expect = np.exp(1j * 3.0 * (w @ y[0]))
            assert vals[0, n] == pytest.approx(expect, abs=1e-14)
            np.testing.assert_allclose(
                grads[0, n], 1j * 3.0 * w * expect, atol=1e-13
            )

    def test_ghp_dimension_and_center(self):
        basis = GhpBasis(k=2.0, p=3)
        assert basis.dim == 7
        vals, grads = basis.eval(np.zeros((1, 2)))
        expect = np.zeros(7)
        expect[3] = 1.0  # the n=0 mode
        np.testing.assert_allclose(vals[0].real, expect, atol=1e-15)
        np.testing.assert_allclose(vals[0].imag, 0.0, atol=1e-15)
        # only |n|=1 modes have a gradient at the center
        k = 2.0
        np.testing.assert_allclose(grads[0, 3], [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(grads[0, 4], [k / 2, 1j * k / 2], atol=1e-15)
        np.testing.assert_allclose(grads[0, 2], [k / 2, -1j * k / 2], atol=1e-15)

    def test_ghp_continuous_at_center(self):
        basis = GhpBasis(k=4.0, p=4)
        near, gnear = basis.eval(np.array([[1e-9, -1e-9]]))
        at, gat = basis.eval(np.zeros((1, 2)))
        np.testing.assert_allclose(near, at, atol=1e-8)
        np.testing.assert_allclose(gnear, gat, atol=1e-7)

    def test_ghp_gradient_fd(self):
        basis = GhpBasis(k=6.0, p=5)
        rng = np.random.default_rng(5)
        y = rng.uniform(-0.4, 0.4, size=(6, 2))
        vals, grads = basis.eval(y)
        step = 1e-6
        for d in range(2):
            dp = y.copy()
            dm = y.copy()
            dp[:, d] += step
            dm[:, d] -= step
            vp, _ = basis.eval(dp)
            vm, _ = basis.eval(dm)
            fd = (vp - vm) / (2 * step)
            assert np.max(np.abs(fd - grads[:, :, d])) < 1e-6 * 6.0

    def test_ghp_helmholtz_residual_symbolic(self):
        # Laplacian of J_n(kr)e^{in phi} from the Bessel recurrences:
        # J'' = (J_{n-2} - 2 J_n + J_{n+2})/4, J' = (J_{n-1} - J_{n+1})/2,
        # so J'' + J'/z + (1 - n^2/z^2) J must vanish identically.
        rng = np.random.default_rng(17)
        k = 7.0
        z = k * rng.uniform(0.05, 1.5, size=30)
        for n in range(0, 8):
            jm2 = bessel_j(abs(n - 2), z)
            jm1 = bessel_j(abs(n - 1), z)
            j0 = bessel_j(n, z)
            jp1 = bessel_j(n + 1, z)
            jp2 = bessel_j(n + 2, z)
            if n == 1:
                jm2 = -jm2  # J_{-1} = -J_1
            second = (jm2 - 2 * j0 + jp2) / 4
            first = ((jm1 if n >= 1 else -jm1) - jp1) / 2
            resid = second + first / z + (1 - n**2 / z**2) * j0
            assert np.max(np.abs(resid)) < 1e-12


def ghp_reference(basis, y):
    """GhpBasis.eval one (nq, 2) slab and one mode at a time, with one
    bessel_j call per order on the whole slab."""
    y = np.asarray(y, dtype=float)
    if y.ndim > 2:
        lead, nq = y.shape[:-2], y.shape[-2]
        vals = np.empty(lead + (nq, basis.dim), dtype=complex)
        grads = np.empty(lead + (nq, basis.dim, 2), dtype=complex)
        for i in np.ndindex(lead):
            vals[i], grads[i] = ghp_reference(basis, y[i])
        return vals, grads
    k, p = basis.k, basis.p
    r = np.hypot(y[:, 0], y[:, 1])
    phi = np.arctan2(y[:, 1], y[:, 0])
    origin = r < 1e-13
    r_safe = np.where(origin, 1.0, r)
    jn = np.stack([bessel_j(m, k * r_safe) for m in range(p + 2)])
    vals = np.empty((y.shape[0], 2 * p + 1), dtype=complex)
    grads = np.empty((y.shape[0], 2 * p + 1, 2), dtype=complex)
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    for idx, n in enumerate(range(-p, p + 1)):
        m = abs(n)
        ang = np.exp(1j * n * phi)
        jm = jn[m]
        lower = -jn[1] if m == 0 else jn[m - 1]
        dj = 0.5 * (lower - jn[m + 1])
        dr = k * dj * ang
        dphi_over_r = 1j * n * jm * ang / r_safe
        vals[:, idx] = jm * ang
        grads[:, idx, 0] = cos_phi * dr - sin_phi * dphi_over_r
        grads[:, idx, 1] = sin_phi * dr + cos_phi * dphi_over_r
        if np.any(origin):
            vals[origin, idx] = 1.0 if n == 0 else 0.0
            gx = gy = 0.0
            if m == 1:
                gx = 0.5 * k
                gy = 0.5j * k * np.sign(n)
            grads[origin, idx, 0] = gx
            grads[origin, idx, 1] = gy
    return vals, grads


def assert_bitwise(got, want):
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


def ghp_slabs(k, radii, nq=9, seed=3):
    """(len(radii), nq, 2) displacements, slab s within radius radii[s]
    and its last point on that circle; slab 0 holds the origin."""
    rng = np.random.default_rng(seed)
    y = np.empty((len(radii), nq, 2))
    for s, rad in enumerate(radii):
        r = rad * np.sqrt(rng.uniform(0.0, 1.0, nq))
        r[-1] = rad
        t = rng.uniform(0.0, 2.0 * math.pi, nq)
        y[s] = np.column_stack([r * np.cos(t), r * np.sin(t)])
    y[0, 0] = 0.0
    return y


class TestGhpBatched:
    # k = 12: slabs of radius 0.7 stay on the power series (kr <= 8.4);
    # radii 1.2 and 1.6 reach the recurrence with different largest kr
    K = 12.0

    @pytest.mark.parametrize("p", [0, 11])
    @pytest.mark.parametrize("radii", [(0.7, 1.2, 0.5, 0.7),
                                       (0.7, 1.2, 0.6, 1.6)],
                             ids=["one_miller_slab", "two_miller_slabs"])
    def test_matches_per_slab_reference(self, p, radii):
        basis = GhpBasis(k=self.K, p=p)
        y = ghp_slabs(self.K, radii)
        assert_bitwise(basis.eval(y), ghp_reference(basis, y))
        assert_bitwise(basis.eval(y[0]), ghp_reference(basis, y[0]))

    @pytest.mark.parametrize("p", [0, 11])
    def test_series_only_and_origin_only(self, p):
        basis = GhpBasis(k=self.K, p=p)
        y = ghp_slabs(self.K, (0.3, 0.7))
        assert_bitwise(basis.eval(y), ghp_reference(basis, y))
        # the origin alone evaluates J at r = 1, kr = 12 > 9
        y = np.zeros((2, 3, 2))
        assert_bitwise(basis.eval(y), ghp_reference(basis, y))

    @pytest.mark.parametrize("p", [1, 11])  # PUM needs dim >= 2
    def test_pum_space_matches_reference(self, p, monkeypatch):
        # Points up to 1.41 from the nodes of the h = 1 L-shape, kr up to
        # 11.3: slabs reach the recurrence with different largest kr.
        # One point sits on a vertex, the origin of its enrichment.
        k = 8.0
        mesh = triangulate(l_shape(), 1.0)
        space = pum_space(mesh, k, GhpBasis(k=k, p=p))
        elems = np.arange(mesh.n_elements)
        verts = mesh.nodes[mesh.elements[elems]]
        rng = np.random.default_rng(4)
        pts = rng.dirichlet(np.ones(3), size=(len(elems), 20)) @ verts
        pts[0, 0] = verts[0, 0]
        dist = np.linalg.norm(pts[:, None] - verts[:, :, None], axis=-1)
        kr_max = k * dist.max(axis=-1)
        assert len(np.unique(kr_max[kr_max > 9.0])) > 1
        got = space.eval_basis(elems, pts)
        monkeypatch.setattr(GhpBasis, "eval", ghp_reference)
        assert_bitwise(got, space.eval_basis(elems, pts))


class TestTrefftzSpace:
    def test_dimensions(self):
        mesh = triangulate(unit_square(), 1.0)
        space = trefftz_space(mesh, 2.0, PlaneWaveBasis(k=2.0, p=5))
        assert space.ndof == 10
        assert not space.conforming
        assert space.kind == "trefftz_pw"
        ghp = trefftz_space(mesh, 2.0, GhpBasis(k=2.0, p=3))
        assert ghp.ndof == 14
        assert ghp.kind == "trefftz_ghp"

    def test_element_dofs_contiguous(self):
        mesh = triangulate(unit_square(), 0.5)
        space = trefftz_space(mesh, 1.0, PlaneWaveBasis(k=1.0, p=3))
        np.testing.assert_array_equal(space.element_dofs(2), [6, 7, 8])

    def test_global_plane_wave_in_space(self):
        # e^{ik w0 . x} = e^{ik w0 . c_K} * b_0 on every element
        mesh = triangulate(unit_square(), 0.5)
        k = 9.0
        basis = PlaneWaveBasis(k=k, p=4)
        space = trefftz_space(mesh, k, basis)
        w0 = basis.directions[0]
        coeffs = np.zeros(space.ndof, dtype=complex)
        for ei in range(mesh.n_elements):
            phase = np.exp(1j * k * (w0 @ mesh.centroids()[ei]))
            coeffs[space.element_dofs(ei)[0]] = phase
        rng = np.random.default_rng(2)
        for ei in range(0, mesh.n_elements, 3):
            pts = random_points_in(mesh, ei, 4, rng)
            vals, _ = space.eval_basis(ei, pts)
            u = vals @ coeffs[space.element_dofs(ei)]
            expect = np.exp(1j * k * (pts @ w0))
            np.testing.assert_allclose(u, expect, atol=1e-12)

    def test_wavenumber_mismatch(self):
        mesh = triangulate(unit_square(), 1.0)
        with pytest.raises(ValueError):
            trefftz_space(mesh, 3.0, PlaneWaveBasis(k=2.0, p=3))

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            trefftz_space(uniform_interval_mesh(3), 1.0, PlaneWaveBasis(k=1.0, p=3))


class TestPumSpace:
    def test_dimension(self):
        mesh = triangulate(unit_square(), 1.0)  # 4 nodes
        space = pum_space(mesh, 2.0, PlaneWaveBasis(k=2.0, p=3))
        assert space.ndof == 12
        assert space.conforming
        assert space.kind == "pum"

    def test_conformity(self):
        mesh = triangulate(unit_square(), 0.5)
        space = pum_space(mesh, 4.0, PlaneWaveBasis(k=4.0, p=3))
        rng = np.random.default_rng(8)
        coeffs = rng.standard_normal(space.ndof) + 1j * rng.standard_normal(space.ndof)
        assert trace_mismatch(space, coeffs) < 1e-12

    def test_gradient_fd(self):
        mesh = triangulate(unit_square(), 0.5)
        space = pum_space(mesh, 5.0, GhpBasis(k=5.0, p=2))
        rng = np.random.default_rng(9)
        ei = 4
        pts = random_points_in(mesh, ei, 3, rng)
        vals, grads = space.eval_basis(ei, pts)
        step = 1e-6
        for d in range(2):
            dp = pts.copy()
            dm = pts.copy()
            dp[:, d] += step
            dm[:, d] -= step
            vp, _ = space.eval_basis(ei, dp)
            vm, _ = space.eval_basis(ei, dm)
            fd = (vp - vm) / (2 * step)
            assert np.max(np.abs(fd - grads[:, :, d])) < 2e-5

    def test_rejects_1d_and_thin_enrichment(self):
        with pytest.raises(ValueError):
            pum_space(uniform_interval_mesh(3), 1.0, PlaneWaveBasis(k=1.0, p=3))
        with pytest.raises(ValueError):
            pum_space(
                triangulate(unit_square(), 0.5), 1.0, PlaneWaveBasis(k=1.0, p=1)
            )


class TestNearUnity:
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 7, 8])
    def test_value_and_gradient_at_center(self, p):
        basis = PlaneWaveBasis(k=3.0, p=p)
        c = near_unity_element(basis)
        vals, grads = basis.eval(np.zeros((1, 2)))
        assert vals[0] @ c == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(grads[0].T @ c, 0.0, atol=1e-14)

    def test_ghp_choice(self):
        basis = GhpBasis(k=3.0, p=2)
        c = near_unity_element(basis)
        assert c[2] == 1.0 and np.sum(np.abs(c)) == 1.0

    def test_deficit_second_order(self):
        k = 5.0
        values = []
        for nh in (2, 4):
            mesh = triangulate(unit_square(), 1.0 / nh)
            space = pum_space(mesh, k, PlaneWaveBasis(k=k, p=4))
            values.append(near_unity_deficit(space, samples_per_elem=8))
        ratio = values[0] / values[1]
        assert 2.5 < ratio < 6.0  # second-order decay halving h


class TestEvaluate:
    def test_zero_coeffs(self):
        mesh = triangulate(unit_square(), 0.5)
        space = h1_space(mesh, 2)
        val, grad = evaluate(space, np.zeros(space.ndof), mesh.centroids()[1], 1)
        assert val == 0.0
        np.testing.assert_allclose(grad, 0.0)

    def test_single_hat(self):
        mesh = triangulate(unit_square(), 0.5)
        space = h1_space(mesh, 1)
        node = int(mesh.elements[0, 1])
        coeffs = np.zeros(space.ndof)
        coeffs[node] = 1.0
        val, _ = evaluate(space, coeffs, mesh.nodes[node], 0)
        assert val == pytest.approx(1.0, abs=1e-14)

    def test_linearity(self):
        mesh = triangulate(unit_square(), 0.5)
        space = h1_space(mesh, 3)
        rng = np.random.default_rng(4)
        a = rng.standard_normal(space.ndof)
        b = rng.standard_normal(space.ndof)
        pt = random_points_in(mesh, 2, 1, rng)[0]
        va, ga = evaluate(space, a, pt, 2)
        vb, gb = evaluate(space, b, pt, 2)
        vab, gab = evaluate(space, 2.0 * a - 0.5 * b, pt, 2)
        assert vab == pytest.approx(2 * va - 0.5 * vb, abs=1e-13)
        np.testing.assert_allclose(gab, 2 * ga - 0.5 * gb, atol=1e-12)

    def test_outside_element_raises(self):
        mesh = triangulate(unit_square(), 0.5)
        space = h1_space(mesh, 1)
        centroids = mesh.centroids()
        with pytest.raises(ValueError):
            evaluate(space, np.zeros(space.ndof), centroids[5], 0)

    def test_wrong_length_raises(self):
        mesh = triangulate(unit_square(), 0.5)
        space = h1_space(mesh, 1)
        with pytest.raises(ValueError):
            evaluate(space, np.zeros(3), [0.1, 0.1], 0)

    def test_plane_wave_gradient(self):
        mesh = triangulate(unit_square(), 1.0)
        k = 5.0
        basis = PlaneWaveBasis(k=k, p=3)
        space = trefftz_space(mesh, k, basis)
        coeffs = np.zeros(space.ndof, dtype=complex)
        coeffs[1] = 1.0
        pt = np.array([0.3, 0.2])
        val, grad = evaluate(space, coeffs, pt, 0)
        w = basis.directions[1]
        np.testing.assert_allclose(grad, 1j * k * w * val, atol=1e-12)


# -- byte identity with the three-operand contractions and complex exp -------

# Fixed example sequence, no example database: tier-1 runs stay the same.
BYTES_SETTINGS = settings(derandomize=True, deadline=None, database=None,
                          max_examples=40)
CONTRACTION_SETTINGS = settings(BYTES_SETTINGS, max_examples=10)


def three_operand_element_matrices(space, elems, rule):
    """The shared element matrices as three-operand contractions."""
    pts, w = space.mesh.map_rule(elems, rule)
    vals, grads = space.eval_basis(elems, pts)
    return (np.einsum("eq,eqld,eqmd->elm", w, np.conj(grads), grads),
            np.einsum("eq,eql,eqm->elm", w, np.conj(vals), vals))


def three_operand_field(space, elems, coeffs, rule):
    """The shared field with all gradient components in one contraction
    of a complex copy of the gradient table."""
    pts, _ = space.mesh.map_rule(elems, rule)
    vals, grads = space.eval_basis(elems, pts)
    c = coeffs[space.dof_matrix()[elems]]
    u = np.matmul(vals.astype(complex, copy=False), c[:, :, None])[..., 0]
    g = np.einsum("eqld,el->eqd", grads.astype(complex, copy=False), c)
    return u, g


# (kind, order) of every space on the shared `_Space` path: H1 in 1D at
# p = 1..4, the nodally exact space, plane-wave and GHP Trefftz spaces at
# p = 1..11, and PUM with either enrichment
SHARED_PATH_CASES = ([("h1_1d", p) for p in range(1, 5)] + [("nodal", 1)]
                     + [(kind, p) for kind in ("pw", "ghp") for p in range(1, 12)]
                     + [("pum_pw", 3), ("pum_pw", 6), ("pum_ghp", 1),
                        ("pum_ghp", 4)])


@st.composite
def shared_path_batches(draw, kind, p):
    """A space of the given kind and order on a drawn mesh and
    wavenumber, a batch of its elements, a reference rule and a seed
    for coefficients."""
    k = draw(st.floats(1.0, 12.0))
    if kind in ("h1_1d", "nodal"):
        mesh = uniform_interval_mesh(draw(st.integers(max(1, int(k)), 12)))
        rule = gauss_interval(draw(st.integers(2, 12)))
        space = (h1_space(mesh, p) if kind == "h1_1d"
                 else nodally_exact_space_1d(mesh, k))
    else:
        mesh = triangulate(draw(st.sampled_from([unit_square(), l_shape()])),
                           draw(st.sampled_from([1.0, 0.5, 0.35])))
        rule = quad_triangle(draw(st.integers(2, 16)))
        local = (GhpBasis if kind.endswith("ghp") else PlaneWaveBasis)(k=k, p=p)
        space = (pum_space(mesh, k, local) if kind.startswith("pum")
                 else trefftz_space(mesh, k, local))
    ne = mesh.n_elements
    elems = np.sort(draw(st.lists(st.integers(0, ne - 1), min_size=1,
                                  max_size=ne, unique=True)))
    return space, elems, rule, draw(st.integers(0, 2**16))


def assert_same_bytes(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind, p", SHARED_PATH_CASES,
                         ids=[f"{kind}-p{p}" for kind, p in SHARED_PATH_CASES])
class TestTwoOperandContractions:
    @CONTRACTION_SETTINGS
    @given(data=st.data())
    def test_element_matrices_bitwise(self, kind, p, data):
        space, elems, rule, _ = data.draw(shared_path_batches(kind, p))
        want = three_operand_element_matrices(space, elems, rule)
        assert_same_bytes(space.element_matrices(elems, rule), want)
        tables = space.element_tables(elems, rule)
        assert_same_bytes(space.element_matrices(elems, rule, tables), want)

    @CONTRACTION_SETTINGS
    @given(data=st.data())
    def test_field_bitwise(self, kind, p, data):
        space, elems, rule, seed = data.draw(shared_path_batches(kind, p))
        rng = np.random.default_rng(seed)
        coeffs = (rng.standard_normal(space.ndof)
                  + 1j * rng.standard_normal(space.ndof))
        assert_same_bytes(space.field(elems, coeffs, rule),
                          three_operand_field(space, elems, coeffs, rule))


def einsum_stiffness_2d(space, elems, rule):
    """The 2D H1 stiffness as one einsum of the reference tensor and each
    element's metric."""
    vals, grads = space.reference_tables(rule.points)
    g_ref = np.einsum("q,qlr,qms->lrms", rule.weights, grads, grads)
    inv_jt = space.mesh.inv_jacobians_t()[elems]
    metric = np.einsum("edr,eds->ers", inv_jt, inv_jt)
    signs = space.orientation_signs()[elems]
    det = 2.0 * space.mesh.areas()[elems]
    return (det[:, None, None] * np.einsum("lrms,ers->elm", g_ref, metric)
            * signs[:, :, None] * signs[:, None, :])


@pytest.mark.parametrize("p", range(1, 11))
def test_h1_2d_stiffness_gemm_matches_einsum(p):
    mesh = geometric_refine(triangulate(l_shape(), 0.5), [(0.0, 0.0)],
                            0.15, 3)
    space = h1_space(mesh, p)
    rule = space.volume_rule(10.0)
    elems = np.arange(mesh.n_elements)
    stiff, _ = space.element_matrices(elems, rule)
    want = einsum_stiffness_2d(space, elems, rule)
    scale = np.abs(want).max(axis=(1, 2))[:, None, None]
    assert np.all(np.abs(stiff - want) <= 1e-15 * scale)


def plane_wave_exp(basis, y):
    """PlaneWaveBasis.eval with the phase from the complex exponential."""
    d = basis.directions
    phase = np.exp(1j * basis.k * (np.asarray(y, dtype=float) @ d.T))
    return phase, 1j * basis.k * phase[..., None] * d


# Pinned sizes of each space's volume, error and edge rules and its
# reported order: H1 and the nodally exact space at k = 10 on 8
# intervals, the 2D spaces at k = 4 on the unit square at h = 0.5 (edges
# of length h).  Any change of a rule moves CSV values.
RULE_CASES = (
    [(f"h1_1d_p{p}", v, e, None, p)
     for p, v, e in ((1, 3, 7), (2, 4, 8), (3, 5, 9), (4, 6, 10))]
    + [(f"h1_2d_p{p}", (p + 2) ** 2, (p + 9) ** 2, p + 11, p)
       for p in range(1, 11)]
    + [("nodal", 11, 7, None, 1), ("pum", 225, 324, 12, 3),
       ("pw", 225, 196, 12, 5), ("ghp", 225, 256, 12, 7)])


def rule_case_space(name):
    if name.startswith("h1_1d") or name == "nodal":
        mesh = uniform_interval_mesh(8)
        return (h1_space(mesh, int(name[-1])) if name != "nodal"
                else nodally_exact_space_1d(mesh, 10.0)), 10.0
    mesh = triangulate(unit_square(), 0.5)
    if name.startswith("h1_2d"):
        return h1_space(mesh, int(name.split("_p")[1])), 4.0
    if name == "pum":
        return pum_space(mesh, 4.0, PlaneWaveBasis(k=4.0, p=3)), 4.0
    local = (PlaneWaveBasis(k=4.0, p=5) if name == "pw"
             else GhpBasis(k=4.0, p=3))
    return trefftz_space(mesh, 4.0, local), 4.0


@pytest.mark.parametrize("name, volume, error, edge, order", RULE_CASES,
                         ids=[case[0] for case in RULE_CASES])
def test_rules_and_order_of_every_space_kind(name, volume, error, edge,
                                             order):
    space, k = rule_case_space(name)
    assert len(space.volume_rule(k).weights) == volume
    assert len(space.error_rule(k).weights) == error
    if edge is not None:
        assert len(space.edge_rule(k, space.mesh.h).weights) == edge
    assert space.order == order


class TestPhaseFromCosSin:
    @BYTES_SETTINGS
    @given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=60))
    def test_expi_equals_complex_exp(self, theta):
        theta = np.array(theta + [0.0, -0.0, -1e-300, -math.pi])
        assert _expi(theta).tobytes() == np.exp(1j * theta).tobytes()

    def test_expi_on_many_phases(self):
        theta = np.random.default_rng(7).uniform(-300.0, 300.0, 200_000)
        assert _expi(theta).tobytes() == np.exp(1j * theta).tobytes()
        assert _expi(-theta).tobytes() == np.exp(1j * -theta).tobytes()

    @BYTES_SETTINGS
    @given(st.floats(0.5, 40.0), st.integers(1, 13), st.integers(0, 2**16))
    def test_plane_wave_basis_bitwise(self, k, p, seed):
        basis = PlaneWaveBasis(k=k, p=p)
        y = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 5, 2))
        y[0, 0] = 0.0  # a point on the center: phase exactly 0 or -0
        assert_same_bytes(basis.eval(y), plane_wave_exp(basis, y))


# -- element batches ----------------------------------------------------------

BATCH_KINDS = ["h1_1d_p1", "h1_1d_p4", "nodal", "h1_2d_p1", "h1_2d_p4",
               "pum", "pw", "ghp"]


@pytest.mark.parametrize("name", BATCH_KINDS)
@BYTES_SETTINGS
@given(npts=st.integers(1, 400),
       bounds=st.one_of(st.just((spaces._BATCH_POINTS, spaces._BATCH_ENTRIES)),
                        st.tuples(st.integers(1, 4000),
                                  st.integers(1, 200_000))))
def test_element_batches_cover_the_mesh_within_both_bounds(name, npts,
                                                           bounds):
    # Every element once and in order; no batch of more than one element
    # holds more than _BATCH_POINTS points (npts per element) or more than
    # _BATCH_ENTRIES numbers in its basis gradients or local matrices; and
    # every batch but the last is as large as the two bounds allow.
    space, _ = rule_case_space(name)
    max_points, max_entries = bounds
    entries = max(npts * space.nloc * space.mesh.dim, space.nloc ** 2)

    def fits(size):
        return size * npts <= max_points and size * entries <= max_entries

    with mock.patch.multiple(spaces, _BATCH_POINTS=max_points,
                             _BATCH_ENTRIES=max_entries):
        batches = list(space.element_batches(npts))
    assert np.concatenate(batches).tolist() == list(range(space.mesh.n_elements))
    assert all(len(b) == 1 or fits(len(b)) for b in batches)
    assert all(not fits(len(b) + 1) for b in batches[:-1])


# -- triangle shape functions against the per-mode loops ----------------------


def looped_shape_functions_2d(p, lam, grad_lam):
    """`spaces._shape_functions_2d` as a loop over the edge modes q and
    the bubbles (i, j), one mode per NumPy call."""
    nb, nq = lam.shape[:2]
    nloc = spaces._h1_local_dim_2d(p)
    vals = np.zeros((nb, nq, nloc))
    grads = np.zeros((nb, nq, nloc, 2))
    gl = grad_lam[:, None, :, :]
    for v in range(3):
        vals[..., v] = lam[..., v]
        grads[..., v, :] = gl[..., v, :]
    pos = 3
    if p >= 2:
        for a, b in spaces._LOCAL_EDGES:
            xi = lam[..., b] - lam[..., a]
            _, der1, der2 = spaces._legendre_table(xi, p - 1)
            prod = lam[..., a] * lam[..., b]
            dprod = (lam[..., b, None] * gl[..., a, :]
                     + lam[..., a, None] * gl[..., b, :])
            dxi = gl[..., b, :] - gl[..., a, :]
            for q in range(2, p + 1):
                c = spaces._edge_kernel_coeff(q)
                kern = c * der1[q - 1]
                dkern = c * der2[q - 1]
                vals[..., pos] = prod * kern
                grads[..., pos, :] = (dprod * kern[..., None]
                                      + (prod * dkern)[..., None] * dxi)
                pos += 1
    if p >= 3:
        eta1 = lam[..., 1] - lam[..., 0]
        eta2 = 2.0 * lam[..., 2] - 1.0
        p1, d1, _ = spaces._legendre_table(eta1, p - 3)
        p2, d2, _ = spaces._legendre_table(eta2, p - 3)
        bub = lam[..., 0] * lam[..., 1] * lam[..., 2]
        dbub = ((lam[..., 1] * lam[..., 2])[..., None] * gl[..., 0, :]
                + (lam[..., 0] * lam[..., 2])[..., None] * gl[..., 1, :]
                + (lam[..., 0] * lam[..., 1])[..., None] * gl[..., 2, :])
        deta1 = gl[..., 1, :] - gl[..., 0, :]
        deta2 = 2.0 * gl[..., 2, :]
        for i in range(p - 2):
            for j in range(p - 2 - i):
                f = p1[i] * p2[j]
                df = ((d1[i] * p2[j])[..., None] * deta1
                      + (p1[i] * d2[j])[..., None] * deta2)
                vals[..., pos] = bub * f
                grads[..., pos, :] = dbub * f[..., None] + bub[..., None] * df
                pos += 1
    return vals, grads


@pytest.mark.parametrize("p", range(1, 11))
@settings(BYTES_SETTINGS, max_examples=6)
@given(nb=st.integers(1, 40), nq=st.integers(1, 64),
       seed=st.integers(0, 2**16))
@example(nb=1, nq=1, seed=0)
@example(nb=200, nq=12, seed=1)
def test_shape_functions_2d_bytes_equal_mode_loops(p, nb, nq, seed):
    rng = np.random.default_rng(seed)
    lam = rng.dirichlet(np.ones(3), size=(nb, nq))
    grad_lam = rng.standard_normal((nb, 3, 2))
    assert_same_bytes(spaces._shape_functions_2d(p, lam, grad_lam),
                      looped_shape_functions_2d(p, lam, grad_lam))
