"""Assembled forms and linear algebra against hand-computed oracles."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from helmholtz_lab import assembly, methods, spaces
from helmholtz_lab.assembly import (
    ComplexSystem,
    FluxParams,
    assemble_galerkin,
    assemble_gram_1k,
    assemble_least_squares,
    assemble_projection_1k,
    assemble_pwdg,
    h_version_fluxes,
    hmp_fluxes,
    infsup_probe,
    project_rhs_1k,
    solve,
    uwvf_fluxes,
)
from helmholtz_lab.meshing import (
    Polygon,
    geometric_refine,
    l_shape,
    triangulate,
    uniform_interval_mesh,
    unit_square,
)
from helmholtz_lab.spaces import (
    GhpBasis,
    PlaneWaveBasis,
    h1_space,
    nodally_exact_space_1d,
    pum_space,
    trefftz_space,
)


def dense(a):
    return a.toarray() if scipy.sparse.issparse(a) else np.asarray(a)


def dense_solve(system):
    """Reference solution of a system: a dense LU of its free block."""
    A, rhs = assembly._reduce(system)
    x = np.zeros(system.ndof, dtype=complex)
    x[slice(None) if system.free is None else system.free] = (
        scipy.linalg.solve(A.toarray(), rhs))
    return x


def wall_square():
    """The unit square with its east side tagged 'wall'."""
    return Polygon(
        name="square", dim=2,
        vertices=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
        side_tags=("robin", "wall", "robin", "robin"))


class TestGalerkin1D:
    def test_hand_element_matrix(self):
        mesh = uniform_interval_mesh(1)
        space = h1_space(mesh, 1)
        system = assemble_galerkin(
            space, 1.0, bc={"left": "dirichlet", "right": "robin"}
        )
        expect = (
            np.array([[1.0, -1.0], [-1.0, 1.0]])
            - np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
            + 1j * np.array([[0.0, 0.0], [0.0, 1.0]])
        )
        np.testing.assert_allclose(dense(system.A), expect, atol=1e-14)
        np.testing.assert_array_equal(system.free, [1])

    def test_zero_data_zero_rhs(self):
        mesh = uniform_interval_mesh(4)
        space = h1_space(mesh, 2)
        system = assemble_galerkin(space, 3.0, f=None, g=None)
        np.testing.assert_array_equal(system.rhs, 0.0)

    def test_constant_source_rhs(self):
        # (1, hat_i) = h for interior hats on a uniform mesh
        mesh = uniform_interval_mesh(4)
        space = h1_space(mesh, 1)
        system = assemble_galerkin(space, 2.0, f=1.0)
        np.testing.assert_allclose(system.rhs[1:4].real, 0.25, atol=1e-14)
        np.testing.assert_allclose(system.rhs[0].real, 0.125, atol=1e-14)

    def test_symmetric_after_removing_boundary_term(self):
        mesh = uniform_interval_mesh(5)
        space = h1_space(mesh, 3)
        k = 4.0
        system = assemble_galerkin(space, k)
        core = dense(system.A) - 1j * k * dense(system.meta["boundary_mass"])
        np.testing.assert_allclose(core, core.T, atol=1e-12)
        np.testing.assert_allclose(core.imag, 0.0, atol=1e-13)

    def test_robin_sign_flips_boundary_term(self):
        mesh = uniform_interval_mesh(3)
        space = h1_space(mesh, 1)
        plus = assemble_galerkin(space, 2.0, robin_sign=1.0)
        minus = assemble_galerkin(space, 2.0, robin_sign=-1.0)
        diff = dense(plus.A) - dense(minus.A)
        np.testing.assert_allclose(
            diff, 2j * 2.0 * dense(plus.meta["boundary_mass"]), atol=1e-14
        )


class TestGram:
    def test_constant_function_norm(self):
        mesh = uniform_interval_mesh(4)
        space = h1_space(mesh, 1)
        gram = assemble_gram_1k(space, 2.0)
        u = np.ones(space.ndof, dtype=complex)
        assert (u.conj() @ dense(gram) @ u).real == pytest.approx(4.0, abs=1e-13)

    def test_plane_wave_energy(self):
        # on each element k^2 |b|^2 + |grad b|^2 = 2 k^2, so diagonal
        # entries equal 2 k^2 |K|
        mesh = triangulate(unit_square(), 0.5)
        k = 6.0
        space = trefftz_space(mesh, k, PlaneWaveBasis(k=k, p=3))
        gram = dense(assemble_gram_1k(space, k))
        diag = np.diag(gram).real
        expect = 2 * k**2 * np.repeat(mesh.areas(), 3)
        np.testing.assert_allclose(diag, expect, rtol=1e-12)

    def test_positive_definite(self):
        mesh = triangulate(unit_square(), 0.5)
        for space in (
            h1_space(mesh, 3),
            pum_space(mesh, 3.0, PlaneWaveBasis(k=3.0, p=4)),
        ):
            gram = dense(assemble_gram_1k(space, 3.0))
            np.testing.assert_allclose(gram, gram.conj().T, atol=1e-11)
            np.linalg.cholesky(0.5 * (gram + gram.conj().T))


def separate_pass_rhs_1k(space, k, target):
    """The (1,k) load from its own volume loop, with the gradient term as
    one three-operand contraction."""
    k = float(k)
    rule = space.volume_rule(k)
    rhs = np.zeros(space.ndof, dtype=complex)
    for elems in space.element_batches(len(rule.weights)):
        pts, w = space.mesh.map_rule(elems, rule)
        vals, grads = space.eval_basis(elems, pts)
        u, g = target(pts.reshape((-1,) + pts.shape[2:]))
        uq = np.asarray(u, dtype=complex).reshape(w.shape)
        loc = k**2 * np.einsum("eq,eql->el", w * uq, np.conj(vals))
        gq = np.asarray(g, dtype=complex).reshape(
            grads.shape[:2] + grads.shape[3:])
        loc = loc + np.einsum("eq,eqd,eqld->el", w, gq, np.conj(grads))
        np.add.at(rhs, space.dof_matrix()[elems], loc)
    return rhs


def assert_same_csr(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    for name in ("indptr", "indices", "data"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


@st.composite
def projection_cases(draw):
    """A space of any kind with its wavenumber and a target solution."""
    kind = draw(st.sampled_from(["h1_1d", "nodal", "h1_2d", "pw", "ghp",
                                 "pum"]))
    k = draw(st.floats(1.0, 10.0))
    if kind in ("h1_1d", "nodal"):
        mesh = uniform_interval_mesh(draw(st.integers(max(1, int(k)), 10)))
        space = (h1_space(mesh, draw(st.integers(1, 4))) if kind == "h1_1d"
                 else nodally_exact_space_1d(mesh, k))
        return space, k, methods.model_1d(k).eval
    mesh = triangulate(draw(st.sampled_from([unit_square(), l_shape()])),
                       draw(st.sampled_from([1.0, 0.5, 0.35])))
    if kind == "h1_2d":
        space = h1_space(mesh, draw(st.integers(1, 4)))
    elif kind == "pum":
        space = pum_space(mesh, k, PlaneWaveBasis(k=k, p=draw(st.integers(2, 5))))
    else:
        local = PlaneWaveBasis if kind == "pw" else GhpBasis
        space = trefftz_space(mesh, k, local(k=k, p=draw(st.integers(1, 11))))
    angle = draw(st.floats(-math.pi, math.pi))
    target = methods.plane_wave_2d(k, (math.cos(angle), math.sin(angle)))
    return space, k, target.eval


class TestProjection1k:
    @settings(derandomize=True, deadline=None, database=None, max_examples=40)
    @given(projection_cases())
    def test_one_pass_equals_separate_assemblies(self, case):
        space, k, target = case
        system = assemble_projection_1k(space, k, target)
        assert_same_csr(system.A, assemble_gram_1k(space, k))
        want = separate_pass_rhs_1k(space, k, target)
        assert system.rhs.tobytes() == want.tobytes()
        assert project_rhs_1k(space, k, target).tobytes() == want.tobytes()

    def test_ghp_basis_evaluated_once_per_batch(self, monkeypatch):
        mesh = triangulate(unit_square(), 0.5)
        k = 6.0
        space = trefftz_space(mesh, k, GhpBasis(k=k, p=4))
        calls = []
        evaluate = GhpBasis.eval
        monkeypatch.setattr(GhpBasis, "eval",
                            lambda basis, y: calls.append(1) or evaluate(basis, y))
        assemble_projection_1k(space, k, methods.plane_wave_2d(k).eval)
        one_pass = len(calls)
        # the space keeps its matrices: a Gram matrix after the projection
        # evaluates nothing
        calls.clear()
        assemble_gram_1k(space, k)
        assert calls == []
        # separate assemblies on a fresh space take a pass each
        fresh = trefftz_space(mesh, k, GhpBasis(k=k, p=4))
        assemble_gram_1k(fresh, k)
        project_rhs_1k(fresh, k, methods.plane_wave_2d(k).eval)
        assert one_pass >= 1 and len(calls) == 2 * one_pass


class TestGardingIdentity:
    @pytest.mark.parametrize("kind", ["h1_1d", "h1_2d", "ne_1d", "pum"])
    def test_matrix_identity(self, kind):
        k = 5.0
        if kind == "h1_1d":
            space = h1_space(uniform_interval_mesh(8), 3)
        elif kind == "h1_2d":
            space = h1_space(triangulate(unit_square(), 0.5), 2)
        elif kind == "ne_1d":
            space = nodally_exact_space_1d(uniform_interval_mesh(12), k)
        else:
            space = pum_space(
                triangulate(unit_square(), 0.5), k, PlaneWaveBasis(k=k, p=3)
            )
        system = assemble_galerkin(space, k)
        gram = assemble_gram_1k(space, k)
        rng = np.random.default_rng(42)
        a, mass, m1k = dense(system.A), dense(system.mass), dense(gram)
        for _ in range(10):
            u = rng.standard_normal(space.ndof) + 1j * rng.standard_normal(space.ndof)
            lhs = (u.conj() @ a @ u).real + 2 * k**2 * (u.conj() @ mass @ u).real
            rhs = (u.conj() @ m1k @ u).real
            assert lhs == pytest.approx(rhs, rel=1e-12)


class TestBoundaryEnergyIdentity:
    def check(self, space, k, g, bc=None):
        system = assemble_galerkin(space, k, f=None, g=g, bc=bc)
        x = dense_solve(system)
        bd = dense(system.meta["boundary_mass"])
        lhs = k * (x.conj() @ bd @ x).real
        # Im (g, u_N) on the Robin boundary equals Im(x^H rhs_g) with our
        # conjugation convention: rhs_i = (g, b_i) so x^H rhs = (g, u_N)
        rhs_val = np.imag(np.vdot(x, system.rhs))
        assert lhs == pytest.approx(rhs_val, rel=1e-10)

    def test_1d_model(self):
        mesh = uniform_interval_mesh(30)
        space = h1_space(mesh, 2)
        k = 9.0
        g = lambda x: np.full(x.shape[0], 2.0 - 1.3j)
        self.check(space, k, g, bc={"left": "dirichlet", "right": "robin"})

    def test_2d_square(self):
        mesh = triangulate(unit_square(), 0.25)
        space = h1_space(mesh, 2)
        k = 4.0
        d = np.array([1.0, -1.0]) / math.sqrt(2.0)

        def g(pts):
            return np.exp(1j * k * (pts @ d))

        self.check(space, k, g)


class TestLeastSquares:
    def test_hermitian_psd(self):
        mesh = triangulate(unit_square(), 0.5)
        k = 5.0
        space = trefftz_space(mesh, k, PlaneWaveBasis(k=k, p=5))
        g = lambda pts: np.exp(1j * k * pts[:, 0])
        system = assemble_least_squares(space, k, g)
        A = dense(system.A)
        np.testing.assert_allclose(A, A.conj().T, atol=1e-10)
        w = np.linalg.eigvalsh(0.5 * (A + A.conj().T))
        assert w.min() > -1e-10 * w.max()

    def test_single_element_reproduces_mode(self):
        mesh = triangulate(unit_square(), 1.0)
        # restrict to one triangle so there are no interior edges
        from helmholtz_lab.meshing import mesh_from_arrays

        single = mesh_from_arrays(2, mesh.nodes[:3], np.array([[0, 2, 1]]))
        k = 4.0
        basis = PlaneWaveBasis(k=k, p=5)
        space = trefftz_space(single, k, basis)
        w0 = basis.directions[0]
        c0 = single.centroids()[0]

        # impedance data of the first basis mode, dn b0 + ik b0, with the
        # normal recovered from whichever edge the points lie on
        def g_impedance(pts):
            out = np.empty(pts.shape[0], dtype=complex)
            val = np.exp(1j * k * ((pts - c0) @ w0))
            for edge in single.boundary_edges():
                a = single.nodes[edge.nodes[0]]
                b = single.nodes[edge.nodes[1]]
                t = b - a
                t = t / np.linalg.norm(t)
                rel = pts - a
                on_edge = np.abs(rel[:, 0] * t[1] - rel[:, 1] * t[0]) < 1e-9
                dn = 1j * k * (w0 @ edge.normal) * val
                out[on_edge] = dn[on_edge] + 1j * k * val[on_edge]
            return out

        system = assemble_least_squares(space, k, g_impedance)
        res = solve(system, svd_cutoff=1e-12)
        x = res.x
        expect = np.zeros(space.ndof, dtype=complex)
        expect[0] = 1.0
        np.testing.assert_allclose(x, expect, atol=1e-7)
        j_val = (x.conj() @ system.A @ x).real - 2 * np.real(
            np.vdot(x, system.rhs)
        ) + system.meta["g_norm2"]
        assert abs(j_val) < 1e-12 * system.meta["g_norm2"]

    def test_doubling_data_doubles_solution(self):
        mesh = triangulate(unit_square(), 0.5)
        k = 3.0
        space = trefftz_space(mesh, k, PlaneWaveBasis(k=k, p=4))
        g1 = lambda pts: np.exp(1j * k * pts[:, 1])
        g2 = lambda pts: 2.0 * np.exp(1j * k * pts[:, 1])
        x1 = solve(assemble_least_squares(space, k, g1), svd_cutoff=1e-12).x
        x2 = solve(assemble_least_squares(space, k, g2), svd_cutoff=1e-12).x
        np.testing.assert_allclose(x2, 2.0 * x1, atol=1e-8 * np.abs(x1).max())


class TestDirichlet2D:
    @pytest.mark.parametrize("kind", ["h1_p1", "h1_p2", "h1_p3", "pum"])
    def test_fixed_dofs_are_the_wall_traces(self, kind):
        # the fixed DOFs are exactly those with a nonzero trace on the wall
        mesh = triangulate(wall_square(), 0.25)
        k = 4.0
        space = (pum_space(mesh, k, PlaneWaveBasis(k=k, p=3)) if kind == "pum"
                 else h1_space(mesh, int(kind[-1])))
        system = assemble_galerkin(space, k, bc={"wall": "dirichlet"})
        fixed = np.setdiff1d(np.arange(space.ndof), system.free)
        bd, _ = assembly._boundary_parts(space, k, {"wall"})
        diag = np.abs(assembly._csr(space.element_pattern, bd).diagonal())
        np.testing.assert_array_equal(
            fixed, np.flatnonzero(diag > 1e-12 * diag.max()))
        assert 0 < len(fixed) < space.ndof


def counted_eval_basis(space):
    """Make `space.eval_basis` record the element count of every call."""
    calls = []
    original = space.eval_basis

    def counted(elems, pts):
        calls.append(np.size(elems))
        return original(elems, pts)

    space.eval_basis = counted
    return calls


def separate_pass_galerkin_rhs(space, k, f, g, robin_tags):
    """The Galerkin load from two passes of its own, each evaluating the
    basis again: the source over the element batches, then the Robin
    datum over the boundary batches, each summed into its own vector and
    both added to zero."""
    def load(batches, fn):
        rhs = np.zeros(space.ndof, dtype=complex)
        for elems, pts, w in batches:
            vals, _ = space.eval_basis(elems, pts)
            uq = np.asarray(fn(pts.reshape((-1,) + pts.shape[2:])),
                            dtype=complex).reshape(w.shape)
            np.add.at(rhs, space.dof_matrix()[elems],
                      np.einsum("eq,eql->el", w * uq, np.conj(vals)))
        return rhs

    rule = space.volume_rule(k)
    volume = ((elems,) + space.mesh.map_rule(elems, rule)
              for elems in space.element_batches(len(rule.weights)))
    rhs = np.zeros(space.ndof, dtype=complex)
    if f is not None:
        rhs += load(volume, f)
    if g is not None:
        rhs += load(assembly._boundary_batches(space, k, robin_tags), g)
    return rhs


def one_pass_cases():
    """(space, k, f, g, bc, Robin tags): 1D H1 with f = 1 and a Dirichlet
    end, and the 2D square with plane-wave Robin data."""
    k = 10.0
    line = h1_space(uniform_interval_mesh(64), 3)
    one = lambda x: np.ones(x.shape[0], dtype=complex)
    yield (line, k, one, lambda x: np.full(x.shape[0], 0.5 - 2j),
           {"left": "dirichlet", "right": "robin"}, {"right"})
    square = h1_space(triangulate(unit_square(), 0.25), 2)
    g = methods.plane_wave_problem(4.0).g
    yield square, 4.0, None, g, {}, {"robin"}


class TestOnePassGalerkin:
    @pytest.mark.parametrize("case", [0, 1], ids=["1d_source_dirichlet",
                                                 "2d_robin"])
    def test_one_basis_evaluation_per_batch(self, case, monkeypatch):
        # small batches: several volume and boundary batches per pass
        monkeypatch.setattr(spaces, "_BATCH_ENTRIES", 600)
        space, k, f, g, bc, robin = list(one_pass_cases())[case]
        n_volume = len(list(space.element_batches(
            len(space.volume_rule(k).weights))))
        n_boundary = len(list(assembly._boundary_batches(space, k, robin)))
        calls = counted_eval_basis(space)
        assemble_galerkin(space, k, f=f, g=g, bc=bc)
        # the 2D polynomial matrices come from reference tables, so a
        # source-free 2D system evaluates the basis on the boundary only
        expect = n_boundary + (n_volume if f is not None else 0)
        assert n_volume > 1 and n_boundary >= 1
        assert len(calls) == expect

    @pytest.mark.parametrize("case", [0, 1], ids=["1d_source_dirichlet",
                                                 "2d_robin"])
    def test_load_equals_separate_passes_bitwise(self, case):
        space, k, f, g, bc, robin = list(one_pass_cases())[case]
        system = assemble_galerkin(space, k, f=f, g=g, bc=bc)
        want = separate_pass_galerkin_rhs(space, k, f, g, robin)
        assert system.rhs.tobytes() == want.tobytes()

    def test_meta_holds_only_what_is_read(self):
        k = 3.0
        mesh = triangulate(unit_square(), 0.5)
        tz = trefftz_space(mesh, k, PlaneWaveBasis(k=k, p=3))
        g = lambda pts: np.exp(1j * k * pts[:, 0])
        assert set(assemble_galerkin(h1_space(mesh, 1), k).meta) == {
            "dim", "boundary_mass"}
        assert set(assemble_least_squares(tz, k, g).meta) == {
            "w1", "w2", "g_norm2"}
        assert assemble_pwdg(tz, k, g, uwvf_fluxes()).meta == {}


class TestPwdg:
    def test_flux_presets(self):
        mesh = triangulate(unit_square(), 0.5)
        k = 4.0
        space = trefftz_space(mesh, k, PlaneWaveBasis(k=k, p=5))
        uwvf = uwvf_fluxes()
        assert [float(v) for v in uwvf.on_edges(0)] == [0.5, 0.5, 0.5]
        hmp = hmp_fluxes(space)
        e0 = mesh.interior_edges()[0].index
        h_e = mesh.edge_lengths[e0]
        lg = math.log(space.nloc + 1.0)
        alpha, beta, delta = (float(v) for v in hmp.on_edges(e0))
        assert alpha == pytest.approx(space.nloc / (k * h_e * lg))
        assert beta == pytest.approx(k * h_e * lg / space.nloc)
        assert delta <= 0.49
        hv = h_version_fluxes(space, a=2.0)
        assert float(hv.on_edges(e0)[0]) == pytest.approx(2.0 / (k * h_e))

    def test_invalid_flux_rejected(self):
        mesh = triangulate(unit_square(), 0.5)
        k = 4.0
        space = trefftz_space(mesh, k, PlaneWaveBasis(k=k, p=3))
        g = lambda pts: np.zeros(pts.shape[0], dtype=complex)
        with pytest.raises(ValueError):
            assemble_pwdg(space, k, g, FluxParams(alpha=-1.0, beta=0.5, delta=0.5))
        with pytest.raises(ValueError):
            assemble_pwdg(space, k, g, FluxParams(alpha=0.5, beta=0.5, delta=1.5))

    def test_im_quadratic_form_positive(self):
        mesh = triangulate(unit_square(), 0.5)
        k = 6.0
        space = trefftz_space(mesh, k, PlaneWaveBasis(k=k, p=4))
        g = lambda pts: np.zeros(pts.shape[0], dtype=complex)
        system = assemble_pwdg(space, k, g, uwvf_fluxes())
        rng = np.random.default_rng(3)
        for _ in range(5):
            v = rng.standard_normal(space.ndof) + 1j * rng.standard_normal(space.ndof)
            q = np.imag(v.conj() @ system.A @ v)
            assert q > 0

    def test_zero_data_zero_solution(self):
        mesh = triangulate(unit_square(), 0.5)
        k = 5.0
        space = trefftz_space(mesh, k, GhpBasis(k=k, p=3))
        g = lambda pts: np.zeros(pts.shape[0], dtype=complex)
        system = assemble_pwdg(space, k, g, uwvf_fluxes())
        x = solve(system, svd_cutoff=1e-12).x
        np.testing.assert_allclose(x, 0.0, atol=1e-12)


class TestSolve:
    def test_identity(self):
        rhs = np.array([1.0 + 2j, -0.5j, 3.0])
        system = ComplexSystem(A=np.eye(3, dtype=complex), rhs=rhs)
        res = solve(system)
        np.testing.assert_allclose(res.x, rhs)
        assert res.residual < 1e-15
        assert res.strategy == "sparse_lu"
        assert res.ordering == "MMD_AT_PLUS_A" and res.lu_nnz > 0

    def test_hand_2x2(self):
        A = np.array([[1.0, 1j], [-1j, 2.0]])
        system = ComplexSystem(A=A, rhs=np.array([1.0, 0.0], dtype=complex))
        for cutoff in (None, 1e-12):
            res = solve(system, svd_cutoff=cutoff)
            np.testing.assert_allclose(res.x, [2.0, 1j], atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_free_block_is_scipys_bitwise(self, dim):
        # the solve sees the same stored entries as A[free][:, free]
        k = 4.0
        if dim == 1:
            space = h1_space(uniform_interval_mesh(9), 3)
            bc = {"left": "dirichlet"}
        else:
            space = h1_space(triangulate(wall_square(), 0.25), 2)
            bc = {"wall": "dirichlet"}
        system = assemble_galerkin(space, k, f=1.0, bc=bc)
        block, rhs = assembly._reduce(system)
        assert_same_csr(block, system.A[system.free][:, system.free])
        assert rhs.tobytes() == system.rhs[system.free].tobytes()
        # the real (1,k) Gram matrix stays real, for the inf-sup probe
        gram = assemble_gram_1k(space, k)
        assert gram.dtype == np.float64
        for M in (system.A, gram):
            assert_same_csr(assembly.restrict(M, system.free),
                            M[system.free][:, system.free])
            assert assembly.restrict(M, None) is M

    def test_dirichlet_reduction(self):
        mesh = uniform_interval_mesh(6)
        space = h1_space(mesh, 1)
        k = 2.0
        g = lambda x: np.full(x.shape[0], 1.0 + 0j)
        system = assemble_galerkin(
            space, k, f=1.0, g=g, bc={"left": "dirichlet", "right": "robin"}
        )
        res = solve(system)
        assert res.x[0] == 0.0
        assert res.residual < 1e-10
        assert res.x.shape == (space.ndof,)

    def test_residual_computed_once_on_checked_paths(self, monkeypatch):
        # the symmetric-mode solution and the certified LU each carry the
        # residual that accepted them; solve does not form A x again
        calls = []
        residual = assembly._relative_residual
        monkeypatch.setattr(assembly, "_relative_residual",
                            lambda *args: calls.append(1) or residual(*args))
        mesh = triangulate(unit_square(), 0.25)
        k = 6.0
        galerkin = assemble_galerkin(h1_space(mesh, 2), k,
                                     g=lambda pts: np.ones(len(pts), complex))
        tz = trefftz_space(mesh, k, PlaneWaveBasis(k=k, p=5))
        gram = ComplexSystem(A=assemble_gram_1k(tz, k),
                             rhs=np.arange(tz.ndof) + 0.5j)
        for system, cutoff, path in ((galerkin, None, "MMD_AT_PLUS_A"),
                                     (gram, 1e-12, "COLAMD")):
            calls.clear()
            res = solve(system, svd_cutoff=cutoff)
            assert res.strategy == "sparse_lu" and res.ordering == path
            assert len(calls) == 1
            A, rhs = assembly._reduce(system)
            assert res.residual == residual(A, res.x, rhs)

    def test_truncated_svd_minimum_norm(self):
        A = np.diag([1.0, 1e-16]).astype(complex)
        system = ComplexSystem(A=A, rhs=np.array([2.0, 1.0], dtype=complex))
        res = solve(system, svd_cutoff=1e-12)
        np.testing.assert_allclose(res.x, [2.0, 0.0], atol=1e-12)
        assert res.svd_dropped == 1

    def test_certified_lu_on_least_squares(self):
        mesh = triangulate(unit_square(), 0.25)
        k = 10.0
        space = trefftz_space(mesh, k, PlaneWaveBasis(k=k, p=7))
        g = lambda pts: np.exp(1j * k * (0.6 * pts[:, 0] + 0.8 * pts[:, 1]))
        system = assemble_least_squares(space, k, g)
        res = solve(system, svd_cutoff=1e-12)
        assert res.strategy == "sparse_lu"
        assert res.ordering == "COLAMD" and res.lu_nnz > 0
        assert res.svd_dropped == 0
        assert 1.0 <= res.cond_est < 1e12 / (10 * space.ndof)
        u, sv, vh = np.linalg.svd(system.A.toarray())
        assert sv[-1] > 1e-12 * sv[0]
        x_svd = vh.conj().T @ ((u.conj().T @ system.rhs) / sv)
        np.testing.assert_allclose(res.x, x_svd, rtol=0,
                                   atol=1e-8 * np.abs(x_svd).max())

    def test_svd_fallback_reports_its_path(self):
        near = ComplexSystem(A=np.diag([1.0, 1e-16]).astype(complex),
                             rhs=np.array([2.0, 1.0], dtype=complex))
        res = solve(near, svd_cutoff=1e-12)
        assert res.strategy == "truncated_svd"
        assert res.cond_est == pytest.approx(1e16)
        singular = ComplexSystem(A=np.ones((2, 2), dtype=complex),
                                 rhs=np.array([2.0, 1.0], dtype=complex))
        res = solve(singular, svd_cutoff=1e-12)
        assert res.strategy == "truncated_svd"
        assert res.ordering is None and res.lu_nnz is None
        assert res.cond_est is None
        assert res.svd_dropped == 1
        np.testing.assert_allclose(res.x, [0.75, 0.75], atol=1e-12)

    def test_dimension_mismatch(self):
        system = ComplexSystem(A=np.eye(3, dtype=complex), rhs=np.zeros(2, complex))
        with pytest.raises(ValueError):
            solve(system)

    def test_sparse_matches_dense(self):
        mesh = triangulate(unit_square(), 0.25)
        space = h1_space(mesh, 2)
        k = 5.0
        g = lambda pts: np.exp(1j * k * pts[:, 0])
        system = assemble_galerkin(space, k, g=g)
        xs = solve(system).x
        xd = dense_solve(system)
        np.testing.assert_allclose(xs, xd, atol=1e-10 * np.abs(xd).max())

    def test_symmetric_mode_on_2d_galerkin_system(self):
        # 2401 unknowns; on the smallest meshes COLAMD may fill in less
        mesh = triangulate(unit_square(), 1.0 / 24)
        space = h1_space(mesh, 2)
        k = 10.0
        g = lambda pts: np.exp(1j * k * pts[:, 0])
        system = assemble_galerkin(space, k, g=g)
        res = solve(system)
        assert res.ordering == "MMD_AT_PLUS_A"
        assert res.residual <= 1e-10
        lu = scipy.sparse.linalg.splu(system.A.tocsc(), permc_spec="COLAMD")
        x_colamd = lu.solve(system.rhs)
        assert (np.linalg.norm(res.x - x_colamd)
                <= 1e-10 * np.linalg.norm(x_colamd))
        assert res.lu_nnz < lu.nnz

    @pytest.mark.parametrize("tiny", [1e-20, 1e-310],
                             ids=["residual", "singular_pivot"])
    def test_unstable_diagonal_pivots_fall_back_to_colamd(self, tiny):
        # Every symmetric ordering keeps the tiny diagonal pivot first:
        # at 1e-20 its solution has residual ~0.4, at 1e-310 splu raises.
        A = np.array([[tiny, 1.0], [1.0, tiny]], dtype=complex)
        rhs = np.array([1.0, 2.0], dtype=complex)
        res = solve(ComplexSystem(A=A, rhs=rhs))
        assert res.ordering == "COLAMD"
        np.testing.assert_allclose(res.x, [2.0, 1.0], rtol=1e-15)
        assert res.residual <= 1e-15

    @pytest.mark.parametrize("A", [
        np.eye(5)[[1, 2, 3, 4, 0]],
        np.array([[1e-20, 1.0], [1.0, 1.0]]),
    ], ids=["zero_diagonal_permutation", "tiny_first_diagonal"])
    def test_solutions_that_pass_the_guard_are_exact(self, A):
        # SuperLU still takes an off-diagonal pivot where a diagonal entry
        # is exactly zero, and the minimum-degree ordering of the 2x2
        # matrix eliminates the unit diagonal entry first; both solutions
        # pass the residual guard.
        rhs = np.arange(1.0, len(A) + 1.0).astype(complex)
        res = solve(ComplexSystem(A=A.astype(complex), rhs=rhs))
        np.testing.assert_allclose(res.x, np.linalg.solve(A, rhs),
                                   rtol=1e-15)
        assert res.residual <= 1e-15

    @pytest.mark.parametrize("A, ordering", [
        (np.array([[1e-20, 1.0], [1.0, 1e-20]]), "COLAMD"),
        (np.array([[2.0, 1j], [1j, 3.0]]), "MMD_AT_PLUS_A"),
    ], ids=["colamd_fallback", "symmetric_mode"])
    def test_lu_path_never_reaches_the_svd(self, A, ordering, monkeypatch):
        # without a cutoff a solve is a sparse LU, even where the
        # symmetric-mode solution fails its residual check
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called without a cutoff")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        rhs = np.array([1.0, 2.0], dtype=complex)
        res = solve(ComplexSystem(A=A.astype(complex), rhs=rhs))
        assert res.strategy == "sparse_lu" and res.ordering == ordering
        assert res.svd_dropped == 0
        np.testing.assert_allclose(res.x, np.linalg.solve(A, rhs),
                                   rtol=1e-15)

    def test_1d_system_keeps_colamd_bitwise(self):
        space = h1_space(uniform_interval_mesh(24), 4)
        k = 10.0
        g = lambda x: np.full(x.shape[0], 1.0 + 0j)
        system = assemble_galerkin(space, k, f=1.0, g=g)
        assert system.meta["dim"] == 1
        res = solve(system)
        assert res.ordering == "COLAMD"
        lu = scipy.sparse.linalg.splu(system.A.tocsc(), permc_spec="COLAMD")
        assert np.array_equal(res.x, lu.solve(system.rhs))
        assert res.lu_nnz == lu.nnz


class TestDenseLimit:
    def test_one_above_limit_refused_without_allocation(self):
        # singular, so the certified LU fails and the SVD branch refuses
        n = assembly._DENSE_LIMIT + 1
        diagonal = np.ones(n, dtype=complex)
        diagonal[-1] = 0.0
        A = scipy.sparse.diags_array(diagonal, format="csr")
        system = ComplexSystem(A=A, rhs=np.ones(n, dtype=complex))
        message = f"n={n} .* limit of {assembly._DENSE_LIMIT}"
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                solve(system, svd_cutoff=1e-12)
            with pytest.raises(ValueError, match=message):
                infsup_probe(A, A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * 16 * n * n

    def test_certified_lu_above_limit_solves(self):
        n = assembly._DENSE_LIMIT + 1
        A = scipy.sparse.identity(n, dtype=complex, format="csr")
        rhs = np.arange(n, dtype=complex)
        result = solve(ComplexSystem(A=A, rhs=rhs), svd_cutoff=1e-12)
        assert result.strategy == "sparse_lu"
        assert result.ordering == "COLAMD"
        assert result.svd_dropped == 0
        assert np.array_equal(result.x, rhs)

    def test_limit_covers_the_largest_least_squares_run(self):
        # plane-wave LS on the unit square at h = 1/16 with p = 9
        assert assembly._DENSE_LIMIT >= 2 * 16**2 * 9


class TestSparseForm:
    def test_every_assembler_returns_csr(self):
        k = 3.0
        h1 = h1_space(triangulate(unit_square(), 0.5), 2)
        tz = trefftz_space(triangulate(unit_square(), 0.5), k,
                           PlaneWaveBasis(k=k, p=3))
        g = lambda pts: np.exp(1j * k * pts[:, 0])
        system = assemble_galerkin(h1, k, g=g)
        mats = [system.A, system.mass, system.meta["boundary_mass"],
                assemble_gram_1k(h1, k), assemble_gram_1k(tz, k),
                assemble_least_squares(tz, k, g).A,
                assemble_pwdg(tz, k, g, uwvf_fluxes()).A]
        for mat in mats:
            assert scipy.sparse.issparse(mat) and mat.format == "csr"

    @pytest.mark.parametrize("kind", ["h1_1d", "h1_2d", "nodal"])
    def test_galerkin_complex_symmetric(self, kind):
        k = 5.0
        if kind == "h1_1d":
            space = h1_space(uniform_interval_mesh(8), 4)
        elif kind == "h1_2d":
            space = h1_space(triangulate(unit_square(), 0.25), 3)
        else:
            space = nodally_exact_space_1d(uniform_interval_mesh(12), k)
        A = assemble_galerkin(space, k).A
        assert abs(A - A.T).max() <= 1e-14 * abs(A).max()


class TestInfsupProbe:
    def test_whitened_identity(self):
        rng = np.random.default_rng(0)
        n = 12
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        M = raw @ raw.conj().T + n * np.eye(n)
        assert infsup_probe(M, M) == pytest.approx(1.0, rel=1e-12)
        assert infsup_probe(2.0 * M, M) == pytest.approx(2.0, rel=1e-12)

    def test_rejects_indefinite_gram(self):
        M = np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(np.linalg.LinAlgError):
            infsup_probe(np.eye(2, dtype=complex), M)

    def test_1d_model_decay(self):
        # the discrete inf-sup constant of the model problem decays with k
        vals = []
        for k in (4.0, 16.0):
            n = int(round(k / 0.25))  # fixed kh = 0.25
            mesh = uniform_interval_mesh(max(8, n))
            space = h1_space(mesh, 1)
            system = assemble_galerkin(
                space, k, bc={"left": "dirichlet", "right": "robin"}
            )
            gram = assemble_gram_1k(space, k)
            free = system.free
            a = dense(system.A)[np.ix_(free, free)]
            m = dense(gram)[np.ix_(free, free)]
            vals.append(infsup_probe(a, m))
        assert vals[1] < 0.5 * vals[0]


class TestDeterminism:
    def test_assembly_bitwise_stable(self):
        mesh = triangulate(unit_square(), 0.5)
        k = 7.0
        space = trefftz_space(mesh, k, PlaneWaveBasis(k=k, p=4))
        g = lambda pts: np.exp(1j * k * pts[:, 0])
        s1 = assemble_pwdg(space, k, g, uwvf_fluxes())
        s2 = assemble_pwdg(space, k, g, uwvf_fluxes())
        assert np.array_equal(dense(s1.A), dense(s2.A))
        assert np.array_equal(s1.rhs, s2.rhs)


# -- the block-sum contract ------------------------------------------------------


def coo_sum(n, blocks):
    """CSR sum of the local blocks (dofs (B, L), local (B, L, L)) through
    COO triplets, exact zeros dropped."""
    if not blocks:
        return scipy.sparse.csr_matrix((n, n), dtype=complex)
    rows = np.concatenate([np.broadcast_to(d[:, :, None], v.shape).ravel()
                           for d, v in blocks])
    cols = np.concatenate([np.broadcast_to(d[:, None, :], v.shape).ravel()
                           for d, v in blocks])
    vals = np.concatenate([v.ravel() for _, v in blocks])
    out = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    out.eliminate_zeros()
    return out


def coo_parts(space, k, robin_tags):
    """Stiffness, mass and Robin boundary mass, each summed through COO
    triplets from the local matrices."""
    rule = space.volume_rule(k)
    dofs = space.dof_matrix()
    stiff, mass, bd = [], [], []
    for elems in space.element_batches(len(rule.weights)):
        s_loc, m_loc = space.element_matrices(elems, rule)
        stiff.append((dofs[elems], s_loc))
        mass.append((dofs[elems], m_loc))
    for elems, pts, w in assembly._boundary_batches(space, k, robin_tags):
        vals, _ = space.eval_basis(elems, pts)
        bd.append((dofs[elems],
                   np.einsum("eq,eql,eqm->elm", w, np.conj(vals), vals)))
    return (coo_sum(space.ndof, stiff), coo_sum(space.ndof, mass),
            coo_sum(space.ndof, bd))


def coo_galerkin(space, k, robin_tags, robin_sign=1.0):
    """The Galerkin matrix combined from the COO parts by scipy's sparse
    sums (which drop the zeros they produce), with its mass and boundary
    mass."""
    stiff, mass, bd = coo_parts(space, k, robin_tags)
    return stiff - k**2 * mass + robin_sign * 1j * k * bd, mass, bd


def coo_gram_1k(space, k):
    stiff, mass, _ = coo_parts(space, k, set())
    return stiff + k**2 * mass


def assert_close_csr(a, b, rtol=1e-14):
    """Same structure and dtype, entries equal to rtol of the largest."""
    assert a.shape == b.shape and a.dtype == b.dtype
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    assert np.max(np.abs(a.data - b.data)) <= rtol * np.max(np.abs(b.data))


def assert_no_stored_zero(a):
    assert np.all(a.data != 0)


def galerkin_spaces_1d():
    k = 10.0
    cases = []
    for p in (1, 2, 3, 4):
        cases.append((f"h1_p{p}", h1_space(uniform_interval_mesh(12), p), k))
        graded = geometric_refine(uniform_interval_mesh(6), [0.0], 0.3, 4)
        cases.append((f"h1_graded_p{p}", h1_space(graded, p), k))
    cases.append(("nodal", nodally_exact_space_1d(uniform_interval_mesh(16), k),
                  k))
    cases.append(("h1_one_element", h1_space(uniform_interval_mesh(1), 3), k))
    return cases


class TestBlockSum:
    @pytest.mark.parametrize("robin_sign", [1.0, -1.0])
    @pytest.mark.parametrize("bc", [None, {"left": "dirichlet"}],
                             ids=["robin", "wall"])
    @pytest.mark.parametrize(
        "name, space, k", galerkin_spaces_1d(),
        ids=[c[0] for c in galerkin_spaces_1d()])
    def test_1d_galerkin_bitwise(self, name, space, k, bc, robin_sign):
        system = assemble_galerkin(space, k, f=1.0, bc=bc,
                                   robin_sign=robin_sign)
        robin = {"left", "right"} - set(bc or ())
        A, mass, bd = coo_galerkin(space, k, robin, robin_sign)
        assert_same_csr(system.A, A)
        assert_same_csr(system.meta["boundary_mass"], bd)
        assert_same_csr(system.mass, mass)
        assert_same_csr(assemble_gram_1k(space, k), coo_gram_1k(space, k))
        assert_no_stored_zero(system.A)

    @pytest.mark.parametrize("local", [PlaneWaveBasis, GhpBasis])
    @pytest.mark.parametrize("p", [1, 3, 6])
    def test_trefftz_gram_bitwise(self, local, p):
        k = 8.0
        space = trefftz_space(triangulate(unit_square(), 0.5), k,
                              local(k=k, p=p))
        want = coo_gram_1k(space, k)
        assert_same_csr(assemble_gram_1k(space, k), want)
        target = methods.plane_wave_2d(k, (0.6, 0.8)).eval
        assert_same_csr(assemble_projection_1k(space, k, target).A, want)
        assert_no_stored_zero(want)

    @pytest.mark.parametrize("kind", ["h1_p1", "h1_p3", "h1_lshape_p5", "pum"])
    def test_2d_galerkin_to_roundoff(self, kind):
        k = 6.0
        if kind == "pum":
            space = pum_space(triangulate(unit_square(), 0.25), k,
                              PlaneWaveBasis(k=k, p=4))
        elif kind == "h1_lshape_p5":
            mesh = geometric_refine(triangulate(l_shape(), 0.5), [(0.0, 0.0)],
                                    0.3, 3)
            space = h1_space(mesh, 5)
        else:
            space = h1_space(triangulate(unit_square(), 0.25), int(kind[-1]))
        system = assemble_galerkin(space, k)
        A, mass, bd = coo_galerkin(space, k, {"robin"})
        assert_close_csr(system.A, A)
        assert_close_csr(system.mass, mass)
        assert_close_csr(system.meta["boundary_mass"], bd)
        assert_close_csr(assemble_gram_1k(space, k), coo_gram_1k(space, k))
        assert_no_stored_zero(system.A)

    @pytest.mark.parametrize("method", ["ls", "uwvf", "hmp"])
    @pytest.mark.parametrize("local", [PlaneWaveBasis, GhpBasis])
    def test_skeleton_to_roundoff(self, method, local, monkeypatch):
        k = 7.0
        space = trefftz_space(triangulate(unit_square(), 0.25), k,
                              local(k=k, p=3))
        g = lambda pts: np.exp(1j * k * pts[:, 0])
        # record the local blocks in the order they are summed
        blocks = []
        block_sum = assembly._block_sum
        monkeypatch.setattr(
            assembly, "_block_sum",
            lambda data, pattern, slots, local: blocks.append(local)
            or block_sum(data, pattern, slots, local))
        if method == "ls":
            A = assemble_least_squares(space, k, g).A
        else:
            flux = uwvf_fluxes() if method == "uwvf" else hmp_fluxes(space)
            A = assemble_pwdg(space, k, g, flux).A
        # their DOFs, from the traces of the same edge batches
        interior, boundary = assembly._skeleton_edges(space.mesh)
        dofs = []
        for edges in (interior, boundary):
            for batch, t, _ in assembly._edge_groups(space, k, edges):
                _, sides = assembly._edge_traces(space, batch, t)
                dofs.append(np.concatenate([d for d, _, _ in sides], axis=1))
        assert len(dofs) == len(blocks)
        assert_close_csr(A, coo_sum(space.ndof, list(zip(dofs, blocks))))
        assert_no_stored_zero(A)

    def test_pattern_of_overlapping_blocks(self):
        # two blocks sharing DOF 1, and a block repeating one
        pattern = spaces.BlockPattern.of(4, [np.array([[0, 1], [1, 3]]),
                                             np.array([[2]])])
        np.testing.assert_array_equal(pattern.indptr, [0, 2, 5, 6, 8])
        np.testing.assert_array_equal(pattern.indices,
                                      [0, 1, 0, 1, 3, 2, 1, 3])
        np.testing.assert_array_equal(
            pattern.slots[0], [[[0, 1], [2, 3]], [[3, 4], [6, 7]]])
        np.testing.assert_array_equal(pattern.slots[1], [[[5]]])

    def test_element_pattern_built_once(self):
        space = h1_space(uniform_interval_mesh(8), 2)
        assert space.element_pattern is space.element_pattern
        before = space.element_pattern.indices.copy()
        assemble_galerkin(space, 3.0)
        assemble_gram_1k(space, 3.0)
        np.testing.assert_array_equal(space.element_pattern.indices, before)


# -- matrix invariants -----------------------------------------------------------


class TestMatrixInvariants:
    # TestSparseForm checks the symmetry without a wall
    @pytest.mark.parametrize("kind", ["h1_1d_p1", "h1_1d_p4", "h1_2d_p1",
                                      "h1_2d_p3", "nodal"])
    def test_galerkin_complex_symmetric_with_wall(self, kind):
        k = 5.0
        if kind.startswith("h1_1d"):
            space = h1_space(uniform_interval_mesh(10), int(kind[-1]))
            bc = {"left": "dirichlet"}
        elif kind == "nodal":
            space = nodally_exact_space_1d(uniform_interval_mesh(12), k)
            bc = {"left": "dirichlet"}
        else:
            space = h1_space(triangulate(wall_square(), 0.25), int(kind[-1]))
            bc = {"wall": "dirichlet"}
        system = assemble_galerkin(space, k, bc=bc)
        assert system.free is not None
        for A in (system.A, assembly._reduce(system)[0]):
            assert abs(A - A.T).max() <= 1e-14 * abs(A).max()

    @pytest.mark.parametrize("h", [1.0, 0.5, 0.25])
    @pytest.mark.parametrize("local, p", [(PlaneWaveBasis, 3),
                                          (PlaneWaveBasis, 7),
                                          (GhpBasis, 2), (GhpBasis, 4)])
    def test_least_squares_hermitian_psd(self, local, p, h):
        k = 6.0
        space = trefftz_space(triangulate(unit_square(), h), k,
                              local(k=k, p=p))
        g = lambda pts: np.exp(1j * k * (0.6 * pts[:, 0] + 0.8 * pts[:, 1]))
        A = dense(assemble_least_squares(space, k, g).A)
        scale = np.abs(A).max()
        assert np.abs(A - A.conj().T).max() <= 1e-13 * scale
        w = np.linalg.eigvalsh(0.5 * (A + A.conj().T))
        assert w.min() >= -1e-12 * w.max()


# -- volume data kept with the space -----------------------------------------

# (name, fresh space, the bc of its Dirichlet wall, Robin data at k, target
# of the (1,k) projection at k): H1 on the interval and on the square with
# a wall side, the rows of a k-sweep at fixed (h, p)
KEPT_KINDS = ["h1_1d_p1", "h1_1d_p2", "h1_1d_p4", "h1_2d_p1", "h1_2d_p3"]


def kept_case(kind):
    p = int(kind[-1])
    if kind.startswith("h1_1d"):
        return (lambda: h1_space(uniform_interval_mesh(12), p),
                {"left": "dirichlet"},
                lambda k: (lambda x: np.full(x.shape[0], 0.5 - 2j)),
                lambda k: methods.model_1d(k).eval)
    return (lambda: h1_space(triangulate(wall_square(), 0.25), p),
            {"wall": "dirichlet"},
            lambda k: methods.plane_wave_problem(k).g,
            lambda k: methods.plane_wave_2d(k).eval)


def assert_same_system(got, want):
    assert_same_csr(got.A, want.A)
    assert got.rhs.tobytes() == want.rhs.tobytes()
    assert (got.free is None) == (want.free is None)
    if want.free is not None:
        assert got.free.tobytes() == want.free.tobytes()
    assert_same_csr(got.mass, want.mass)
    assert_same_csr(got.meta["boundary_mass"], want.meta["boundary_mass"])


class TestKeptVolumeData:
    @pytest.mark.parametrize("kind", KEPT_KINDS)
    @pytest.mark.parametrize("wall", [False, True], ids=["robin", "wall"])
    @pytest.mark.parametrize("source", [False, True], ids=["g", "f_g"])
    def test_reused_space_equals_fresh_bitwise(self, kind, wall, source):
        fresh, wall_bc, robin_data, target = kept_case(kind)
        bc = wall_bc if wall else None
        f = None
        if source:
            f = lambda x: np.cos(3.0 * (x if x.ndim == 1 else x[:, 0])) + 0.5j
        kept = fresh()
        for k in (1.0, 10.0, 100.0):
            g, u = robin_data(k), target(k)
            # on the kept space the Galerkin system comes after the Gram
            # and projection systems except at the first k
            if k != 1.0:
                assert_same_csr(assemble_gram_1k(kept, k),
                                assemble_gram_1k(fresh(), k))
            got = assemble_galerkin(kept, k, f=f, g=g, bc=bc)
            assert_same_system(got, assemble_galerkin(fresh(), k, f=f, g=g,
                                                      bc=bc))
            proj = assemble_projection_1k(kept, k, u)
            want = assemble_projection_1k(fresh(), k, u)
            assert_same_csr(proj.A, want.A)
            assert proj.rhs.tobytes() == want.rhs.tobytes()
            assert (project_rhs_1k(kept, k, u).tobytes()
                    == project_rhs_1k(fresh(), k, u).tobytes())
        # one volume rule for every k: one pair of arrays
        assert len(kept.volume_data) == 1

    @pytest.mark.parametrize("kind", KEPT_KINDS)
    def test_kept_arrays_are_read_only_and_unchanged(self, kind):
        fresh, wall_bc, robin_data, target = kept_case(kind)
        space = fresh()
        assemble_galerkin(space, 1.0, g=robin_data(1.0), bc=wall_bc)
        (kept,) = space.volume_data.values()
        before = [data.tobytes() for data in kept]
        for data in kept:
            assert not data.flags.writeable
            with pytest.raises(ValueError):
                data[0] = 1.0
        for k in (1.0, 10.0, 100.0):
            system = assemble_galerkin(space, k, f=1.0, g=robin_data(k),
                                       bc=wall_bc)
            system.mass
            assemble_gram_1k(space, k)
            assemble_projection_1k(space, k, target(k))
            methods.h1_best_approximation(
                methods.model_problem_1d(k) if space.mesh.dim == 1
                else methods.plane_wave_problem(k), space)
        (after,) = space.volume_data.values()
        assert all(a is b for a, b in zip(after, kept))
        assert [data.tobytes() for data in kept] == before

    def test_mass_is_built_on_first_read(self, monkeypatch):
        space = h1_space(uniform_interval_mesh(8), 2)
        built = []
        csr = assembly._csr
        monkeypatch.setattr(assembly, "_csr",
                            lambda pattern, data: built.append(1)
                            or csr(pattern, data))
        system = assemble_galerkin(space, 3.0, bc={"left": "dirichlet"})
        # A and the boundary mass only
        assert len(built) == 2
        mass = system.mass
        assert len(built) == 3 and system.mass is mass
        pattern = space.element_pattern
        (kept,) = space.volume_data.values()
        assert_same_csr(mass, csr(pattern, kept[1]))
