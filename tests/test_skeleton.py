"""Edge-batched skeleton kernels against a per-edge reference.

The reference functions below loop over the mesh's Edge views and
evaluate each adjacent element's basis on its own, the way the skeleton
forms and norms are defined edge by edge.  The mesh is a graded L-shape
whose edges fall into several quadrature-rule groups.
"""

import numpy as np
import pytest

from helmholtz_lab import analysis, assembly, spaces
from helmholtz_lab.meshing import geometric_refine, l_shape, triangulate

K = 6.0
DIRECTION = np.array([0.6, 0.8])


def exact_value(pts):
    return np.exp(1j * K * (pts @ DIRECTION))


def exact_grad(pts):
    return 1j * K * exact_value(pts)[:, None] * DIRECTION


def g_data(pts):
    return np.exp(1j * K * pts[:, 0]) * (1.0 + pts[:, 1])


@pytest.fixture(scope="module")
def mesh():
    mesh = geometric_refine(triangulate(l_shape(), 0.5), [(0.0, 0.0)], 0.25, 2)
    space = make_space(mesh, "pw")
    rule_sizes = {len(space.edge_rule(K, h).weights) for h in mesh.edge_lengths}
    assert len(rule_sizes) >= 3
    return mesh


def make_space(mesh, basis):
    local = (spaces.PlaneWaveBasis(K, 5) if basis == "pw"
             else spaces.GhpBasis(K, 2))
    return spaces.trefftz_space(mesh, K, local)


def make_flux(space, flux):
    return assembly.uwvf_fluxes() if flux == "uwvf" else assembly.hmp_fluxes(space)


def edge_traces(space, edge, t):
    mesh = space.mesh
    a = mesh.nodes[edge.nodes[0]]
    b = mesh.nodes[edge.nodes[1]]
    pts = a + t[:, None] * (b - a)
    sides = []
    for ei in edge.elems:
        if ei < 0:
            break
        vals, grads = space.eval_basis(ei, pts)
        sides.append((space.element_dofs(ei), vals, grads @ edge.normal))
    return pts, sides


def edges_with_rules(space):
    for edge in space.mesh.interior_edges() + space.mesh.boundary_edges():
        rule = space.edge_rule(K, edge.length)
        yield edge, rule.points, edge.length * rule.weights


def least_squares_reference(space, w1=K, w2=1.0):
    n = space.ndof
    A = np.zeros((n, n), dtype=complex)
    rhs = np.zeros(n, dtype=complex)
    g_norm2 = 0.0
    for edge, t, ds in edges_with_rules(space):
        pts, sides = edge_traces(space, edge, t)
        if len(sides) == 2:
            (dp, vp, gp), (dm, vm, gm) = sides
            dofs = np.concatenate([dp, dm])
            jv = np.hstack([vp, -vm])
            jg = np.hstack([gp, -gm])
            A[np.ix_(dofs, dofs)] += w1**2 * (jv.conj().T * ds) @ jv
            A[np.ix_(dofs, dofs)] += w2**2 * (jg.conj().T * ds) @ jg
        else:
            ((dofs, vals, gn),) = sides
            imp = gn + 1j * K * vals
            A[np.ix_(dofs, dofs)] += w2**2 * (imp.conj().T * ds) @ imp
            gv = g_data(pts)
            rhs[dofs] += w2**2 * (imp.conj().T * ds) @ gv
            g_norm2 += w2**2 * float(ds @ np.abs(gv) ** 2)
    return A, rhs, g_norm2


def pwdg_reference(space, flux):
    n = space.ndof
    A = np.zeros((n, n), dtype=complex)
    rhs = np.zeros(n, dtype=complex)
    for edge, t, ds in edges_with_rules(space):
        alpha, beta, delta = flux.on_edges(edge.index)
        pts, sides = edge_traces(space, edge, t)
        if len(sides) == 2:
            for s, (d_s, v_s, g_s) in zip((1.0, -1.0), sides):
                for d, (d_t, v_t, g_t) in zip((1.0, -1.0), sides):
                    loc = 0.5 * d * (g_t.conj().T * ds) @ v_s
                    loc += (1j / K) * beta * s * d * (g_t.conj().T * ds) @ g_s
                    loc -= 0.5 * d * (v_t.conj().T * ds) @ g_s
                    loc += 1j * K * alpha * s * d * (v_t.conj().T * ds) @ v_s
                    A[np.ix_(d_t, d_s)] += loc
        else:
            ((dofs, vals, gn),) = sides
            loc = (1.0 - delta) * (gn.conj().T * ds) @ vals
            loc += (1j / K) * delta * (gn.conj().T * ds) @ gn
            loc -= delta * (vals.conj().T * ds) @ gn
            loc += 1j * K * (1.0 - delta) * (vals.conj().T * ds) @ vals
            A[np.ix_(dofs, dofs)] += loc
            gv = g_data(pts)
            rhs[dofs] += (1j / K) * delta * (gn.conj().T * ds) @ gv
            rhs[dofs] += (1.0 - delta) * (vals.conj().T * ds) @ gv
    return A, rhs


def dg_square_reference(space, coeffs, flux, plus, exact=False):
    total = 0.0
    for edge, t, ds in edges_with_rules(space):
        alpha, beta, delta = flux.on_edges(edge.index)
        pts, sides = edge_traces(space, edge, t)
        traces = [(v @ coeffs[d], g @ coeffs[d]) for d, v, g in sides]
        if exact:
            u_e = exact_value(pts)
            gn_e = exact_grad(pts) @ edge.normal
            traces = [(u_e - u, gn_e - gn) for u, gn in traces]
        if len(traces) == 2:
            (u_p, gn_p), (u_m, gn_m) = traces
            total += beta / K * ds @ np.abs(gn_p - gn_m) ** 2
            total += K * alpha * ds @ np.abs(u_p - u_m) ** 2
            if plus:
                total += ((K / beta + 1.0 / (K * alpha))
                          * ds @ np.abs(0.5 * (u_p + u_m)) ** 2)
        else:
            ((u, gn),) = traces
            total += delta / K * ds @ np.abs(gn) ** 2
            total += K * (1.0 - delta) * ds @ np.abs(u) ** 2
            if plus:
                total += K / delta * ds @ np.abs(u) ** 2
    return total


def j_reference(space, coeffs, w1=K, w2=1.0):
    total = 0.0
    for edge, t, ds in edges_with_rules(space):
        pts, sides = edge_traces(space, edge, t)
        traces = [(v @ coeffs[d], g @ coeffs[d]) for d, v, g in sides]
        if len(traces) == 2:
            (u_p, gn_p), (u_m, gn_m) = traces
            total += w1**2 * ds @ np.abs(u_p - u_m) ** 2
            total += w2**2 * ds @ np.abs(gn_p - gn_m) ** 2
        else:
            ((u, gn),) = traces
            total += w2**2 * ds @ np.abs(gn + 1j * K * u - g_data(pts)) ** 2
    return total


def coefficients(space):
    rng = np.random.default_rng(11)
    return rng.standard_normal(space.ndof) + 1j * rng.standard_normal(space.ndof)


# A batch bound that splits every rule group into several batches.
@pytest.fixture(params=[spaces._BATCH_ENTRIES, 3000], ids=["default", "tiny"])
def batch_entries(request, monkeypatch):
    monkeypatch.setattr(spaces, "_BATCH_ENTRIES", request.param)
    return request.param


def assert_matrix_close(got, want):
    np.testing.assert_allclose(got.toarray(), want, rtol=0,
                               atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("basis", ["pw", "ghp"])
def test_least_squares_matches_reference(mesh, basis, batch_entries):
    space = make_space(mesh, basis)
    system = assembly.assemble_least_squares(space, K, g_data)
    A, rhs, g_norm2 = least_squares_reference(space)
    assert_matrix_close(system.A, A)
    np.testing.assert_allclose(system.rhs, rhs, rtol=0,
                               atol=1e-13 * np.abs(rhs).max())
    assert system.meta["g_norm2"] == pytest.approx(g_norm2, rel=1e-13)


@pytest.mark.parametrize("basis", ["pw", "ghp"])
@pytest.mark.parametrize("flux", ["uwvf", "hmp"])
def test_pwdg_matches_reference(mesh, basis, flux, batch_entries):
    space = make_space(mesh, basis)
    params = make_flux(space, flux)
    system = assembly.assemble_pwdg(space, K, g_data, params)
    A, rhs = pwdg_reference(space, params)
    assert_matrix_close(system.A, A)
    np.testing.assert_allclose(system.rhs, rhs, rtol=0,
                               atol=1e-13 * np.abs(rhs).max())


@pytest.mark.parametrize("flux", ["uwvf", "hmp"])
def test_dg_norms_match_reference(mesh, flux, batch_entries):
    space = make_space(mesh, "pw")
    params = make_flux(space, flux)
    x = coefficients(space)
    for plus, norm in ((False, analysis.dg_norm), (True, analysis.dg_plus_norm)):
        want = np.sqrt(dg_square_reference(space, x, params, plus))
        assert norm(space, x, params, K) == pytest.approx(want, rel=1e-13)
        want = np.sqrt(dg_square_reference(space, x, params, plus, exact=True))
        got = analysis.dg_error_norm(
            space, x, params, K,
            lambda pts: (exact_value(pts), exact_grad(pts)), plus=plus)
        assert got == pytest.approx(want, rel=1e-13)


def test_j_functional_matches_reference(mesh, batch_entries):
    space = make_space(mesh, "pw")
    x = coefficients(space)
    got = analysis.j_functional(space, x, K, g_data)
    assert got == pytest.approx(j_reference(space, x), rel=1e-13)


def test_invalid_flux_on_one_edge_rejected(mesh):
    space = make_space(mesh, "pw")
    x = coefficients(space)
    alpha = np.full(len(mesh.edge_lengths), 0.5)
    alpha[np.flatnonzero(~mesh.boundary_mask)[-1]] = 0.0
    bad = assembly.FluxParams(alpha=alpha, beta=0.5, delta=0.5)
    with pytest.raises(ValueError, match="alpha"):
        assembly.assemble_pwdg(space, K, g_data, bad)
    with pytest.raises(ValueError, match="alpha"):
        analysis.dg_norm(space, x, bad, K)


@pytest.mark.parametrize("name, bad", [("alpha", 0.0), ("beta", -1.0),
                                       ("delta", 1.0)])
def test_flux_checked_only_where_used(mesh, name, bad):
    # alpha and beta enter on interior edges only, delta on boundary edges
    space = make_space(mesh, "pw")
    x = coefficients(space)
    used = mesh.boundary_mask if name == "delta" else ~mesh.boundary_mask
    values = {"alpha": 0.5, "beta": 0.5, "delta": 0.5}
    unused = dict(values, **{name: np.where(used, values[name], bad)})
    flux = assembly.FluxParams(**unused)
    assembly.assemble_pwdg(space, K, g_data, flux)
    analysis.dg_norm(space, x, flux, K)
    wrong = dict(values, **{name: np.where(used, bad, values[name])})
    flux = assembly.FluxParams(**wrong)
    with pytest.raises(ValueError, match=name):
        assembly.assemble_pwdg(space, K, g_data, flux)
    with pytest.raises(ValueError, match=name):
        analysis.dg_norm(space, x, flux, K)
