"""Assembly of sesquilinear forms, load vectors and the linear algebra.

Every matrix follows one convention: forms are linear in the first
(trial) argument and conjugate-linear in the second (test) argument, and
A[i, j] = form(b_j, b_i), so x^H A x is the quadratic form of x.  Every
assembled matrix is a scipy CSR matrix summed from (row, col, value)
triplets; only the dense solve strategies and the inf-sup probe make a
dense copy, and they refuse systems above _DENSE_LIMIT unknowns.

Volume integrals run one loop over element batches from
`space.element_batches`, taking local matrices from
`space.element_matrices` and basis values from `space.eval_basis`;
boundary integrals batch the boundary edges that share an edge rule.
The skeleton forms of the Trefftz methods loop over edges.

The Galerkin matrix, the L2 mass matrix and the (1,k) Gram matrix are all
built from one set of shared parts (stiffness, mass, boundary mass), so
matrix-level identities between them hold to roundoff rather than to
quadrature accuracy.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .numerics import gauss_interval, oscillatory_degree, quad_triangle

# Largest system the dense strategies and the inf-sup probe accept (a
# 4608 x 4608 complex matrix takes 340 MB); covers the plane-wave least
# squares run at h = 1/16, p = 9.
_DENSE_LIMIT = 4608


@dataclass(frozen=True)
class QuadPolicy:
    """Quadrature enrichment for oscillatory integrands.

    Degrees grow linearly in k*h so that products of plane waves are
    integrated to near machine precision even on coarse meshes (kh ~ 4).
    Polynomial integrands (plain H1 assembly) ignore the enrichment.
    """

    volume_factor: float = 3.0
    volume_offset: int = 12
    edge_factor: float = 3.0
    edge_offset: int = 8


_DEFAULT_POLICY = QuadPolicy()


@dataclass
class ComplexSystem:
    """An assembled complex linear system plus companion matrices.

    `free` lists the unconstrained DOF indices when Dirichlet elimination
    applies (None means all DOFs are free); `mass` is the plain L2 mass
    matrix on the same DOF set, kept for the Garding-identity checks.
    """

    A: object
    rhs: np.ndarray
    gram: object = None
    mass: object = None
    free: object = None
    meta: dict = field(default_factory=dict)

    @property
    def ndof(self):
        return self.rhs.shape[0]


@dataclass
class SolveResult:
    x: np.ndarray
    residual: float
    strategy: str
    svd_dropped: int = 0


@dataclass(frozen=True)
class FluxParams:
    """DG flux parameters; each entry is a scalar or per-edge array."""

    alpha: object
    beta: object
    delta: object

    def on_edge(self, idx):
        return (
            _flux_value(self.alpha, idx),
            _flux_value(self.beta, idx),
            _flux_value(self.delta, idx),
        )


def _flux_value(v, idx):
    if np.isscalar(v):
        return float(v)
    return float(np.asarray(v)[idx])


def uwvf_fluxes():
    """The ultra weak variational formulation: alpha = beta = delta = 1/2."""
    return FluxParams(alpha=0.5, beta=0.5, delta=0.5)


def hmp_fluxes(space, a=1.0, eps=0.01):
    """p-version fluxes alpha ~ p/(kh log p) with declared default constants."""
    k = space.k
    p_eff = space.nloc
    h_e = np.asarray(space.mesh.edge_lengths, dtype=float)
    lg = math.log(p_eff + 1.0)
    alpha = a * p_eff / (k * h_e * lg)
    beta = k * h_e * lg / p_eff
    delta = np.minimum(0.5 - eps, k * h_e * lg / p_eff)
    return FluxParams(alpha=alpha, beta=beta, delta=delta)


def h_version_fluxes(space, a=1.0, beta=0.5, delta=0.25):
    """h-version fluxes with alpha = a/(kh) on every edge."""
    h_e = np.asarray(space.mesh.edge_lengths, dtype=float)
    return FluxParams(alpha=a / (space.k * h_e), beta=beta, delta=delta)


# -- quadrature helpers ----------------------------------------------------


def _reference_rule(dim, degree):
    """Rule exact to `degree` on the reference element: Gauss-Legendre on
    [0, 1] in 1D, the collapsed rule on the reference triangle in 2D."""
    if dim == 1:
        return gauss_interval(min(64, max(2, (degree + 1) // 2 + 1)))
    return quad_triangle(degree)


def _volume_degree(space, k, policy):
    base = 2 * getattr(space, "p", 1) + 2
    if space.kind == "h1_polynomial":
        return min(base, 40)
    if space.kind == "nodally_exact_1d":
        return min(oscillatory_degree(base, k, space.mesh.h,
                                      policy.volume_factor, policy.volume_offset), 40)
    # wave-enriched 2D spaces: phases up to ~2k * diameter per element
    base = 6
    return min(oscillatory_degree(base, k, space.mesh.h,
                                  policy.volume_factor, policy.volume_offset), 40)


def edge_rule(k, length, base=4, policy=None):
    """Points and weights on [0,1] resolving wave products on one edge."""
    policy = policy or _DEFAULT_POLICY
    deg = oscillatory_degree(base, k, length, policy.edge_factor, policy.edge_offset)
    rule = _reference_rule(1, deg)
    return rule.points, rule.weights


# -- sparse triplets ---------------------------------------------------------


def _accumulate(triplets, rows, cols, local):
    """Append local[..., i, j] at (rows[..., i], cols[..., j]).

    Leading axes of `local` batch blocks, and `rows`/`cols` carry the
    same leading axes; entries are appended in row-major block order.
    """
    r, c, v = triplets
    r.append(np.broadcast_to(rows[..., :, None], local.shape).ravel())
    c.append(np.broadcast_to(cols[..., None, :], local.shape).ravel())
    v.append(local.ravel())


def _to_csr(triplets, n):
    """CSR matrix summing the triplets; empty triplets give a complex zero."""
    rows, cols, vals = triplets
    if not rows:
        return scipy.sparse.csr_matrix((n, n), dtype=complex)
    return scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()


def _flat(pts):
    """Batched points (nb, nq[, 2]) as the (n,) or (n, 2) array that
    data callbacks take."""
    return pts.reshape((-1,) + pts.shape[2:])


# -- conforming volume/boundary parts ---------------------------------------


def _volume_parts(space, k, policy):
    """Stiffness and mass matrices over all elements, as CSR."""
    rule = _reference_rule(space.mesh.dim, _volume_degree(space, k, policy))
    dofs = space.dof_matrix()
    st = ([], [], [])
    ms = ([], [], [])
    for elems in space.element_batches(len(rule.weights)):
        s_loc, m_loc = space.element_matrices(elems, rule)
        d = dofs[elems]
        _accumulate(st, d, d, s_loc)
        _accumulate(ms, d, d, m_loc)
    return _to_csr(st, space.ndof), _to_csr(ms, space.ndof)


def _edge_points(mesh, edge, t):
    a = mesh.nodes[edge.nodes[0]]
    b = mesh.nodes[edge.nodes[1]]
    return a[None, :] + t[:, None] * (b - a)[None, :]


def _edge_base(space):
    return 2 * getattr(space, "p", 1) + 2 if space.kind == "h1_polynomial" else 4


def _boundary_batches(space, k, tags, policy):
    """Boundary edges whose tag lies in `tags`, grouped by edge rule.

    Yields (elements, points, weights) per group, points shaped like
    batched element points.  In 1D a boundary "edge" is an end node with
    unit point measure.
    """
    mesh = space.mesh
    idx = np.array([i for i in np.flatnonzero(mesh.boundary_mask)
                    if mesh.edge_tags[i] in tags], dtype=np.int64)
    if len(idx) == 0:
        return
    if mesh.dim == 1:
        x = mesh.nodes[mesh.edge_nodes[idx, 0]]
        yield mesh.edge_elems[idx, 0], x[:, None], np.ones((len(idx), 1))
        return
    groups = {}
    for i in idx:
        t, w = edge_rule(k, mesh.edge_lengths[i], base=_edge_base(space),
                         policy=policy)
        groups.setdefault(len(t), (t, w, []))[2].append(i)
    for t, w, members in groups.values():
        members = np.array(members, dtype=np.int64)
        a = mesh.nodes[mesh.edge_nodes[members, 0]]
        b = mesh.nodes[mesh.edge_nodes[members, 1]]
        pts = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
        yield (mesh.edge_elems[members, 0], pts,
               mesh.edge_lengths[members][:, None] * w[None, :])


def _boundary_mass(space, k, tags, policy):
    """Boundary mass matrix over edges whose tag lies in `tags`."""
    dofs = space.dof_matrix()
    tri = ([], [], [])
    for elems, pts, w in _boundary_batches(space, k, tags, policy):
        vals, _ = space.eval_basis(elems, pts)
        loc = np.einsum("eq,eql,eqm->elm", w, np.conj(vals), vals)
        d = dofs[elems]
        _accumulate(tri, d, d, loc)
    return _to_csr(tri, space.ndof)


def _volume_batches(space, k, policy):
    """Element batches with their physical quadrature points and weights."""
    rule = _reference_rule(space.mesh.dim, _volume_degree(space, k, policy))
    for elems in space.element_batches(len(rule.weights)):
        yield (elems,) + space.mesh.map_rule(elems, rule)


def _load(space, batches, value_fn, grad_fn=None, scale=1.0):
    """Load vector scale * (u, b_i) [+ (grad u, grad b_i)] summed over
    (elements, points, weights) batches."""
    rhs = np.zeros(space.ndof, dtype=complex)
    dofs = space.dof_matrix()
    for elems, pts, w in batches:
        vals, grads = space.eval_basis(elems, pts)
        uq = np.asarray(value_fn(_flat(pts)), dtype=complex).reshape(w.shape)
        loc = scale * np.einsum("eq,eql->el", w * uq, np.conj(vals))
        if grad_fn is not None:
            gq = np.asarray(grad_fn(_flat(pts)), dtype=complex).reshape(
                grads.shape[:2] + grads.shape[3:])
            loc = loc + np.einsum("eq,eqd,eqld->el", w, gq, np.conj(grads))
        np.add.at(rhs, dofs[elems], loc)
    return rhs


def _dirichlet_dofs(space, tags):
    """Global DOFs supported on boundary edges with the given tags."""
    mesh = space.mesh
    fixed = set()
    for edge in mesh.boundary_edges():
        if edge.tag not in tags:
            continue
        if mesh.dim == 1:
            node = int(edge.nodes[0])
            if space.kind == "pum":
                m = space.enrichment.dim
                fixed.update(range(node * m, (node + 1) * m))
            else:
                fixed.add(node)
        else:
            a, b = int(edge.nodes[0]), int(edge.nodes[1])
            if space.kind == "pum":
                m = space.enrichment.dim
                for v in (a, b):
                    fixed.update(range(v * m, (v + 1) * m))
            else:
                fixed.update((a, b))
                p = getattr(space, "p", 1)
                if p >= 2:
                    base = mesh.n_nodes + edge.index * (p - 1)
                    fixed.update(range(base, base + p - 1))
    return np.array(sorted(fixed), dtype=np.int64)


def assemble_galerkin(space, k, f=None, g=None, bc=None, robin_sign=1.0,
                      policy=None):
    """Galerkin matrix and load of the Robin/mixed Helmholtz problem.

    A = stiffness - k^2 mass + robin_sign * ik * (boundary mass on Robin
    edges); rhs_i = (f, b_i) + (g, b_i) over Robin edges.  `bc` maps edge
    tags to 'robin', 'neumann' or 'dirichlet'; tags absent from the map
    default to 'robin'.  Dirichlet parts (homogeneous) are recorded as
    eliminated DOFs in `free` and resolved at solve time.
    """
    if not space.conforming:
        raise ValueError("assemble_galerkin needs a conforming space")
    policy = policy or _DEFAULT_POLICY
    k = float(k)
    bc = bc or {}
    mesh = space.mesh
    present = {e.tag for e in mesh.boundary_edges()}
    robin_tags = {t for t in present if bc.get(t, "robin") == "robin"}
    dirichlet_tags = {t for t in present if bc.get(t) == "dirichlet"}
    stiff, mass = _volume_parts(space, k, policy)
    bd = _boundary_mass(space, k, robin_tags, policy)
    A = stiff - k**2 * mass + robin_sign * 1j * k * bd
    rhs = np.zeros(space.ndof, dtype=complex)
    if f is not None:
        fv = f if callable(f) else (lambda pts, c=complex(f): np.full(pts.shape[0], c))
        rhs += _load(space, _volume_batches(space, k, policy), fv)
    if g is not None:
        rhs += _load(space, _boundary_batches(space, k, robin_tags, policy), g)
    free = None
    if dirichlet_tags:
        fixed = _dirichlet_dofs(space, dirichlet_tags)
        keep = np.ones(space.ndof, dtype=bool)
        keep[fixed] = False
        free = np.flatnonzero(keep)
    meta = {
        "method": "galerkin",
        "k": k,
        "h": mesh.h,
        "p": getattr(space, "p", 1),
        "robin_sign": float(robin_sign),
        "boundary_mass": bd,
    }
    return ComplexSystem(A=A, rhs=rhs, mass=mass, free=free, meta=meta)


def assemble_gram_1k(space, k, policy=None):
    """Gram matrix of the weighted norm k^2 ||u||^2 + ||grad u||^2."""
    policy = policy or _DEFAULT_POLICY
    k = float(k)
    stiff, mass = _volume_parts(space, k, policy)
    return stiff + k**2 * mass


def project_rhs_1k(space, k, value_fn, grad_fn, policy=None):
    """Load vector of the (1,k) inner product against a target function.

    rhs_i = k^2 (u, b_i) + (grad u, grad b_i); used for best-approximation
    studies via the normal equations with the (1,k) Gram matrix.
    """
    policy = policy or _DEFAULT_POLICY
    k = float(k)
    return _load(space, _volume_batches(space, k, policy), value_fn, grad_fn,
                 scale=k**2)


# -- skeleton assembly for Trefftz methods -----------------------------------


def _require_trefftz(space):
    if space.kind not in ("trefftz_pw", "trefftz_ghp"):
        raise ValueError("this assembly path needs a Trefftz space")


def _edge_traces(space, edge, t):
    """Both-side values and plus-normal derivatives at edge points."""
    mesh = space.mesh
    pts = _edge_points(mesh, edge, t)
    out = []
    for ei in edge.elems:
        if ei < 0:
            break
        vals, grads = space.eval_basis(ei, pts)
        out.append((space.element_dofs(ei), vals, grads @ edge.normal))
    return out


def assemble_least_squares(space, k, g, w1=None, w2=None, policy=None):
    """Normal equations of the least squares functional on a Trefftz space.

    J(v) sums w1^2 ||[v]||^2 + w2^2 ||[dv/dn]||^2 over interior edges and
    w2^2 ||g - (dv/dn + ikv)||^2 over boundary edges.  Defaults w1 = k,
    w2 = 1.  meta['g_norm2'] carries the weighted ||g||^2 so the
    functional can be reconstructed from the algebra.
    """
    _require_trefftz(space)
    policy = policy or _DEFAULT_POLICY
    k = float(k)
    w1 = k if w1 is None else float(w1)
    w2 = 1.0 if w2 is None else float(w2)
    mesh = space.mesh
    n = space.ndof
    tri = ([], [], [])
    rhs = np.zeros(n, dtype=complex)
    g_norm2 = 0.0
    for edge in mesh.interior_edges():
        t, w = edge_rule(k, edge.length, policy=policy)
        ds = edge.length * w
        (dp, vp, gp), (dm, vm, gm) = _edge_traces(space, edge, t)
        dofs = np.concatenate([dp, dm])
        jump_v = np.hstack([vp, -vm])
        jump_g = np.hstack([gp, -gm])
        loc = w1**2 * np.einsum("q,ql,qm->lm", ds, np.conj(jump_v), jump_v)
        loc += w2**2 * np.einsum("q,ql,qm->lm", ds, np.conj(jump_g), jump_g)
        _accumulate(tri, dofs, dofs, loc)
    for edge in mesh.boundary_edges():
        t, w = edge_rule(k, edge.length, policy=policy)
        ds = edge.length * w
        ((dofs, vals, gn),) = _edge_traces(space, edge, t)
        imp = gn + 1j * k * vals
        _accumulate(tri, dofs, dofs, w2**2 * np.einsum(
            "q,ql,qm->lm", ds, np.conj(imp), imp
        ))
        pts = _edge_points(mesh, edge, t)
        gv = np.asarray(g(pts), dtype=complex)
        rhs[dofs] += w2**2 * np.einsum("q,ql->l", ds * gv, np.conj(imp))
        g_norm2 += w2**2 * float(np.sum(ds * np.abs(gv) ** 2))
    meta = {
        "method": "least_squares",
        "k": k,
        "h": mesh.h,
        "p": space.nloc,
        "w1": w1,
        "w2": w2,
        "g_norm2": g_norm2,
    }
    return ComplexSystem(A=_to_csr(tri, n), rhs=rhs, meta=meta)


def assemble_pwdg(space, k, g, flux, policy=None):
    """Skeleton form of the plane-wave DG method on a Trefftz space.

    Interior edges carry the average/jump consistency terms plus the
    (i/k) beta gradient-jump and ik alpha trace-jump penalties; boundary
    edges carry the impedance terms weighted by delta.  The right-hand
    side is (i/k) delta (g, dv/dn) + (1-delta)(g, v) over boundary edges.
    """
    _require_trefftz(space)
    policy = policy or _DEFAULT_POLICY
    k = float(k)
    mesh = space.mesh
    n = space.ndof
    tri = ([], [], [])
    rhs = np.zeros(n, dtype=complex)
    for edge in mesh.interior_edges():
        alpha, beta, _ = flux.on_edge(edge.index)
        if alpha <= 0 or beta <= 0:
            raise ValueError("flux parameters alpha, beta must be positive")
        t, w = edge_rule(k, edge.length, policy=policy)
        ds = edge.length * w
        traces = _edge_traces(space, edge, t)
        for s, (dofs_s, v_s, gn_s) in zip((1.0, -1.0), traces):
            for d_t, (dofs_t, v_t, gn_t) in zip((1.0, -1.0), traces):
                loc = 0.5 * d_t * np.einsum("q,qm,ql->lm", ds, v_s, np.conj(gn_t))
                loc += (1j / k) * beta * s * d_t * np.einsum(
                    "q,qm,ql->lm", ds, gn_s, np.conj(gn_t)
                )
                loc -= 0.5 * d_t * np.einsum("q,qm,ql->lm", ds, gn_s, np.conj(v_t))
                loc += 1j * k * alpha * s * d_t * np.einsum(
                    "q,qm,ql->lm", ds, v_s, np.conj(v_t)
                )
                _accumulate(tri, dofs_t, dofs_s, loc)
    for edge in mesh.boundary_edges():
        _, _, delta = flux.on_edge(edge.index)
        if not 0.0 < delta < 1.0:
            raise ValueError("flux parameter delta must lie in (0,1)")
        t, w = edge_rule(k, edge.length, policy=policy)
        ds = edge.length * w
        ((dofs, vals, gn),) = _edge_traces(space, edge, t)
        loc = (1.0 - delta) * np.einsum("q,qm,ql->lm", ds, vals, np.conj(gn))
        loc += (1j / k) * delta * np.einsum("q,qm,ql->lm", ds, gn, np.conj(gn))
        loc -= delta * np.einsum("q,qm,ql->lm", ds, gn, np.conj(vals))
        loc += 1j * k * (1.0 - delta) * np.einsum(
            "q,qm,ql->lm", ds, vals, np.conj(vals)
        )
        _accumulate(tri, dofs, dofs, loc)
        pts = _edge_points(mesh, edge, t)
        gv = np.asarray(g(pts), dtype=complex)
        rhs[dofs] += (1j / k) * delta * np.einsum("q,ql->l", ds * gv, np.conj(gn))
        rhs[dofs] += (1.0 - delta) * np.einsum("q,ql->l", ds * gv, np.conj(vals))
    meta = {"method": "pwdg", "k": k, "h": mesh.h, "p": space.nloc, "flux": flux}
    return ComplexSystem(A=_to_csr(tri, n), rhs=rhs, meta=meta)


# -- linear algebra ----------------------------------------------------------


def _dense(a):
    """Dense copy of a CSR matrix; refuses more than _DENSE_LIMIT rows
    before allocating anything."""
    n = a.shape[0]
    if n > _DENSE_LIMIT:
        raise ValueError(f"dense linear algebra on n={n} unknowns exceeds "
                         f"the limit of {_DENSE_LIMIT}")
    return a.toarray()


def _reduce(system):
    A = scipy.sparse.csr_matrix(system.A, dtype=complex)
    if system.free is None:
        return A, system.rhs
    free = system.free
    return A[free][:, free], system.rhs[free]


def solve(system, strategy="sparse_lu", svd_cutoff=1e-12):
    """Solve the assembled system; returns the solution and its residual.

    Strategies: 'sparse_lu' (default), 'dense_lu', and 'truncated_svd'
    which zeroes singular values below svd_cutoff * sigma_max and returns
    the minimum-norm least-squares solution (the rescue path for badly
    conditioned Trefftz bases); `svd_dropped` counts the zeroed values.
    The matrix may be given in any form scipy.sparse accepts; the two
    dense strategies refuse systems above _DENSE_LIMIT unknowns.
    """
    A, rhs = _reduce(system)
    nred = rhs.shape[0]
    if A.shape != (nred, nred):
        raise ValueError("system matrix and right-hand side sizes disagree")
    dropped = 0
    if strategy == "sparse_lu":
        # COLAMD keeps the fill-in of the hierarchic high-order patterns
        # moderate; minimum-degree orderings blow up on them.
        lu = scipy.sparse.linalg.splu(A.tocsc(), permc_spec="COLAMD")
        x = lu.solve(rhs)
    elif strategy == "dense_lu":
        x = scipy.linalg.solve(_dense(A), rhs)
    elif strategy == "truncated_svd":
        u, s, vh = np.linalg.svd(_dense(A))
        keep = s > svd_cutoff * s[0]
        inv = np.zeros_like(s)
        inv[keep] = 1.0 / s[keep]
        x = vh.conj().T @ (inv * (u.conj().T @ rhs))
        dropped = int(np.count_nonzero(~keep))
    else:
        raise ValueError(f"unknown solve strategy '{strategy}'")
    if not np.all(np.isfinite(x)):
        raise np.linalg.LinAlgError("solver produced non-finite values")
    denom = np.linalg.norm(rhs)
    residual = float(np.linalg.norm(A @ x - rhs) / (denom if denom > 0 else 1.0))
    if system.free is not None:
        full = np.zeros(system.ndof, dtype=complex)
        full[system.free] = x
        x = full
    return SolveResult(x=x, residual=residual, strategy=strategy,
                       svd_dropped=dropped)


def infsup_probe(b_matrix, gram):
    """Discrete inf-sup constant sigma_min(L^-1 B L^-H) with gram = L L^H.

    This is the modulus-based constant; the Cholesky factorization fails
    loudly when the Gram matrix is not positive definite.  Both matrices
    may be given in any form scipy.sparse accepts.
    """
    B = _dense(scipy.sparse.csr_matrix(b_matrix))
    M = _dense(scipy.sparse.csr_matrix(gram))
    M = 0.5 * (M + M.conj().T)
    L = np.linalg.cholesky(M)
    tmp = scipy.linalg.solve_triangular(L, B, lower=True)
    white = scipy.linalg.solve_triangular(L, tmp.conj().T, lower=True).conj().T
    return float(np.linalg.svd(white, compute_uv=False)[-1])
