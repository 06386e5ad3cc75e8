"""Assembly of sesquilinear forms, load vectors and the linear algebra.

Every matrix follows one convention: forms are linear in the first
(trial) argument and conjugate-linear in the second (test) argument, and
A[i, j] = form(b_j, b_i), so x^H A x is the quadratic form of x.  Every
assembled matrix is a scipy CSR matrix summed from (row, col, value)
triplets; only the dense solve strategies and the inf-sup probe make a
dense copy, and they refuse systems above _DENSE_LIMIT unknowns.

Volume integrals run one loop over element batches from
`space.element_batches`, taking local matrices from
`space.element_matrices` and basis values from `space.eval_basis`.
Boundary integrals and the skeleton forms of the Trefftz methods loop
over batches of edges that share an edge rule (`_edge_groups`; a
structured mesh has three edge lengths), with both sides' traces from
one batched `_edge_traces`.

`solve` with 'sparse_lu' first factorizes in SuperLU's symmetric mode
(a minimum-degree ordering of A + A^T, diagonal pivots), made for the
complex symmetric Galerkin matrices, and keeps that solution only when
it is finite with a relative residual of at most _LU_RESIDUAL_LIMIT;
otherwise, and for every system assembled on a 1D mesh, it factorizes
with COLAMD and partial pivoting.  'truncated_svd' runs the dense SVD
only when a COLAMD LU cannot certify, through its residual and a 1-norm
condition estimate, that truncation would drop nothing.  `SolveResult`
records the path that ran, the LU ordering and fill, the estimate and
the dropped singular values.

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

from . import spaces
from .numerics import gauss_interval, oscillatory_degree, quad_triangle

# Largest system the dense strategies and the inf-sup probe accept (a
# 4608 x 4608 complex matrix takes 340 MB); covers the plane-wave least
# squares run at h = 1/16, p = 9.
_DENSE_LIMIT = 4608

# Largest relative residual of a sparse LU solution that `solve` keeps:
# a symmetric-mode solution above it is recomputed with COLAMD, and a
# truncated-SVD certificate above it fails.
_LU_RESIDUAL_LIMIT = 1e-10


@dataclass
class ComplexSystem:
    """An assembled complex linear system plus companion matrices.

    `free` lists the unconstrained DOF indices when Dirichlet elimination
    applies (None means all DOFs are free); `mass` is the plain L2 mass
    matrix on the same DOF set, kept for the Garding-identity checks.
    """

    A: object
    rhs: np.ndarray
    mass: object = None
    free: object = None
    meta: dict = field(default_factory=dict)

    @property
    def ndof(self):
        return self.rhs.shape[0]


@dataclass
class SolveResult:
    """A solution, its relative residual and how it was computed.

    `strategy` names the path that ran, `svd_dropped` counts singular
    values zeroed by truncation, and `cond_est` is the 1-norm condition
    estimate of the truncated-SVD certificate (None when none was made).
    `ordering` is the column ordering of the sparse LU that produced x
    ('MMD_AT_PLUS_A' in symmetric mode, 'COLAMD' otherwise; None on the
    dense paths) and `lu_nnz` the entries SuperLU stores for its L and U
    factors.
    """

    x: np.ndarray
    residual: float
    strategy: str
    svd_dropped: int = 0
    cond_est: float = None
    ordering: str = None
    lu_nnz: int = None


@dataclass(frozen=True)
class FluxParams:
    """DG flux parameters; each entry is a scalar or per-edge array."""

    alpha: object
    beta: object
    delta: object

    def on_edges(self, idx):
        """(alpha, beta, delta) on the edges `idx`, as float arrays shaped
        like idx."""
        return tuple(np.broadcast_to(v, np.shape(idx)).astype(float)
                     if np.isscalar(v) else np.asarray(v, dtype=float)[idx]
                     for v in (self.alpha, self.beta, self.delta))

    def on_edge(self, idx):
        return tuple(float(v) for v in self.on_edges(idx))


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


def _volume_degree(space, k):
    """Volume rule degree: exact for polynomial integrands; wave spaces
    grow it linearly in k*h so that products of waves are integrated to
    near machine precision even on coarse meshes (kh ~ 4)."""
    if space.kind == "h1_polynomial":
        return min(2 * space.p + 2, 40)
    # the 1D wave space is of order 1; wave-enriched 2D spaces have phases
    # up to ~2k * diameter per element
    base = 4 if space.kind == "nodally_exact_1d" else 6
    return min(oscillatory_degree(base, k, space.mesh.h, 3.0, 12), 40)


def edge_rule(k, length, base=4):
    """Points and weights on [0,1] resolving wave products on one edge."""
    rule = _reference_rule(1, oscillatory_degree(base, k, length, 3.0, 8))
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


def _volume_parts(space, k):
    """Stiffness and mass matrices over all elements, as CSR."""
    rule = _reference_rule(space.mesh.dim, _volume_degree(space, k))
    dofs = space.dof_matrix()
    st = ([], [], [])
    ms = ([], [], [])
    for elems in space.element_batches(len(rule.weights)):
        s_loc, m_loc = space.element_matrices(elems, rule)
        d = dofs[elems]
        _accumulate(st, d, d, s_loc)
        _accumulate(ms, d, d, m_loc)
    return _to_csr(st, space.ndof), _to_csr(ms, space.ndof)


def _edge_points(mesh, edges, t):
    """Points (E, Q, 2) at parameters t along each edge of `edges`."""
    a = mesh.nodes[mesh.edge_nodes[edges, 0]]
    b = mesh.nodes[mesh.edge_nodes[edges, 1]]
    return a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]


def _edge_base(space):
    return 2 * getattr(space, "p", 1) + 2 if space.kind == "h1_polynomial" else 4


def _edge_groups(space, k, edges, base=4):
    """The 2D mesh edges `edges` grouped by edge rule, in batches.

    Yields (batch, t, ds): an index array of edges sharing one rule,
    that rule's points t on [0, 1] and the physical weights ds (E, Q).
    Batches are sized so that both sides' basis gradients or a local
    matrix of the two sides hold at most spaces._BATCH_ENTRIES numbers.
    """
    mesh = space.mesh
    edges = np.asarray(edges, dtype=np.int64)
    lengths = mesh.edge_lengths[edges]
    unique, inverse = np.unique(lengths, return_inverse=True)
    rules = [edge_rule(k, h, base=base) for h in unique]
    npts = np.array([len(t) for t, _ in rules], dtype=np.int64)[inverse]
    for nq in np.unique(npts):
        t, w = rules[inverse[np.argmax(npts == nq)]]
        members = edges[npts == nq]
        per_edge = 2 * space.nloc * max(2 * space.nloc, nq * mesh.dim)
        step = max(1, spaces._BATCH_ENTRIES // per_edge)
        for lo in range(0, len(members), step):
            batch = members[lo:lo + step]
            yield batch, t, mesh.edge_lengths[batch][:, None] * w


def _boundary_batches(space, k, tags):
    """Boundary edges whose tag lies in `tags`, grouped by edge rule.

    Yields (elements, points, weights) per group, points shaped like
    batched element points.  In 1D a boundary "edge" is an end node with
    unit point measure.
    """
    mesh = space.mesh
    idx = np.flatnonzero(mesh.boundary_mask)
    idx = idx[[mesh.edge_tags[i] in tags for i in idx]]
    if len(idx) == 0:
        return
    if mesh.dim == 1:
        x = mesh.nodes[mesh.edge_nodes[idx, 0]]
        yield mesh.edge_elems[idx, 0], x[:, None], np.ones((len(idx), 1))
        return
    for batch, t, ds in _edge_groups(space, k, idx, base=_edge_base(space)):
        yield mesh.edge_elems[batch, 0], _edge_points(mesh, batch, t), ds


def _boundary_mass(space, k, tags):
    """Boundary mass matrix over edges whose tag lies in `tags`."""
    dofs = space.dof_matrix()
    tri = ([], [], [])
    for elems, pts, w in _boundary_batches(space, k, tags):
        vals, _ = space.eval_basis(elems, pts)
        loc = np.einsum("eq,eql,eqm->elm", w, np.conj(vals), vals)
        d = dofs[elems]
        _accumulate(tri, d, d, loc)
    return _to_csr(tri, space.ndof)


def _volume_batches(space, k):
    """Element batches with their physical quadrature points and weights."""
    rule = _reference_rule(space.mesh.dim, _volume_degree(space, k))
    for elems in space.element_batches(len(rule.weights)):
        yield (elems,) + space.mesh.map_rule(elems, rule)


def _load(space, batches, fn, scale=1.0, gradient=False):
    """Load vector scale * (u, b_i) [+ (grad u, grad b_i)] summed over
    (elements, points, weights) batches.  fn maps points to the values
    of u, or to (values, gradients) in one call when `gradient` is set."""
    rhs = np.zeros(space.ndof, dtype=complex)
    dofs = space.dof_matrix()
    for elems, pts, w in batches:
        vals, grads = space.eval_basis(elems, pts)
        if gradient:
            u, g = fn(_flat(pts))
        else:
            u = fn(_flat(pts))
        uq = np.asarray(u, dtype=complex).reshape(w.shape)
        loc = scale * np.einsum("eq,eql->el", w * uq, np.conj(vals))
        if gradient:
            gq = np.asarray(g, dtype=complex).reshape(
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
            fixed.add(int(edge.nodes[0]))
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


def assemble_galerkin(space, k, f=None, g=None, bc=None, robin_sign=1.0):
    """Galerkin matrix and load of the Robin/mixed Helmholtz problem.

    A = stiffness - k^2 mass + robin_sign * ik * (boundary mass on Robin
    edges); rhs_i = (f, b_i) + (g, b_i) over Robin edges.  `bc` maps edge
    tags to 'robin', 'neumann' or 'dirichlet'; tags absent from the map
    default to 'robin'.  Dirichlet parts (homogeneous) are recorded as
    eliminated DOFs in `free` and resolved at solve time.
    """
    if not space.conforming:
        raise ValueError("assemble_galerkin needs a conforming space")
    k = float(k)
    bc = bc or {}
    mesh = space.mesh
    present = {e.tag for e in mesh.boundary_edges()}
    robin_tags = {t for t in present if bc.get(t, "robin") == "robin"}
    dirichlet_tags = {t for t in present if bc.get(t) == "dirichlet"}
    stiff, mass = _volume_parts(space, k)
    bd = _boundary_mass(space, k, robin_tags)
    A = stiff - k**2 * mass + robin_sign * 1j * k * bd
    rhs = np.zeros(space.ndof, dtype=complex)
    if f is not None:
        fv = f if callable(f) else (lambda pts, c=complex(f): np.full(pts.shape[0], c))
        rhs += _load(space, _volume_batches(space, k), fv)
    if g is not None:
        rhs += _load(space, _boundary_batches(space, k, robin_tags), g)
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
        "dim": mesh.dim,
        "robin_sign": float(robin_sign),
        "boundary_mass": bd,
    }
    return ComplexSystem(A=A, rhs=rhs, mass=mass, free=free, meta=meta)


def assemble_gram_1k(space, k):
    """Gram matrix of the weighted norm k^2 ||u||^2 + ||grad u||^2."""
    k = float(k)
    stiff, mass = _volume_parts(space, k)
    return stiff + k**2 * mass


def project_rhs_1k(space, k, target):
    """Load vector of the (1,k) inner product against a target function.

    rhs_i = k^2 (u, b_i) + (grad u, grad b_i), with target mapping points
    to (values of u, gradients of u), such as `ExactSolution.eval`; used
    for best-approximation studies via the normal equations with the
    (1,k) Gram matrix.
    """
    k = float(k)
    return _load(space, _volume_batches(space, k), target, scale=k**2,
                 gradient=True)


# -- skeleton assembly for Trefftz methods -----------------------------------


def _require_trefftz(space):
    if space.kind not in ("trefftz_pw", "trefftz_ghp"):
        raise ValueError("this assembly path needs a Trefftz space")


def _edge_traces(space, edges, t):
    """Basis traces on both sides of a batch of edges.

    Returns the edge points (E, Q, 2) and, for the plus side and, on
    interior edges, the minus side, a tuple of the side's DOFs (E, L),
    basis values (E, Q, L) and derivatives along the plus normal
    (E, Q, L).
    """
    mesh = space.mesh
    pts = _edge_points(mesh, edges, t)
    normals = mesh.edge_normals[edges][:, None, :, None]
    sides = []
    for elems in mesh.edge_elems[edges].T:
        if elems[0] < 0:
            break
        vals, grads = space.eval_basis(elems, pts)
        sides.append((space.dof_matrix()[elems], vals,
                      (grads @ normals)[..., 0]))
    return pts, sides


def _skeleton_edges(mesh):
    return np.flatnonzero(~mesh.boundary_mask), np.flatnonzero(mesh.boundary_mask)


def _check_flux(flux, mesh):
    """Refuse flux parameters out of range on the edges that use them:
    alpha, beta > 0 on interior edges and 0 < delta < 1 on boundary edges."""
    interior, boundary = _skeleton_edges(mesh)
    alpha, beta, _ = flux.on_edges(interior)
    for name, value in (("alpha", alpha), ("beta", beta)):
        if not np.all(value > 0.0):
            raise ValueError(f"flux parameter {name} must be positive")
    delta = flux.on_edges(boundary)[2]
    if not np.all((delta > 0.0) & (delta < 1.0)):
        raise ValueError("flux parameter delta must lie in (0, 1)")


def _gram(ds, x):
    """Edge integrals (E, L, L) of conj(x[.., l]) * x[.., m] with the
    weights ds (E, Q), for traces x of shape (E, Q, L)."""
    return np.matmul(np.conj(x).transpose(0, 2, 1), ds[:, :, None] * x)


def _products(ds, vals, dn):
    """Edge integrals of the pairwise trace products, each (E, L, L).

    Returns (VV, VG, GV, GG) with, e.g., VG[e, l, m] the integral of
    conj(vals[.., l]) * dn[.., m] over edge e with weights ds.
    """
    m = _gram(ds, np.concatenate([vals, dn], axis=2))
    n = vals.shape[2]
    return m[:, :n, :n], m[:, :n, n:], m[:, n:, :n], m[:, n:, n:]


def _two_sided(sides):
    """Both sides' DOFs, values and normal derivatives side by side, and
    the sign (+1 plus, -1 minus) of each local column."""
    (dp, vp, gp), (dm, vm, gm) = sides
    sign = np.repeat([1.0, -1.0], dp.shape[1])
    return (np.concatenate([dp, dm], axis=1), np.concatenate([vp, vm], axis=2),
            np.concatenate([gp, gm], axis=2), sign)


def _edge_values(fn, pts):
    """Complex values (E, Q) of a point callback at edge points (E, Q, 2)."""
    return np.asarray(fn(_flat(pts)), dtype=complex).reshape(pts.shape[:2])


def assemble_least_squares(space, k, g, w1=None, w2=None):
    """Normal equations of the least squares functional on a Trefftz space.

    J(v) sums w1^2 ||[v]||^2 + w2^2 ||[dv/dn]||^2 over interior edges and
    w2^2 ||g - (dv/dn + ikv)||^2 over boundary edges.  Defaults w1 = k,
    w2 = 1.  meta['g_norm2'] carries the weighted ||g||^2 so the
    functional can be reconstructed from the algebra.
    """
    _require_trefftz(space)
    k = float(k)
    w1 = k if w1 is None else float(w1)
    w2 = 1.0 if w2 is None else float(w2)
    mesh = space.mesh
    n = space.ndof
    tri = ([], [], [])
    rhs = np.zeros(n, dtype=complex)
    g_norm2 = 0.0
    interior, boundary = _skeleton_edges(mesh)
    for edges, t, ds in _edge_groups(space, k, interior):
        _, sides = _edge_traces(space, edges, t)
        dofs, vals, dn, sign = _two_sided(sides)
        _accumulate(tri, dofs, dofs, w1**2 * _gram(ds, vals * sign)
                    + w2**2 * _gram(ds, dn * sign))
    for edges, t, ds in _edge_groups(space, k, boundary):
        pts, ((dofs, vals, dn),) = _edge_traces(space, edges, t)
        imp = dn + 1j * k * vals
        _accumulate(tri, dofs, dofs, w2**2 * _gram(ds, imp))
        gv = _edge_values(g, pts)
        np.add.at(rhs, dofs, w2**2 * np.einsum("eq,eql->el", ds * gv,
                                                np.conj(imp)))
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


def assemble_pwdg(space, k, g, flux):
    """Skeleton form of the plane-wave DG method on a Trefftz space.

    Interior edges carry the average/jump consistency terms plus the
    (i/k) beta gradient-jump and ik alpha trace-jump penalties; boundary
    edges carry the impedance terms weighted by delta.  The right-hand
    side is (i/k) delta (g, dv/dn) + (1-delta)(g, v) over boundary edges.
    """
    _require_trefftz(space)
    k = float(k)
    mesh = space.mesh
    n = space.ndof
    interior, boundary = _skeleton_edges(mesh)
    _check_flux(flux, mesh)
    tri = ([], [], [])
    rhs = np.zeros(n, dtype=complex)
    for edges, t, ds in _edge_groups(space, k, interior):
        _, sides = _edge_traces(space, edges, t)
        dofs, vals, dn, sign = _two_sided(sides)
        vv, vg, gv, gg = _products(ds, vals, dn)
        alpha, beta, _ = (a[:, None, None] for a in flux.on_edges(edges))
        # row l tests with side sign[l]; column m is trial side sign[m]
        loc = sign[:, None] * 0.5 * (gv - vg)
        loc += np.outer(sign, sign) * ((1j / k) * beta * gg
                                       + 1j * k * alpha * vv)
        _accumulate(tri, dofs, dofs, loc)
    for edges, t, ds in _edge_groups(space, k, boundary):
        pts, ((dofs, vals, dn),) = _edge_traces(space, edges, t)
        vv, vg, gv, gg = _products(ds, vals, dn)
        d = flux.on_edges(edges)[2][:, None, None]
        loc = ((1.0 - d) * gv + (1j / k) * d * gg - d * vg
               + 1j * k * (1.0 - d) * vv)
        _accumulate(tri, dofs, dofs, loc)
        test = (1j / k) * d * np.conj(dn) + (1.0 - d) * np.conj(vals)
        np.add.at(rhs, dofs, np.einsum("eq,eql->el",
                                       ds * _edge_values(g, pts), test))
    meta = {"method": "pwdg", "k": k, "h": mesh.h, "p": space.nloc, "flux": flux}
    return ComplexSystem(A=_to_csr(tri, n), rhs=rhs, meta=meta)


# -- linear algebra ----------------------------------------------------------


def _check_dense_size(n):
    """Refuse dense linear algebra on more than _DENSE_LIMIT unknowns."""
    if n > _DENSE_LIMIT:
        raise ValueError(f"dense linear algebra on n={n} unknowns exceeds "
                         f"the limit of {_DENSE_LIMIT}")


def _dense(a):
    """Dense copy of a CSR matrix; refuses more than _DENSE_LIMIT rows
    before allocating anything."""
    _check_dense_size(a.shape[0])
    return a.toarray()


def _reduce(system):
    A = scipy.sparse.csr_matrix(system.A, dtype=complex)
    if system.free is None:
        return A, system.rhs
    free = system.free
    return A[free][:, free], system.rhs[free]


def _relative_residual(A, x, rhs):
    denom = np.linalg.norm(rhs)
    return float(np.linalg.norm(A @ x - rhs) / (denom if denom > 0 else 1.0))


def _finite_and_small(A, x, rhs):
    """True when x is finite and its relative residual in A x = rhs is at
    most _LU_RESIDUAL_LIMIT."""
    return (bool(np.all(np.isfinite(x)))
            and _relative_residual(A, x, rhs) <= _LU_RESIDUAL_LIMIT)


def _sparse_lu(A, rhs, symmetric):
    """Sparse LU solution of A x = rhs; returns (x, ordering, lu_nnz).

    With `symmetric`, SuperLU first runs in symmetric mode: one minimum
    degree ordering of A + A^T for rows and columns and diagonal pivots
    (an off-diagonal pivot only where the diagonal entry is exactly
    zero), so the factors keep the fill the ordering predicts.  On the
    2D Galerkin systems of the square at k = 40, p = 1..3 and 5k-37k
    unknowns that halves COLAMD's fill; the same ordering under partial
    pivoting is what blows up (more than 60 s at p = 3).  That solution
    is kept when `splu` does not raise and `_finite_and_small` holds;
    otherwise, or without `symmetric`, A is factorized with COLAMD and
    partial pivoting.  lu_nnz is `SuperLU.nnz`, the entries stored for
    L and U, zeros padded into supernodes included.
    """
    if symmetric:
        try:
            lu = scipy.sparse.linalg.splu(
                A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})
        except RuntimeError:
            pass
        else:
            x = lu.solve(rhs)
            if _finite_and_small(A, x, rhs):
                return x, "MMD_AT_PLUS_A", lu.nnz
    lu = scipy.sparse.linalg.splu(A.tocsc(), permc_spec="COLAMD")
    return lu.solve(rhs), "COLAMD", lu.nnz


def _certified_lu(A, rhs, svd_cutoff):
    """Sparse LU solution that provably equals the truncated-SVD one.

    Returns (x, kappa_1, lu_nnz), with x None when the certificate
    fails: `splu` finds A singular, `_finite_and_small` fails, or
    10 n kappa_1 >= 1/svd_cutoff, where kappa_1 is the 1-norm condition
    number estimated by `onenormest` on A and on A^-1 applied through
    the LU factors.  Since kappa_2 <= n kappa_1, a passing certificate
    shows that truncation would drop no singular value, so the LU
    solution is the minimum-norm solution; the factor 10 allows for the
    estimate falling short of kappa_1.
    """
    n = rhs.shape[0]
    try:
        lu = scipy.sparse.linalg.splu(A.tocsc(), permc_spec="COLAMD")
    except RuntimeError:
        return None, None, None
    x = lu.solve(rhs)
    if not _finite_and_small(A, x, rhs):
        return None, None, None
    inverse = scipy.sparse.linalg.LinearOperator(
        (n, n), dtype=complex, matvec=lu.solve, matmat=lu.solve,
        rmatvec=lambda v: lu.solve(v, trans="H"),
        rmatmat=lambda v: lu.solve(v, trans="H"))
    # an A^-1 near overflow reads as an infinite, failing estimate
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = float(scipy.sparse.linalg.onenormest(A)
                      * scipy.sparse.linalg.onenormest(inverse))
    if not 10.0 * n * kappa < 1.0 / svd_cutoff:
        return None, kappa, None
    return x, kappa, lu.nnz


def solve(system, strategy="sparse_lu", svd_cutoff=1e-12):
    """Solve the assembled system; returns the solution and its residual.

    Strategies: 'sparse_lu' (default), 'dense_lu', and 'truncated_svd',
    which returns the minimum-norm least-squares solution after zeroing
    singular values below svd_cutoff * sigma_max (the rescue path for
    badly conditioned Trefftz bases).  'sparse_lu' tries SuperLU's
    symmetric mode first and falls back to COLAMD with partial pivoting
    (`_sparse_lu`); systems whose meta['dim'] is 1 go to COLAMD directly.
    'truncated_svd' first tries a COLAMD LU that certifies, by its
    residual and a condition estimate, that no singular value would be
    dropped (`_certified_lu`); only systems failing that certificate
    reach the dense SVD.  `SolveResult.strategy` names the path that ran
    ('sparse_lu' or 'truncated_svd' for this strategy), `ordering` and
    `lu_nnz` the LU that produced x, `cond_est` carries the condition
    estimate when one was made, and `svd_dropped` counts the zeroed
    values.  The matrix may be given in any form scipy.sparse accepts;
    the two dense strategies refuse systems above _DENSE_LIMIT unknowns.
    """
    A, rhs = _reduce(system)
    nred = rhs.shape[0]
    if A.shape != (nred, nred):
        raise ValueError("system matrix and right-hand side sizes disagree")
    dropped = 0
    cond_est = ordering = lu_nnz = None
    ran = strategy
    if strategy == "sparse_lu":
        # In 1D no ordering saves fill, and the roundoff-level errors of
        # the high-order 1D rows would move with any other factorization.
        x, ordering, lu_nnz = _sparse_lu(
            A, rhs, symmetric=system.meta.get("dim") != 1)
    elif strategy == "dense_lu":
        x = scipy.linalg.solve(_dense(A), rhs)
    elif strategy == "truncated_svd":
        _check_dense_size(nred)
        x, cond_est, lu_nnz = _certified_lu(A, rhs, svd_cutoff)
        if x is not None:
            ran, ordering = "sparse_lu", "COLAMD"
        else:
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
    residual = _relative_residual(A, x, rhs)
    if system.free is not None:
        full = np.zeros(system.ndof, dtype=complex)
        full[system.free] = x
        x = full
    return SolveResult(x=x, residual=residual, strategy=ran,
                       svd_dropped=dropped, cond_est=cond_est,
                       ordering=ordering, lu_nnz=lu_nnz)


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
