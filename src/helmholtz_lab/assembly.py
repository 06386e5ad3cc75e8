"""Assembly of sesquilinear forms, load vectors and the linear algebra.

Every matrix follows one convention: forms are linear in the first
(trial) argument and conjugate-linear in the second (test) argument, and
A[i, j] = form(b_j, b_i), so x^H A x is the quadratic form of x.  Every
assembled matrix is a scipy CSR matrix on a `spaces.BlockPattern`: the
keys (dofs[b, l], dofs[b, m]) of all local blocks are sorted once into
the CSR structure and a data slot per block entry, and each form sums
its local blocks into a data array on it, batch by batch and block
after block in order (`_block_sum`).  The element pattern is built once
per space (`space.element_pattern`); the boundary blocks of the Galerkin
form use their elements' slots, and the Trefftz skeleton forms build one
pattern of their two-sided edge blocks per call (`_skeleton_pattern`).
Sums such as stiffness - k^2 mass + ik boundary mass are taken on the
data arrays, and `_csr` drops the exact zeros, as scipy's sparse sums
do (SuperLU's orderings depend on which entries are stored).  An entry
with at most two contributions, as in every 1D matrix, or one, as in a
Trefftz Gram block, gets the bits of any summation order.  Only the
truncated SVD and the inf-sup probe make a dense copy, and they refuse
systems above _DENSE_LIMIT unknowns.

Every quadrature rule comes from the space (`space.volume_rule`,
`space.edge_rule`), and so do the DOFs that a Dirichlet edge fixes
(`space.boundary_dofs`); `restrict` cuts any matrix to the free rest,
for `solve` and for the inf-sup driver alike.  Volume integrals run one
loop over element batches from `space.element_batches`
(`_volume_parts`), taking local matrices from `space.element_matrices`
and, where a load is asked for, the Galerkin source load or the (1,k)
projection load from the same `space.element_tables` call.  The
stiffness and mass data arrays do not depend on k, so they are summed
once per space and volume rule and kept, read-only, with the space
(`space.volume_data`): the rows of a k-sweep on one space, and the
Galerkin, Gram and projection systems of one row, all take them from
there, and later calls loop only for a load.  Boundary
integrals of the Galerkin form make one pass over the Robin edges
(`_boundary_parts`) that returns the boundary mass and the Robin load
from one `space.eval_basis` call per batch.  Those and the skeleton
forms of the Trefftz methods loop over batches of edges that share an
edge rule (`_edge_groups`; a structured mesh has three edge lengths),
with both sides' traces from one batched `_edge_traces`.

`solve` has one path per kind of system.  Without an SVD cutoff (the
square Galerkin and DG systems) it first factorizes in SuperLU's
symmetric mode (a minimum-degree ordering of A + A^T, diagonal pivots),
made for the complex symmetric Galerkin matrices, and keeps that
solution only when it is finite with a relative residual of at most
_LU_RESIDUAL_LIMIT; otherwise, and for every system assembled on a 1D
mesh, it factorizes with COLAMD and partial pivoting.  With a cutoff
(the possibly singular least-squares normal equations and Gram
matrices) it runs the truncated SVD, but only when a COLAMD LU cannot
certify, through its residual and a 1-norm condition estimate, that
truncation would drop nothing.  `SolveResult` records the path that
ran, the LU ordering and fill, the estimate and the dropped singular
values.

The Galerkin matrix, the L2 mass matrix and the (1,k) Gram matrix are all
built from one set of shared parts (stiffness, mass, boundary mass), so
matrix-level identities between them hold to roundoff rather than to
quadrature accuracy.  A Galerkin system builds its mass matrix only when
`ComplexSystem.mass` is read.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from . import spaces

# Largest system the truncated SVD and the inf-sup probe accept (a
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

    `free` lists the unconstrained DOF indices in ascending order when
    Dirichlet elimination applies (None means all DOFs are free).
    `mass_data` holds the (pattern, data array) of the plain L2 mass
    matrix on the same DOF set, from which `mass` builds that matrix on
    first read, for the Garding-identity checks.
    """

    A: object
    rhs: np.ndarray
    free: object = None
    meta: dict = field(default_factory=dict)
    mass_data: tuple = field(default=None, repr=False)

    @property
    def ndof(self):
        return self.rhs.shape[0]

    @functools.cached_property
    def mass(self):
        """The L2 mass matrix as CSR, None without `mass_data`."""
        return None if self.mass_data is None else _csr(*self.mass_data)


@dataclass
class SolveResult:
    """A solution, its relative residual and how it was computed.

    `strategy` names the path that ran, `svd_dropped` counts singular
    values zeroed by truncation, and `cond_est` is the 1-norm condition
    estimate of the truncated-SVD certificate (None when none was made).
    `ordering` is the column ordering of the sparse LU that produced x
    ('MMD_AT_PLUS_A' in symmetric mode, 'COLAMD' otherwise; None on the
    dense SVD) and `lu_nnz` the entries SuperLU stores for its L and U
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


# -- sparse block sums -------------------------------------------------------


def _block_sum(data, pattern, slots, local):
    """`data` with the local blocks local[b, l, m] added at their slots
    slots[b, l, m] of `pattern`, block after block in order, so that
    batches of any size give the bits of one batch; None starts from a
    zero array of local's dtype."""
    if data is None:
        data = np.zeros(pattern.nnz, dtype=local.dtype)
    # flat indices take ufunc.at's fast path, four times faster
    np.add.at(data, slots.ravel(), local.ravel())
    return data


def _csr(pattern, data):
    """The CSR matrix holding `data` on `pattern`, exact zeros dropped.

    scipy's sparse sums drop the zeros they produce, and SuperLU's
    orderings depend on which entries are stored.
    """
    keep = data != 0
    kept = np.zeros(pattern.nnz + 1, dtype=pattern.indptr.dtype)
    np.cumsum(keep, out=kept[1:])
    return scipy.sparse.csr_matrix(
        (data[keep], pattern.indices[keep], kept[pattern.indptr]),
        shape=(pattern.n, pattern.n))


def _flat(pts):
    """Batched points (nb, nq[, 2]) as the (n,) or (n, 2) array that
    data callbacks take."""
    return pts.reshape((-1,) + pts.shape[2:])


# -- conforming volume/boundary parts ---------------------------------------


def _volume_parts(space, k, matrices=True, load=None):
    """One loop over element batches for the volume terms.

    Returns (stiff, mass, rhs): the stiffness and mass matrices as data
    arrays on `space.element_pattern` when `matrices` is set, and the
    load vector summed from `load(pts, w, vals, grads)`, the local loads
    (nb, nloc) of one batch from its `element_tables`, when a `load` is
    given; what is not asked for is None.  The matrices are summed on the
    space's first call with its volume rule and kept, read-only, in
    `space.volume_data`; later calls return the kept arrays and loop only
    for a load.  A batch that needs both takes them from one
    `element_tables` call; without a load, `element_matrices` evaluates
    what it needs itself (no physical-point tables for the 2D polynomial
    space).
    """
    rule = space.volume_rule(k)
    key = (rule.points.tobytes(), rule.weights.tobytes())
    kept = space.volume_data.get(key) if matrices else None
    build = matrices and kept is None
    dofs = space.dof_matrix()
    pattern = space.element_pattern if build else None
    stiff = mass = None
    rhs = None if load is None else np.zeros(space.ndof, dtype=complex)
    for elems in space.element_batches(len(rule.weights)):
        tables = None
        if load is not None:
            tables = space.element_tables(elems, rule)
            np.add.at(rhs, dofs[elems], load(*tables))
        if build:
            s_loc, m_loc = space.element_matrices(elems, rule, tables)
            slots = pattern.slots[0][elems]
            stiff = _block_sum(stiff, pattern, slots, s_loc)
            mass = _block_sum(mass, pattern, slots, m_loc)
    if build:
        for data in (stiff, mass):
            data.setflags(write=False)
        kept = space.volume_data[key] = stiff, mass
    stiff, mass = kept or (None, None)
    return stiff, mass, rhs


def _source_load(fn, pts, w, vals):
    """Local loads (u, b_l), (nb, nloc), of the point callback fn over one
    batch of points (nb, nq[, 2]) with weights w and basis values vals."""
    uq = np.asarray(fn(_flat(pts)), dtype=complex).reshape(w.shape)
    return np.einsum("eq,eql->el", w * uq, np.conj(vals))


def _load_1k(k, target, pts, w, vals, grads):
    """Local (1,k) load k^2 (u, b_l) + (grad u, grad b_l), (nb, nloc), of
    one element batch from its `element_tables`."""
    u, g = target(_flat(pts))
    uq = np.asarray(u, dtype=complex).reshape(w.shape)
    gq = np.asarray(g, dtype=complex).reshape(grads.shape[:2] + grads.shape[3:])
    return (k**2 * np.einsum("eq,eql->el", w * uq, np.conj(vals))
            + np.einsum("eq,eqd,eqld->el", w, gq, np.conj(grads)))


def _edge_points(mesh, edges, t):
    """Points (E, Q, 2) at parameters t along each edge of `edges`."""
    a = mesh.nodes[mesh.edge_nodes[edges, 0]]
    b = mesh.nodes[mesh.edge_nodes[edges, 1]]
    return a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]


def _edge_groups(space, k, edges):
    """The 2D mesh edges `edges` grouped by `space.edge_rule`, in batches.

    Yields (batch, t, ds): an index array of edges sharing one rule,
    that rule's points t on [0, 1] and the physical weights ds (E, Q).
    Batches are sized so that both sides' basis gradients or a local
    matrix of the two sides hold at most spaces._BATCH_ENTRIES numbers.
    """
    mesh = space.mesh
    edges = np.asarray(edges, dtype=np.int64)
    lengths = mesh.edge_lengths[edges]
    unique, inverse = np.unique(lengths, return_inverse=True)
    rules = [space.edge_rule(k, h) for h in unique]
    npts = np.array([len(r.weights) for r in rules], dtype=np.int64)[inverse]
    for nq in np.unique(npts):
        rule = rules[inverse[np.argmax(npts == nq)]]
        t, w = rule.points, rule.weights
        members = edges[npts == nq]
        per_edge = 2 * space.nloc * max(2 * space.nloc, nq * mesh.dim)
        step = max(1, spaces._BATCH_ENTRIES // per_edge)
        for lo in range(0, len(members), step):
            batch = members[lo:lo + step]
            yield batch, t, mesh.edge_lengths[batch][:, None] * w


def _tagged_edges(mesh, tags):
    """Indices of the boundary edges whose tag lies in `tags`."""
    idx = np.flatnonzero(mesh.boundary_mask)
    return idx[[mesh.edge_tags[i] in tags for i in idx]]


def _boundary_batches(space, k, tags):
    """Boundary edges whose tag lies in `tags`, grouped by edge rule.

    Yields (elements, points, weights) per group, points shaped like
    batched element points.  In 1D a boundary "edge" is an end node with
    unit point measure.
    """
    mesh = space.mesh
    idx = _tagged_edges(mesh, tags)
    if len(idx) == 0:
        return
    if mesh.dim == 1:
        x = mesh.nodes[mesh.edge_nodes[idx, 0]]
        yield mesh.edge_elems[idx, 0], x[:, None], np.ones((len(idx), 1))
        return
    for batch, t, ds in _edge_groups(space, k, idx):
        yield mesh.edge_elems[batch, 0], _edge_points(mesh, batch, t), ds


def _boundary_parts(space, k, tags, g=None):
    """One pass over the boundary edges whose tag lies in `tags`.

    Returns (boundary mass, load (g, b_i)): the boundary mass as a data
    array on `space.element_pattern`, each edge's block summed into its
    element's slots, and the load None without a point callback g.
    """
    dofs = space.dof_matrix()
    pattern = space.element_pattern
    bd = None
    rhs = None if g is None else np.zeros(space.ndof, dtype=complex)
    for elems, pts, w in _boundary_batches(space, k, tags):
        vals, _ = space.eval_basis(elems, pts)
        bd = _block_sum(bd, pattern, pattern.slots[0][elems], np.einsum(
            "eq,eql,eqm->elm", w, np.conj(vals), vals))
        if g is not None:
            np.add.at(rhs, dofs[elems], _source_load(g, pts, w, vals))
    return (np.zeros(pattern.nnz) if bd is None else bd), rhs


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
    present = {mesh.edge_tags[i] for i in np.flatnonzero(mesh.boundary_mask)}
    robin_tags = {t for t in present if bc.get(t, "robin") == "robin"}
    dirichlet_tags = {t for t in present if bc.get(t) == "dirichlet"}
    load = None
    if f is not None:
        fv = f if callable(f) else (lambda pts, c=complex(f): np.full(pts.shape[0], c))
        load = lambda pts, w, vals, grads: _source_load(fv, pts, w, vals)
    stiff, mass, f_rhs = _volume_parts(space, k, load=load)
    bd, g_rhs = _boundary_parts(space, k, robin_tags, g)
    pattern = space.element_pattern
    A = _csr(pattern, stiff - k**2 * mass + robin_sign * 1j * k * bd)
    # the two loads are summed into zeros in this order, as separate
    # vectors: adding one into the other's accumulator rounds differently
    rhs = np.zeros(space.ndof, dtype=complex)
    for part in (f_rhs, g_rhs):
        if part is not None:
            rhs += part
    free = None
    if dirichlet_tags:
        keep = np.ones(space.ndof, dtype=bool)
        keep[space.boundary_dofs(_tagged_edges(mesh, dirichlet_tags))] = False
        free = np.flatnonzero(keep)
    meta = {"dim": mesh.dim, "boundary_mass": _csr(pattern, bd)}
    return ComplexSystem(A=A, rhs=rhs, free=free, meta=meta,
                         mass_data=(pattern, mass))


def assemble_gram_1k(space, k):
    """Gram matrix of the weighted norm k^2 ||u||^2 + ||grad u||^2."""
    k = float(k)
    stiff, mass, _ = _volume_parts(space, k)
    return _csr(space.element_pattern, stiff + k**2 * mass)


def project_rhs_1k(space, k, target):
    """Load vector of the (1,k) inner product against a target function.

    rhs_i = k^2 (u, b_i) + (grad u, grad b_i), with target mapping points
    to (values of u, gradients of u), such as `ExactSolution.eval`; used
    for best-approximation studies via the normal equations with the
    (1,k) Gram matrix.
    """
    k = float(k)
    return _volume_parts(space, k, matrices=False,
                         load=functools.partial(_load_1k, k, target))[2]


def assemble_projection_1k(space, k, target):
    """Normal equations of the (1,k) best approximation of a target.

    A is `assemble_gram_1k(space, k)` and rhs `project_rhs_1k(space, k,
    target)`, bit for bit, from one volume loop that evaluates the basis
    once per element batch for both.
    """
    k = float(k)
    stiff, mass, rhs = _volume_parts(
        space, k, load=functools.partial(_load_1k, k, target))
    return ComplexSystem(A=_csr(space.element_pattern, stiff + k**2 * mass),
                         rhs=rhs)


# -- skeleton assembly for Trefftz methods -----------------------------------


def _require_trefftz(space):
    if space.conforming:
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
    """Both sides' values and normal derivatives side by side, and the
    sign (+1 plus, -1 minus) of each local column."""
    (_, vp, gp), (_, vm, gm) = sides
    sign = np.repeat([1.0, -1.0], vp.shape[2])
    return (np.concatenate([vp, vm], axis=2), np.concatenate([gp, gm], axis=2),
            sign)


def _skeleton_pattern(space, k):
    """The skeleton's edge batches and the `BlockPattern` of their blocks.

    Returns (pattern, inner, outer): `inner` and `outer` list the interior
    and boundary edge batches of `_edge_groups` as ((edges, t, ds),
    slots).  An interior edge's block couples the DOFs of its plus and
    minus elements, in that order (the columns of `_two_sided`); a
    boundary edge's block those of its one element.
    """
    mesh = space.mesh
    dofs = space.dof_matrix()
    interior, boundary = _skeleton_edges(mesh)
    inner = list(_edge_groups(space, k, interior))
    outer = list(_edge_groups(space, k, boundary))
    blocks = [dofs[mesh.edge_elems[edges]].reshape(len(edges), -1)
              for edges, _, _ in inner]
    blocks += [dofs[mesh.edge_elems[edges, 0]] for edges, _, _ in outer]
    pattern = spaces.BlockPattern.of(space.ndof, blocks)
    slots = pattern.slots
    return (pattern, list(zip(inner, slots[:len(inner)])),
            list(zip(outer, slots[len(inner):])))


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
    pattern, inner, outer = _skeleton_pattern(space, k)
    data = None
    rhs = np.zeros(space.ndof, dtype=complex)
    g_norm2 = 0.0
    for (edges, t, ds), slots in inner:
        _, sides = _edge_traces(space, edges, t)
        vals, dn, sign = _two_sided(sides)
        data = _block_sum(data, pattern, slots,
                          w1**2 * _gram(ds, vals * sign)
                          + w2**2 * _gram(ds, dn * sign))
    for (edges, t, ds), slots in outer:
        pts, ((dofs, vals, dn),) = _edge_traces(space, edges, t)
        imp = dn + 1j * k * vals
        data = _block_sum(data, pattern, slots, w2**2 * _gram(ds, imp))
        gv = _edge_values(g, pts)
        np.add.at(rhs, dofs, w2**2 * np.einsum("eq,eql->el", ds * gv,
                                                np.conj(imp)))
        g_norm2 += w2**2 * float(np.sum(ds * np.abs(gv) ** 2))
    meta = {"w1": w1, "w2": w2, "g_norm2": g_norm2}
    return ComplexSystem(A=_csr(pattern, data), rhs=rhs, meta=meta)


def assemble_pwdg(space, k, g, flux):
    """Skeleton form of the plane-wave DG method on a Trefftz space.

    Interior edges carry the average/jump consistency terms plus the
    (i/k) beta gradient-jump and ik alpha trace-jump penalties; boundary
    edges carry the impedance terms weighted by delta.  The right-hand
    side is (i/k) delta (g, dv/dn) + (1-delta)(g, v) over boundary edges.
    """
    _require_trefftz(space)
    k = float(k)
    _check_flux(flux, space.mesh)
    pattern, inner, outer = _skeleton_pattern(space, k)
    data = None
    rhs = np.zeros(space.ndof, dtype=complex)
    for (edges, t, ds), slots in inner:
        _, sides = _edge_traces(space, edges, t)
        vals, dn, sign = _two_sided(sides)
        vv, vg, gv, gg = _products(ds, vals, dn)
        alpha, beta, _ = (a[:, None, None] for a in flux.on_edges(edges))
        # row l tests with side sign[l]; column m is trial side sign[m]
        loc = sign[:, None] * 0.5 * (gv - vg)
        loc += np.outer(sign, sign) * ((1j / k) * beta * gg
                                       + 1j * k * alpha * vv)
        data = _block_sum(data, pattern, slots, loc)
    for (edges, t, ds), slots in outer:
        pts, ((dofs, vals, dn),) = _edge_traces(space, edges, t)
        vv, vg, gv, gg = _products(ds, vals, dn)
        d = flux.on_edges(edges)[2][:, None, None]
        loc = ((1.0 - d) * gv + (1j / k) * d * gg - d * vg
               + 1j * k * (1.0 - d) * vv)
        data = _block_sum(data, pattern, slots, loc)
        test = (1j / k) * d * np.conj(dn) + (1.0 - d) * np.conj(vals)
        np.add.at(rhs, dofs, np.einsum("eq,eql->el",
                                       ds * _edge_values(g, pts), test))
    return ComplexSystem(A=_csr(pattern, data), rhs=rhs)


# -- linear algebra ----------------------------------------------------------


def _dense(a):
    """Dense copy of a CSR matrix; refuses more than _DENSE_LIMIT rows
    before allocating anything."""
    n = a.shape[0]
    if n > _DENSE_LIMIT:
        raise ValueError(f"dense linear algebra on n={n} unknowns exceeds "
                         f"the limit of {_DENSE_LIMIT}")
    return a.toarray()


def restrict(matrix, free):
    """The CSR matrix `matrix` restricted to the rows and columns `free`,
    the ascending DOFs a Dirichlet edge leaves unfixed (`ComplexSystem.free`;
    None keeps them all and returns `matrix` itself).

    The block keeps the matrix's dtype and its entries in order, as
    matrix[free][:, free] does, without scipy's two fancy-indexing copies.
    """
    if free is None:
        return matrix
    index = np.full(matrix.shape[0], -1, dtype=matrix.indices.dtype)
    index[free] = np.arange(len(free))
    row = np.repeat(index, np.diff(matrix.indptr))
    col = index[matrix.indices]
    keep = (row >= 0) & (col >= 0)
    indptr = np.zeros(len(free) + 1, dtype=matrix.indptr.dtype)
    np.cumsum(np.bincount(row[keep], minlength=len(free)), out=indptr[1:])
    return scipy.sparse.csr_matrix((matrix.data[keep], col[keep], indptr),
                                   shape=(len(free), len(free)))


def _reduce(system):
    """The system matrix as complex CSR and the right-hand side, both
    restricted to the free DOFs."""
    A = restrict(scipy.sparse.csr_matrix(system.A, dtype=complex), system.free)
    return A, (system.rhs if system.free is None else system.rhs[system.free])


def _relative_residual(A, x, rhs):
    denom = np.linalg.norm(rhs)
    return float(np.linalg.norm(A @ x - rhs) / (denom if denom > 0 else 1.0))


def _accepted_residual(A, x, rhs):
    """The relative residual of x in A x = rhs when x is finite and the
    residual is at most _LU_RESIDUAL_LIMIT, else None."""
    if not np.all(np.isfinite(x)):
        return None
    residual = _relative_residual(A, x, rhs)
    return residual if residual <= _LU_RESIDUAL_LIMIT else None


def _sparse_lu(A, rhs, symmetric):
    """Sparse LU solution of A x = rhs; returns (x, ordering, lu_nnz,
    residual), the residual None where none was computed.

    With `symmetric`, SuperLU first runs in symmetric mode: one minimum
    degree ordering of A + A^T for rows and columns and diagonal pivots
    (an off-diagonal pivot only where the diagonal entry is exactly
    zero), so the factors keep the fill the ordering predicts.  On the
    2D Galerkin systems of the square at k = 40, p = 1..3 and 5k-37k
    unknowns that halves COLAMD's fill; the same ordering under partial
    pivoting is what blows up (more than 60 s at p = 3).  That solution
    is kept, with the residual that checked it, when `splu` does not
    raise and `_accepted_residual` accepts x; otherwise, or without
    `symmetric`, A is factorized with COLAMD and partial pivoting.
    lu_nnz is `SuperLU.nnz`, the entries stored for L and U, zeros
    padded into supernodes included.
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
            residual = _accepted_residual(A, x, rhs)
            if residual is not None:
                return x, "MMD_AT_PLUS_A", lu.nnz, residual
    lu = scipy.sparse.linalg.splu(A.tocsc(), permc_spec="COLAMD")
    return lu.solve(rhs), "COLAMD", lu.nnz, None


def _certified_lu(A, rhs, svd_cutoff):
    """Sparse LU solution that provably equals the truncated-SVD one.

    Returns (x, kappa_1, lu_nnz, residual), residual being the relative
    residual of x, with x None when the certificate fails: `splu` finds
    A singular, `_accepted_residual` refuses x, or
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
        return None, None, None, None
    x = lu.solve(rhs)
    residual = _accepted_residual(A, x, rhs)
    if residual is None:
        return None, None, None, None
    inverse = scipy.sparse.linalg.LinearOperator(
        (n, n), dtype=complex, matvec=lu.solve, matmat=lu.solve,
        rmatvec=lambda v: lu.solve(v, trans="H"),
        rmatmat=lambda v: lu.solve(v, trans="H"))
    # an A^-1 near overflow reads as an infinite, failing estimate
    with np.errstate(over="ignore", invalid="ignore"):
        kappa = float(scipy.sparse.linalg.onenormest(A)
                      * scipy.sparse.linalg.onenormest(inverse))
    if not 10.0 * n * kappa < 1.0 / svd_cutoff:
        return None, kappa, None, None
    return x, kappa, lu.nnz, residual


def solve(system, svd_cutoff=None):
    """Solve the assembled system; returns the solution and its residual.

    Without `svd_cutoff`, a sparse LU: SuperLU's symmetric mode first,
    falling back to COLAMD with partial pivoting (`_sparse_lu`); systems
    whose meta['dim'] is 1 go to COLAMD directly.  With it, the
    minimum-norm least-squares solution after zeroing singular values
    below svd_cutoff * sigma_max, for numerically singular normal
    equations and Gram matrices of wave-based bases: a COLAMD LU that
    certifies, by its residual and a condition estimate, that no singular
    value would be dropped (`_certified_lu`), else the dense SVD, which
    refuses systems above _DENSE_LIMIT unknowns.  `SolveResult.strategy`
    names the path that ran ('sparse_lu' or 'truncated_svd'), `ordering`
    and `lu_nnz` the LU that produced x, `cond_est` carries the condition
    estimate when one was made, and `svd_dropped` counts the zeroed
    values.  The matrix may be given in any form scipy.sparse accepts.
    """
    A, rhs = _reduce(system)
    nred = rhs.shape[0]
    if A.shape != (nred, nred):
        raise ValueError("system matrix and right-hand side sizes disagree")
    dropped = 0
    cond_est = ordering = lu_nnz = residual = None
    ran = "sparse_lu"
    if svd_cutoff is None:
        # In 1D no ordering saves fill, and the roundoff-level errors of
        # the high-order 1D rows would move with any other factorization.
        x, ordering, lu_nnz, residual = _sparse_lu(
            A, rhs, symmetric=system.meta.get("dim") != 1)
    else:
        x, cond_est, lu_nnz, residual = _certified_lu(A, rhs, svd_cutoff)
        if x is not None:
            ordering = "COLAMD"
        else:
            ran = "truncated_svd"
            u, s, vh = np.linalg.svd(_dense(A))
            keep = s > svd_cutoff * s[0]
            inv = np.zeros_like(s)
            inv[keep] = 1.0 / s[keep]
            x = vh.conj().T @ (inv * (u.conj().T @ rhs))
            dropped = int(np.count_nonzero(~keep))
    if not np.all(np.isfinite(x)):
        raise np.linalg.LinAlgError("solver produced non-finite values")
    if residual is None:
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
