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
for `solve` and for the inf-sup driver alike, and for `solve` puts it
in an elimination order too.  Volume integrals run one loop over
element batches from `space.element_batches` (`_volume_parts`), taking
local matrices from `space.element_matrices` and, where a load is asked
for, the Galerkin source load or the (1,k) projection load from the
same `space.element_tables` call.  The stiffness and mass data arrays
do not depend on k, so they are summed once per space and volume rule
and kept, read-only, with the space (`space.volume_data`): the rows of
a k-sweep on one space, and the Galerkin, Gram and projection systems
of one row, all take them from there, and later calls loop only for a
load.  `boundary_edges` sorts
the boundary edges by condition; the one place that knows a tag left
out of a `bc` map is robin.  Boundary integrals of the Galerkin form
make one pass over the Robin edges (`_boundary_parts`) that returns the
boundary mass and the Robin load from one `space.eval_basis` call per
batch.  Those and the skeleton forms of the Trefftz methods loop over
the batches of edges that share an edge rule from `space.edge_batches`
(a structured mesh has three edge lengths), the skeleton forms with both
sides' traces from one `space.edge_tables` call per batch.

`solve` cuts and orders the system and hands it to one strategy per
kind of system, which returns a complete `SolveResult`: without an SVD
cutoff (the square Galerkin and DG systems) `_sparse_lu`, a sparse LU in
SuperLU's symmetric mode, made for the complex symmetric Galerkin
matrices, that falls back to COLAMD with partial pivoting (in
nested-dissection order the factor is first made in complex64 and its
solution refined in complex128, `_refined`); with one (the possibly
singular least-squares normal equations and Gram matrices)
`_truncated`, the truncated SVD unless a COLAMD LU certifies that
truncation would drop nothing.  Every LU is one `_factor` call.
`SolveResult` records the path that ran, the LU ordering and fill, the
condition estimate and the dropped singular values.

The Galerkin matrix, the L2 mass matrix and the (1,k) Gram matrix are all
built from one set of shared parts (stiffness, mass, boundary mass), so
matrix-level identities between them hold to roundoff rather than to
quadrature accuracy.  A Galerkin system builds its mass matrix only when
`ComplexSystem.mass` is read.
"""

import functools
import math
from dataclasses import dataclass, field, replace

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

# Most correction steps of the refinement of a complex64 factor's
# solution (LAPACK zcgesv's ITERMAX).
_REFINE_MAX_STEPS = 30


@dataclass
class ComplexSystem:
    """An assembled complex linear system plus companion matrices.

    `free` lists the unconstrained DOF indices in ascending order when
    Dirichlet elimination applies (None means all DOFs are free).  `order`
    is an elimination order of all DOFs (`space.elimination_order`), in
    which the sparse LU of `solve` factorizes the free ones; None leaves
    the ordering to SuperLU.  `mass_data` holds the (pattern, data array)
    of the plain L2 mass matrix on the same DOF set, from which `mass`
    builds that matrix on first read, for the Garding-identity checks.
    """

    A: object
    rhs: np.ndarray
    free: object = None
    meta: dict = field(default_factory=dict)
    mass_data: tuple = field(default=None, repr=False)
    order: object = field(default=None, repr=False)

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
    ('NESTED_DISSECTION', the system's own `order`, or 'MMD_AT_PLUS_A' in
    symmetric mode, 'COLAMD' otherwise; None on the dense SVD),
    `lu_nnz` the entries SuperLU stores for the L and U factors that
    produced x, and `refine_steps` the correction steps that refined the
    solution of a complex64 factor to double accuracy (None where x
    comes from a complex128 factor or the SVD).
    """

    x: np.ndarray
    residual: float
    strategy: str
    svd_dropped: int = 0
    cond_est: float = None
    ordering: str = None
    lu_nnz: int = None
    refine_steps: int = None


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

    def check(self, mesh):
        """Refuse parameters out of range on the edges of `mesh` that use
        them: alpha, beta > 0 on interior edges and 0 < delta < 1 on
        boundary edges."""
        alpha, beta, _ = self.on_edges(np.flatnonzero(~mesh.boundary_mask))
        for name, value in (("alpha", alpha), ("beta", beta)):
            if not np.all(value > 0.0):
                raise ValueError(f"flux parameter {name} must be positive")
        delta = self.on_edges(np.flatnonzero(mesh.boundary_mask))[2]
        if not np.all((delta > 0.0) & (delta < 1.0)):
            raise ValueError("flux parameter delta must lie in (0, 1)")


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


# The named flux presets, each a constructor of its `FluxParams` on a
# Trefftz space.  The constructors are looked up when called, so that a
# wrapper put in their place on the module is what runs.
FLUX_PRESETS = {
    "uwvf": lambda space: uwvf_fluxes(),
    "hmp": lambda space: hmp_fluxes(space),
    "h_version": lambda space: h_version_fluxes(space),
}


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


# -- conforming volume/boundary parts ---------------------------------------


def _volume_parts(space, k, load=None):
    """One loop over element batches for the volume terms.

    Returns (stiff, mass, rhs): the stiffness and mass matrices as data
    arrays on `space.element_pattern`, and the load vector summed from
    `load(pts, w, vals, grads)`, the local loads (nb, nloc) of one batch
    from its `element_tables`, None without a `load`.  The matrices are
    summed on the space's first call with its volume rule and kept,
    read-only, in `space.volume_data`; later calls return the kept arrays
    and loop only for a load.  A batch that needs both takes them from one
    `element_tables` call; without a load, `element_matrices` evaluates
    what it needs itself (no physical-point tables for the 2D polynomial
    space).
    """
    rule = space.volume_rule(k)
    key = (rule.points.tobytes(), rule.weights.tobytes())
    kept = space.volume_data.get(key)
    build = kept is None
    dofs = space.dof_matrix()
    pattern = space.element_pattern
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
    return kept + (rhs,)


def _source_load(fn, pts, w, vals):
    """Local loads (u, b_l), (nb, nloc), of the point callback fn over one
    batch of points (nb, nq[, 2]) with weights w and basis values vals."""
    return np.einsum("eq,eql->el", w * spaces._point_values(fn, pts),
                     np.conj(vals))


def _load_1k(k, target, pts, w, vals, grads):
    """Local (1,k) load k^2 (u, b_l) + (grad u, grad b_l), (nb, nloc), of
    one element batch from its `element_tables`."""
    uq, gq = spaces._point_fields(target, pts)
    return (k**2 * np.einsum("eq,eql->el", w * uq, np.conj(vals))
            + np.einsum("eq,eqd,eqld->el", w, gq, np.conj(grads)))


# The boundary conditions a `bc` map may name; a tag it leaves out is robin.
BC_KINDS = ("robin", "neumann", "dirichlet")


def boundary_edges(mesh, bc):
    """The boundary edges of `mesh` under each condition of `bc`.

    `bc` maps edge tags to a kind of `BC_KINDS`; a boundary tag it leaves
    out is robin, and a tag the mesh lacks is ignored.  Returns a dict
    from each kind to the ascending indices of its boundary edges (empty
    when none).  A kind outside `BC_KINDS`, on any tag, raises ValueError
    naming the tag and the kind.
    """
    bc = bc or {}
    for tag, kind in bc.items():
        if kind not in BC_KINDS:
            raise ValueError(f"bc maps tag '{tag}' to '{kind}', which is "
                             f"not one of {', '.join(BC_KINDS)}")
    idx = np.flatnonzero(mesh.boundary_mask)
    kinds = [bc.get(mesh.edge_tags[i], "robin") for i in idx]
    return {kind: idx[[of == kind for of in kinds]] for kind in BC_KINDS}


def _boundary_batches(space, k, idx):
    """The boundary edges `idx`, grouped by edge rule.

    Yields (elements, points, weights) per batch of `space.edge_batches`,
    points shaped like batched element points.  In 1D a boundary "edge"
    is an end node with unit point measure.
    """
    mesh = space.mesh
    if len(idx) == 0:
        return
    if mesh.dim == 1:
        x = mesh.nodes[mesh.edge_nodes[idx, 0]]
        yield mesh.edge_elems[idx, 0], x[:, None], np.ones((len(idx), 1))
        return
    for batch, t, ds in space.edge_batches(k, idx):
        yield mesh.edge_elems[batch, 0], mesh.edge_points(batch, t), ds


def _boundary_parts(space, k, idx, g=None):
    """One pass over the boundary edges `idx`.

    Returns (boundary mass, load (g, b_i)): the boundary mass as a data
    array on `space.element_pattern`, each edge's block summed into its
    element's slots, and the load None without a point callback g.
    """
    dofs = space.dof_matrix()
    pattern = space.element_pattern
    bd = None
    rhs = None if g is None else np.zeros(space.ndof, dtype=complex)
    for elems, pts, w in _boundary_batches(space, k, idx):
        vals, _ = space.eval_basis(elems, pts)
        bd = _block_sum(bd, pattern, pattern.slots[0][elems], np.einsum(
            "eq,eql,eqm->elm", w, np.conj(vals), vals))
        if g is not None:
            np.add.at(rhs, dofs[elems], _source_load(g, pts, w, vals))
    return (np.zeros(pattern.nnz) if bd is None else bd), rhs


def assemble_galerkin(space, k, f=None, g=None, bc=None, robin_sign=1.0):
    """Galerkin matrix and load of the Robin/mixed Helmholtz problem.

    A = stiffness - k^2 mass + robin_sign * ik * (boundary mass on Robin
    edges); rhs_i = (f, b_i) + (g, b_i) over Robin edges.  The edges of
    each condition are those `boundary_edges(space.mesh, bc)` assigns it.
    Dirichlet parts (homogeneous) are recorded as eliminated DOFs in
    `free` and resolved at solve time.
    """
    if not space.conforming:
        raise ValueError("assemble_galerkin needs a conforming space")
    k = float(k)
    edges = boundary_edges(space.mesh, bc)
    load = None
    if f is not None:
        fv = f if callable(f) else (lambda pts, c=complex(f): np.full(pts.shape[0], c))
        load = lambda pts, w, vals, grads: _source_load(fv, pts, w, vals)
    stiff, mass, f_rhs = _volume_parts(space, k, load=load)
    bd, g_rhs = _boundary_parts(space, k, edges["robin"], g)
    pattern = space.element_pattern
    A = _csr(pattern, stiff - k**2 * mass + robin_sign * 1j * k * bd)
    # the two loads are summed into zeros in this order, as separate
    # vectors: adding one into the other's accumulator rounds differently
    rhs = np.zeros(space.ndof, dtype=complex)
    for part in (f_rhs, g_rhs):
        if part is not None:
            rhs += part
    free = None
    if len(edges["dirichlet"]):
        keep = np.ones(space.ndof, dtype=bool)
        keep[space.boundary_dofs(edges["dirichlet"])] = False
        free = np.flatnonzero(keep)
    return _space_system(space, A, rhs, free=free,
                         meta={"boundary_mass": _csr(pattern, bd)},
                         mass_data=(pattern, mass))


def _space_system(space, A, rhs, meta=None, **fields):
    """The `ComplexSystem` of a square system on the DOFs of a conforming
    space, with what `solve` orders its sparse LU by: the space's
    `elimination_order` and meta['dim'], the dimension of its mesh."""
    return ComplexSystem(A=A, rhs=rhs, meta={"dim": space.mesh.dim,
                                             **(meta or {})},
                         order=space.elimination_order, **fields)


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
    (1,k) Gram matrix.  Like every volume pass, the first one on a space
    with its volume rule also sums the stiffness and mass data that the
    space keeps (`_volume_parts`).
    """
    k = float(k)
    return _volume_parts(space, k,
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
    return _space_system(space, _csr(space.element_pattern,
                                     stiff + k**2 * mass), rhs)


# -- skeleton assembly for Trefftz methods -----------------------------------


def _require_trefftz(space):
    if space.conforming:
        raise ValueError("this assembly path needs a Trefftz space")


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
    and boundary edge batches of `space.edge_batches` as ((edges, t, ds),
    slots).  An interior edge's block couples the DOFs of its plus and
    minus elements, in that order (the columns of `_two_sided`); a
    boundary edge's block those of its one element.
    """
    mesh = space.mesh
    dofs = space.dof_matrix()
    inner = list(space.edge_batches(k, np.flatnonzero(~mesh.boundary_mask)))
    outer = list(space.edge_batches(k, np.flatnonzero(mesh.boundary_mask)))
    blocks = [dofs[mesh.edge_elems[edges]].reshape(len(edges), -1)
              for edges, _, _ in inner]
    blocks += [dofs[mesh.edge_elems[edges, 0]] for edges, _, _ in outer]
    pattern = spaces.BlockPattern.of(space.ndof, blocks)
    slots = pattern.slots
    return (pattern, list(zip(inner, slots[:len(inner)])),
            list(zip(outer, slots[len(inner):])))


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
        _, sides = space.edge_tables(edges, t)
        vals, dn, sign = _two_sided(sides)
        data = _block_sum(data, pattern, slots,
                          w1**2 * _gram(ds, vals * sign)
                          + w2**2 * _gram(ds, dn * sign))
    for (edges, t, ds), slots in outer:
        pts, ((dofs, vals, dn),) = space.edge_tables(edges, t)
        imp = dn + 1j * k * vals
        data = _block_sum(data, pattern, slots, w2**2 * _gram(ds, imp))
        gv = spaces._point_values(g, pts)
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
    flux.check(space.mesh)
    pattern, inner, outer = _skeleton_pattern(space, k)
    data = None
    rhs = np.zeros(space.ndof, dtype=complex)
    for (edges, t, ds), slots in inner:
        _, sides = space.edge_tables(edges, t)
        vals, dn, sign = _two_sided(sides)
        vv, vg, gv, gg = _products(ds, vals, dn)
        alpha, beta, _ = (a[:, None, None] for a in flux.on_edges(edges))
        # row l tests with side sign[l]; column m is trial side sign[m]
        loc = sign[:, None] * 0.5 * (gv - vg)
        loc += np.outer(sign, sign) * ((1j / k) * beta * gg
                                       + 1j * k * alpha * vv)
        data = _block_sum(data, pattern, slots, loc)
    for (edges, t, ds), slots in outer:
        pts, ((dofs, vals, dn),) = space.edge_tables(edges, t)
        vv, vg, gv, gg = _products(ds, vals, dn)
        d = flux.on_edges(edges)[2][:, None, None]
        loc = ((1.0 - d) * gv + (1j / k) * d * gg - d * vg
               + 1j * k * (1.0 - d) * vv)
        data = _block_sum(data, pattern, slots, loc)
        test = (1j / k) * d * np.conj(dn) + (1.0 - d) * np.conj(vals)
        np.add.at(rhs, dofs, np.einsum("eq,eql->el",
                                       ds * spaces._point_values(g, pts),
                                       test))
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


def restrict(matrix, index):
    """The block matrix[index][:, index] of the CSR matrix `matrix`, for
    an index array of distinct DOFs in any order: the ascending free DOFs
    of a Dirichlet cut (`ComplexSystem.free`), or those in an elimination
    order.  None keeps them all and returns `matrix` itself.

    The block keeps the matrix's dtype, and each row its entries in
    order, as the fancy indexing does.  An ascending index keeps the rows
    in their old order, so one mask of the kept entries cuts the block,
    without scipy's two fancy-indexing copies (0.05 ms against 0.11 ms on
    a small 1D system); any other order takes those copies, whose
    compiled loops permute the 2D Galerkin systems of 5k-37k unknowns
    0.4-1.7 ms faster than a numpy gather of the kept entries.
    """
    if index is None:
        return matrix
    if (index[1:] < index[:-1]).any():
        return matrix[index][:, index]
    n = len(index)
    new = np.full(matrix.shape[0], -1, dtype=matrix.indices.dtype)
    new[index] = np.arange(n)
    row = np.repeat(new, np.diff(matrix.indptr))
    col = new[matrix.indices]
    keep = (row >= 0) & (col >= 0)
    indptr = np.zeros(n + 1, dtype=matrix.indptr.dtype)
    np.cumsum(np.bincount(row[keep], minlength=n), out=indptr[1:])
    return scipy.sparse.csr_matrix((matrix.data[keep], col[keep], indptr),
                                   shape=(n, n))


def _reduce(system, index):
    """The system matrix as complex CSR and the right-hand side, both
    restricted to the DOFs `index` in its order (None keeps all)."""
    A = restrict(scipy.sparse.csr_matrix(system.A, dtype=complex), index)
    return A, (system.rhs if index is None else system.rhs[index])


def _free_in_order(system):
    """The free DOFs of `system` in its elimination order `order`."""
    if system.free is None:
        return system.order
    free = np.zeros(system.ndof, dtype=bool)
    free[system.free] = True
    return system.order[free[system.order]]


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


def _factor(A, ordering):
    """SuperLU factors of the square sparse A, None where SuperLU finds A
    singular.  The factors take A's precision: complex128, or complex64
    for the first factor of a nested-dissection solve (`_refined`).
    `ordering` 'COLAMD' pivots partially; 'NESTED_DISSECTION'
    takes A as it stands, already in its elimination order (SuperLU's
    'NATURAL'), and 'MMD_AT_PLUS_A' a minimum degree ordering of A + A^T,
    both in SuperLU's symmetric mode: one ordering for rows and columns
    and diagonal pivots (off the diagonal only at an exact zero), so the
    factors keep the fill the ordering predicts.  On the 2D Galerkin
    systems of the square at k = 40, p = 1..3 and 5k-37k unknowns the
    minimum degree ordering halves COLAMD's fill and the nested
    dissection of `spaces._Space.elimination_order` stores 5-20% less
    than it; under partial pivoting the same orderings blow up (over
    60 s at p = 3).
    """
    spec = "NATURAL" if ordering == "NESTED_DISSECTION" else ordering
    options = {} if ordering == "COLAMD" else {
        "diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}
    try:
        return scipy.sparse.linalg.splu(A.tocsc(), permc_spec=spec, **options)
    except RuntimeError:  # "Factor is exactly singular"
        return None


def _refined(A, rhs):
    """The solution of A x = rhs from a complex64 factor of A in
    nested-dissection order, refined in complex128 to double accuracy.

    Mixed-precision iterative refinement, as LAPACK's zcgesv (Buttari et
    al., ACM TOMS 34(4), 2008): x = LU^-1 rhs, then r = rhs - A x with
    the complex128 A and x, and x += LU^-1 r, each LU^-1 in complex64,
    until ||r||_inf <= ||x||_inf ||A||_inf eps sqrt(n), eps the float64
    epsilon.  Returns (lu, x, residual, steps), the factor, the refined
    x, the residual `_accepted_residual` accepted it with and the
    correction steps taken; None when SuperLU finds the cast singular, a
    value is not finite, a step fails to halve ||r||_inf or
    _REFINE_MAX_STEPS steps do not meet the test.  The casts ignore
    overflow: an entry beyond complex64's range turns infinite, and the
    refinement gives up.  The complex64 copy of A is the one copy held
    while the factor runs; the factor stores half the bytes of a
    complex128 one.
    """
    with np.errstate(over="ignore"):
        lu = _factor(A.astype(np.complex64), "NESTED_DISSECTION")
    if lu is None:
        return None

    def correction(v):
        with np.errstate(over="ignore"):
            return lu.solve(v.astype(np.complex64)).astype(complex)

    tol = (scipy.sparse.linalg.norm(A, np.inf) * np.finfo(float).eps
           * math.sqrt(rhs.shape[0]))
    x, last, steps = correction(rhs), np.inf, 0
    while True:
        r = rhs - A @ x
        r_norm, x_norm = np.abs(r).max(), np.abs(x).max()
        if not (np.isfinite(r_norm) and np.isfinite(x_norm)):
            return None
        if r_norm <= x_norm * tol:
            break
        if r_norm > 0.5 * last or steps == _REFINE_MAX_STEPS:
            return None
        x, last, steps = x + correction(r), r_norm, steps + 1
    residual = _accepted_residual(A, x, rhs)
    return None if residual is None else (lu, x, residual, steps)


def _sparse_lu(A, rhs, ordering):
    """The sparse LU solution of A x = rhs.

    With 'NESTED_DISSECTION', the refined solution of a complex64 factor
    (`_refined`) is kept when it meets its test.  Otherwise the solution
    of a complex128 `_factor` in `ordering` is kept, with the residual
    that checked it, when `_accepted_residual` accepts it; otherwise, or
    with 'COLAMD', that of a COLAMD factor, and a singular A raises
    np.linalg.LinAlgError.  lu_nnz is `SuperLU.nnz` of the factor that
    produced x, the entries of L and U, zeros padded into supernodes
    included.
    """
    refined = _refined(A, rhs) if ordering == "NESTED_DISSECTION" else None
    lu, x, residual, steps = refined or (None, None, None, None)
    if residual is None and ordering != "COLAMD":
        lu = _factor(A, ordering)
        x = None if lu is None else lu.solve(rhs)
        residual = None if lu is None else _accepted_residual(A, x, rhs)
    if residual is None:
        ordering, lu = "COLAMD", _factor(A, "COLAMD")
        if lu is None:
            raise np.linalg.LinAlgError("the system matrix is singular")
        x = lu.solve(rhs)
        residual = _relative_residual(A, x, rhs)
    return SolveResult(x=x, residual=residual, strategy="sparse_lu",
                       ordering=ordering, lu_nnz=lu.nnz, refine_steps=steps)


def _inverse_norm_1(lu, n):
    """A lower estimate of ||A^-1||_1 from solves with the LU factors of
    A and of A^H: Hager's method with Higham's refinements, as in
    LAPACK's zlacn2.  It starts from x = (1/n, ..., 1/n), steps to the
    unit vector e_j of the largest |A^-H (y/|y|)|_j, y = A^-1 x, while the
    estimate grows, at most five times, and ends with the alternating
    vector x_i = (-1)^i (1 + i/(n-1)).  Each estimate is
    ||A^-1 x||_1 / ||x||_1 for some x, the largest is returned.  It uses
    no random numbers, so it is the same in every thread and leaves
    NumPy's global generator alone.
    """
    y = lu.solve(np.full(n, 1.0 / n, dtype=complex))
    est = np.abs(y).sum()
    if n == 1:
        return est
    j = -1
    for _ in range(5):
        size = np.abs(y)
        phases = np.divide(y, size, out=np.ones_like(y), where=size > 0.0)
        z = lu.solve(phases, trans="H")
        last, j = j, int(np.argmax(np.abs(z)))
        if j == last:
            break
        y = lu.solve(np.eye(1, n, j, dtype=complex)[0])
        norm = np.abs(y).sum()
        if not norm > est:
            break
        est = norm
    alt = (1.0 + np.arange(n) / (n - 1.0)) * (-1.0) ** np.arange(n)
    y = lu.solve(alt.astype(complex))
    return max(est, np.abs(y).sum() / np.abs(alt).sum())


def _truncated(A, rhs, svd_cutoff):
    """The minimum-norm least-squares solution of A x = rhs after zeroing
    singular values below svd_cutoff * sigma_max.

    A COLAMD LU solution is kept when it certifies that truncation would
    drop nothing: `_accepted_residual` accepts it and
    10 n kappa_1 < 1/svd_cutoff, where kappa_1 is the 1-norm condition
    number: ||A||_1 exactly times ||A^-1||_1 estimated through the LU
    factors (`_inverse_norm_1`).  Since kappa_2 <= n kappa_1, truncation
    would then drop no singular value, so the LU solution is the
    minimum-norm one; the factor 10 allows for the estimate falling short
    of kappa_1.  Else the dense SVD solves, with `cond_est` the estimate
    where one was made.
    """
    n = rhs.shape[0]
    lu = _factor(A, "COLAMD")
    x = None if lu is None else lu.solve(rhs)
    residual = None if lu is None else _accepted_residual(A, x, rhs)
    kappa = None
    if residual is not None:
        # an A^-1 near overflow reads as an infinite, failing estimate
        with np.errstate(over="ignore", invalid="ignore"):
            kappa = float(abs(A).sum(axis=0).max() * _inverse_norm_1(lu, n))
        if 10.0 * n * kappa < 1.0 / svd_cutoff:
            return SolveResult(x=x, residual=residual, strategy="sparse_lu",
                               cond_est=kappa, ordering="COLAMD",
                               lu_nnz=lu.nnz)
    u, s, vh = np.linalg.svd(_dense(A))
    keep = s > svd_cutoff * s[0]
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    x = vh.conj().T @ (inv * (u.conj().T @ rhs))
    return SolveResult(x=x, residual=_relative_residual(A, x, rhs),
                       strategy="truncated_svd",
                       svd_dropped=int(np.count_nonzero(~keep)),
                       cond_est=kappa)


def solve(system, svd_cutoff=None):
    """Solve the assembled system; returns its `SolveResult`.

    Without `svd_cutoff`, a sparse LU (`_sparse_lu`): in SuperLU's
    symmetric mode, on the free DOFs in the system's `order` when it has
    one (a conforming space on a large 2D mesh), cut and permuted by one
    `restrict` and factorized in complex64 with its solution refined to
    double accuracy (`_refined`), else in SuperLU's minimum degree
    ordering; systems whose
    meta['dim'] is 1 (`_space_system` sets it on every Galerkin and
    projection system) go to COLAMD directly.  With it, the truncated
    solve (`_truncated`), for numerically singular normal equations and
    Gram matrices of wave-based bases; its dense SVD refuses systems
    above _DENSE_LIMIT unknowns.  The DOFs the system fixes are zero in
    x, and a non-finite x raises np.linalg.LinAlgError.  The matrix may
    be given in any form scipy.sparse accepts.
    """
    index, ordering = system.free, None
    if svd_cutoff is None:
        # In 1D no ordering saves fill, and the roundoff-level errors of
        # the high-order 1D rows would move with any other factorization.
        ordering = "COLAMD" if system.meta.get("dim") == 1 else "MMD_AT_PLUS_A"
        if system.order is not None:
            ordering, index = "NESTED_DISSECTION", _free_in_order(system)
    A, rhs = _reduce(system, index)
    if ordering == "NESTED_DISSECTION":
        # SuperLU factorizes CSC: convert the permuted block once, so that
        # no CSR copy of it is held through the factorization
        A = A.tocsc()
    nred = rhs.shape[0]
    if A.shape != (nred, nred):
        raise ValueError("system matrix and right-hand side sizes disagree")
    result = (_sparse_lu(A, rhs, ordering) if svd_cutoff is None
              else _truncated(A, rhs, svd_cutoff))
    if not np.all(np.isfinite(result.x)):
        raise np.linalg.LinAlgError("solver produced non-finite values")
    if index is not None:
        full = np.zeros(system.ndof, dtype=complex)
        full[index] = result.x
        result = replace(result, x=full)
    return result


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
