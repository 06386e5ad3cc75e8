"""Discrete function spaces over interval and triangle meshes.

Four families are provided: the conforming hierarchical polynomial space
of elementwise degree p, the 1D nodally exact space whose shape functions
solve the homogeneous equation on each element, partition-of-unity spaces
with wave enrichment attached to mesh nodes, and discontinuous Trefftz
spaces carrying plane waves or generalized harmonic polynomials on each
element.

All spaces expose the same batched surface: `kind`, `mesh`, `ndof`,
`nloc`, `conforming`, `dof_matrix()` (global DOFs per element, shape
(n_elements, nloc)) and `eval_basis(elems, pts)`.  For an index array
`elems` of nb elements and per-element points `pts` of shape (nb, nq) in
1D or (nb, nq, 2) in 2D, basis values come back as (nb, nq, nloc) and
gradients as (nb, nq, nloc, dim); an int `elems` with points (nq,) or
(nq, 2) drops the leading axis.  On top of these, `element_matrices`
(local stiffness and mass) and `field` (values and gradients of a
discrete function) integrate a reference quadrature rule over a batch of
elements; the 2D polynomial space computes both by pulling reference
tables back through each element's Jacobian, the others from
`element_tables` (the mapped rule and `eval_basis` there), which a caller
needing both the tables and the matrices hands to `element_matrices`.
`element_batches` splits the mesh
into batches of at most `_BATCH_POINTS` points whose per-point basis
tables hold at most `_BATCH_ENTRIES` numbers.

Each space also owns the facts that depend on which space it is: its
`order` (the p reported with results: the degree, the number of plane
waves or of enrichment functions, the GHP dimension 2p+1), the reference
rules of its volume integrals (`volume_rule(k)`), of error integrals
(`error_rule(k)`) and of its edges (`edge_rule(k, length)`), and, for a
conforming space, the DOFs whose basis functions live on given mesh
edges (`boundary_dofs(edges)`).  `element_pattern` is the `BlockPattern`
of its element blocks: the CSR structure that assembly sums local
matrices into, built on first use and kept with the space, as are the
stiffness and mass data summed on it (`volume_data`).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import (_bessel_ladder_slabs, _expi, gauss_interval,
                       oscillatory_degree, quad_triangle)

_REF_GRAD_LAM = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
_LOCAL_EDGES = ((0, 1), (1, 2), (0, 2))

# Bounds on one element batch of every volume loop: the numbers held by
# its basis table or local matrices (16 MB as floats, 32 MB as complex),
# and its quadrature points.  The point bound keeps each per-point array
# of the error pass (values, gradients, exact solution, differences) at
# 1-2 MB: on the 192 x 192 square at p=1 one `relative_errors` call
# peaks at 12 MB of allocations, against 68 MB with batches bounded by
# table entries alone, and runs faster.
_BATCH_ENTRIES = 2_000_000
_BATCH_POINTS = 65_536


def _legendre_table(x, nmax):
    """Legendre polynomials P_0..P_nmax and first two derivatives at x.

    Returns three arrays of shape (nmax+1,) + x.shape, built from the
    three-term recurrence and its differentiated forms.
    """
    x = np.asarray(x, dtype=float)
    shape = (nmax + 1,) + x.shape
    vals = np.zeros(shape)
    der1 = np.zeros(shape)
    der2 = np.zeros(shape)
    vals[0] = 1.0
    if nmax >= 1:
        vals[1] = x
        der1[1] = 1.0
    for n in range(1, nmax):
        vals[n + 1] = ((2 * n + 1) * x * vals[n] - n * vals[n - 1]) / (n + 1)
        der1[n + 1] = ((2 * n + 1) * (vals[n] + x * der1[n]) - n * der1[n - 1]) / (n + 1)
        der2[n + 1] = ((2 * n + 1) * (2 * der1[n] + x * der2[n]) - n * der2[n - 1]) / (n + 1)
    return vals, der1, der2


def integrated_legendre(t, q):
    """Integrated Legendre function N_q(t) = (P_q - P_{q-2}) / sqrt(2(2q-1)).

    Vanishes at t = -1 and t = 1 for every q >= 2; these are the interior
    modes of the hierarchical 1D element and the edge traces in 2D.
    """
    if q < 2:
        raise ValueError("integrated Legendre modes start at q=2")
    vals, _, _ = _legendre_table(t, q)
    return (vals[q] - vals[q - 2]) / math.sqrt(2.0 * (2 * q - 1))


def _edge_kernel_coeff(q):
    # N_q(xi) = lam_a lam_b K_{q-2}(xi) on the edge, with
    # K_{q-2} = c_q P'_{q-1} and lam_a lam_b = (1 - xi^2)/4 there.
    return -2.0 * math.sqrt(2.0) * math.sqrt(2.0 * q - 1.0) / ((q - 1.0) * q)


def _h1_local_dim_2d(p):
    return 3 + 3 * (p - 1) + (p - 1) * (p - 2) // 2


def _lam(ref):
    """Barycentric coordinates of reference-triangle points (..., 2)."""
    return np.stack([1.0 - ref[..., 0] - ref[..., 1], ref[..., 0], ref[..., 1]],
                    axis=-1)


def _barycentric(mesh, elems, pts):
    """Barycentric coordinates (nb, nq, 3) of physical points and the
    constant barycentric gradients (nb, 3, 2) of each element."""
    inv_jt = mesh.inv_jacobians_t()[elems]
    v0 = mesh.nodes[mesh.elements[elems, 0]]
    ref = (pts - v0[:, None, :]) @ inv_jt
    return _lam(ref), _REF_GRAD_LAM @ inv_jt.transpose(0, 2, 1)


def _shape_functions_2d(p, lam, grad_lam):
    """Hierarchical triangle shape functions from barycentric data.

    `lam` has shape (nb, nq, 3) and `grad_lam` (nb, 3, 2) holds each
    element's constant barycentric gradients.  Edge modes follow the local
    vertex order; the caller applies the orientation signs.  All modes of
    one edge, and all bubbles, come from one broadcast each, with the
    operations of one mode in the order of a loop over the modes.
    """
    nb, nq = lam.shape[:2]
    nloc = _h1_local_dim_2d(p)
    vals = np.zeros((nb, nq, nloc))
    grads = np.zeros((nb, nq, nloc, 2))
    gl = grad_lam[:, None, :, :]
    vals[..., :3] = lam
    grads[..., :3, :] = gl
    pos = 3
    if p >= 2:
        coeff = np.array([_edge_kernel_coeff(q) for q in range(2, p + 1)])
        for a, b in _LOCAL_EDGES:
            xi = lam[..., b] - lam[..., a]
            _, der1, der2 = _legendre_table(xi, p - 1)
            prod = lam[..., a] * lam[..., b]
            dprod = lam[..., b, None] * gl[..., a, :] + lam[..., a, None] * gl[..., b, :]
            dxi = gl[..., b, :] - gl[..., a, :]
            # modes q = 2..p along a leading axis, kernels from P'_{q-1}
            kern = coeff[:, None, None] * der1[1:]
            dkern = coeff[:, None, None] * der2[1:]
            modes = slice(pos, pos + p - 1)
            vals[..., modes] = (prod * kern).transpose(1, 2, 0)
            grads[..., modes, :] = (dprod * kern[..., None]
                                    + (prod * dkern)[..., None] * dxi
                                    ).transpose(1, 2, 0, 3)
            pos += p - 1
    if p >= 3:
        eta1 = lam[..., 1] - lam[..., 0]
        eta2 = 2.0 * lam[..., 2] - 1.0
        p1, d1, _ = _legendre_table(eta1, p - 3)
        p2, d2, _ = _legendre_table(eta2, p - 3)
        bub = lam[..., 0] * lam[..., 1] * lam[..., 2]
        dbub = (
            (lam[..., 1] * lam[..., 2])[..., None] * gl[..., 0, :]
            + (lam[..., 0] * lam[..., 2])[..., None] * gl[..., 1, :]
            + (lam[..., 0] * lam[..., 1])[..., None] * gl[..., 2, :]
        )
        deta1 = gl[..., 1, :] - gl[..., 0, :]
        deta2 = 2.0 * gl[..., 2, :]
        # bubble (i, j) for i + j <= p - 3, j fastest, along a leading axis
        i, j = np.array([(i, j) for i in range(p - 2)
                         for j in range(p - 2 - i)]).T
        f = p1[i] * p2[j]
        df = ((d1[i] * p2[j])[..., None] * deta1
              + (p1[i] * d2[j])[..., None] * deta2)
        vals[..., pos:] = (bub * f).transpose(1, 2, 0)
        grads[..., pos:, :] = (dbub * f[..., None]
                               + bub[..., None] * df).transpose(1, 2, 0, 3)
    return vals, grads


def _reference_rule(dim, degree):
    """Rule exact to `degree` on the reference element: Gauss-Legendre on
    [0, 1] in 1D, the collapsed rule on the reference triangle in 2D."""
    if dim == 1:
        return gauss_interval(min(64, max(2, (degree + 1) // 2 + 1)))
    return quad_triangle(degree)


@dataclass(frozen=True)
class BlockPattern:
    """CSR structure of an n x n matrix summed from square blocks.

    A DOF array `dofs` (B, L) describes B blocks; entry (l, m) of block b
    lands at (dofs[b, l], dofs[b, m]).  `indptr` and `indices` are the
    CSR structure of the union of those keys, rows and columns sorted,
    and `slots[i][b, l, m]` is the data index of entry (l, m) of block b
    of the i-th DOF array given to `of`.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    slots: tuple

    @property
    def nnz(self):
        return len(self.indices)

    @classmethod
    def of(cls, n, blocks):
        """The pattern of the blocks of each DOF array in `blocks`, from
        one sort of their keys."""
        blocks = [np.asarray(d, dtype=np.int64) for d in blocks]
        keys = np.concatenate([(d[:, :, None] * n + d[:, None, :]).ravel()
                               for d in blocks])
        # np.unique(keys, return_inverse=True) on a stable argsort: half
        # np.unique's time for the 45 x 45 blocks of p = 8
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        unique = ordered[first]
        index = np.int32 if max(n, len(unique)) < 2**31 else np.int64
        inverse = np.empty(len(keys), dtype=index)
        inverse[order] = np.cumsum(first, dtype=index) - 1
        indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(np.bincount(unique // n, minlength=n), out=indptr[1:])
        ends = np.cumsum([d.size * d.shape[1] for d in blocks])
        parts = np.split(inverse, ends[:-1])
        slots = tuple(s.reshape(d.shape + d.shape[1:])
                      for s, d in zip(parts, blocks))
        return cls(n, indptr, (unique % n).astype(index), slots)


def _batched(eval_basis):
    """Let an int `elems` evaluate one element with unbatched shapes."""

    @functools.wraps(eval_basis)
    def wrapper(self, elems, pts):
        pts = np.asarray(pts, dtype=float)
        if np.ndim(elems) == 0:
            vals, grads = eval_basis(self, np.array([int(elems)]), pts[None])
            return vals[0], grads[0]
        return eval_basis(self, np.asarray(elems), pts)

    return wrapper


class _Space:
    """Element integrals shared by all spaces, built on `eval_basis`.

    The quadrature defaults are those of the wave-enriched spaces: their
    products of waves carry phases up to ~2k * diameter per element, so
    each rule grows linearly in k*h from a base degree and integrates
    them to near machine precision even on coarse meshes (kh ~ 4).
    """

    order = 1
    _volume_base = 6
    _edge_base = 4

    def _error_base(self):
        return 2 * min(self.nloc, 12) + 4

    def volume_rule(self, k):
        """Reference rule of the element matrices and loads at wavenumber k."""
        degree = oscillatory_degree(self._volume_base, k, self.mesh.h, 3.0, 12)
        return _reference_rule(self.mesh.dim, min(degree, 40))

    def error_rule(self, k):
        """Reference rule of error integrals: resolves both the discrete
        basis and the oscillation of the exact solution at wavenumber k."""
        degree = oscillatory_degree(self._error_base(), k, self.mesh.h, 3.0, 2)
        return _reference_rule(self.mesh.dim, min(degree, 40))

    def edge_rule(self, k, length):
        """Rule on [0, 1] resolving wave products on an edge of `length`."""
        return _reference_rule(
            1, oscillatory_degree(self._edge_base, k, length, 3.0, 8))

    def boundary_dofs(self, edges):
        """Sorted global DOFs of a conforming space whose basis functions
        do not vanish on the mesh edges `edges` (end nodes in 1D); here
        one DOF per node, numbered like the nodes."""
        return np.unique(self.mesh.edge_nodes[edges])

    def element_dofs(self, ei):
        return self.dof_matrix()[ei]

    @functools.cached_property
    def element_pattern(self):
        """`BlockPattern` of the element blocks, dof_matrix()[e] against
        itself for every element e; built on first use and kept."""
        return BlockPattern.of(self.ndof, [self.dof_matrix()])

    @functools.cached_property
    def volume_data(self):
        """The stiffness and mass data arrays on `element_pattern` that
        assembly sums with each volume rule, keyed by the rule's points
        and weights, never by k; filled on first use of a rule, read-only,
        and kept with the space."""
        return {}

    def element_batches(self, npts):
        """Element index arrays covering the mesh in order, sized so that
        a batch holds at most _BATCH_POINTS points at npts points per
        element, and its basis gradients there or its local matrices at
        most _BATCH_ENTRIES numbers; a batch has at least one element."""
        per_element = self.nloc * max(self.nloc, npts * self.mesh.dim)
        step = max(1, min(_BATCH_ENTRIES // per_element,
                          _BATCH_POINTS // npts))
        ne = self.mesh.n_elements
        for lo in range(0, ne, step):
            yield np.arange(lo, min(ne, lo + step))

    def element_tables(self, elems, rule):
        """The images (nb, nq[, 2]) of the reference `rule` points in each
        element, their weights (nb, nq), and the basis values and
        gradients there, as (pts, w, vals, grads)."""
        pts, w = self.mesh.map_rule(elems, rule)
        return (pts, w) + self.eval_basis(elems, pts)

    def element_matrices(self, elems, rule, tables=None):
        """Local stiffness and mass matrices, each (nb, nloc, nloc).

        Entry [e, l, m] integrates grad b_m . conj(grad b_l), resp.
        b_m conj(b_l), over element elems[e] with the reference `rule`.
        A caller that already holds `element_tables(elems, rule)` passes
        them as `tables`, so the basis is not evaluated again.  The
        weights go onto the conjugated factor before a two-operand
        contraction; that gives the bits of the three-operand contraction
        with the weights as a third operand (tests/test_spaces.py checks
        every space kind) in less time.
        """
        if tables is None:
            tables = self.element_tables(elems, rule)
        _, w, vals, grads = tables
        stiff = np.einsum("eqld,eqmd->elm", w[..., None, None] * np.conj(grads),
                          grads)
        mass = np.einsum("eql,eqm->elm", w[..., None] * np.conj(vals), vals)
        return stiff, mass

    def field(self, elems, coeffs, rule):
        """Values (nb, nq) and gradients (nb, nq, dim) of the discrete
        function with global coefficients `coeffs` at the images of the
        reference `rule` points."""
        _, _, vals, grads = self.element_tables(elems, rule)
        c = coeffs[self.dof_matrix()[elems]]
        u = np.matmul(vals.astype(complex, copy=False), c[:, :, None])[..., 0]
        # one gradient component at a time: no complex copy of the table
        g = np.stack([np.einsum("eql,el->eq", grads[..., d], c)
                      for d in range(grads.shape[-1])], axis=-1)
        return u, g


class H1Space(_Space):
    """Conforming hierarchical polynomial space of elementwise degree p.

    Vertex hat functions plus integrated-Legendre edge modes (degree 2..p)
    plus interior bubbles.  Edge-mode orientation is fixed by global node
    index order, so shared modes agree across neighboring elements.
    """

    kind = "h1_polynomial"
    conforming = True

    def __init__(self, mesh, p):
        self.mesh = mesh
        self.order = self.p = int(p)
        self._edge_base = 2 * self.p + 2
        if mesh.dim == 1:
            self.nloc = p + 1
            self.ndof = mesh.n_nodes + mesh.n_elements * (p - 1)
        else:
            self.nloc = _h1_local_dim_2d(p)
            n_edges = len(mesh.edge_nodes)
            n_bub = (p - 1) * (p - 2) // 2
            self.ndof = mesh.n_nodes + n_edges * (p - 1) + mesh.n_elements * n_bub
        self._dofs = None
        self._signs = None

    # -- connectivity ---------------------------------------------------

    def dof_matrix(self):
        """Global DOF indices per element, shape (n_elements, nloc).

        Numbering: vertices, then p-1 modes per mesh edge in edge order,
        then the bubbles of each element in element order.
        """
        if self._dofs is not None:
            return self._dofs
        mesh, p = self.mesh, self.p
        ne, nn = mesh.n_elements, mesh.n_nodes
        dofs = np.empty((ne, self.nloc), dtype=np.int64)
        if mesh.dim == 1:
            dofs[:, :2] = mesh.elements
            for q in range(2, p + 1):
                dofs[:, q] = nn + np.arange(ne) * (p - 1) + (q - 2)
        else:
            dofs[:, :3] = mesh.elements
            pos = 3
            for j in range(3):
                for q in range(2, p + 1):
                    dofs[:, pos] = nn + mesh.element_edges[:, j] * (p - 1) + (q - 2)
                    pos += 1
            n_bub = (p - 1) * (p - 2) // 2
            if n_bub:
                base = nn + len(mesh.edge_nodes) * (p - 1) + np.arange(ne) * n_bub
                for b in range(n_bub):
                    dofs[:, pos + b] = base + b
        self._dofs = dofs
        return dofs

    def orientation_signs(self):
        """Per-element mode signs, shape (n_elements, nloc).

        An edge mode of degree q picks up (-1)^q when the local traversal
        of the edge runs against the global index order.
        """
        if self._signs is not None:
            return self._signs
        mesh, p = self.mesh, self.p
        signs = np.ones((mesh.n_elements, self.nloc))
        if mesh.dim == 2 and p >= 2:
            pos = 3
            for a, b in _LOCAL_EDGES:
                reversed_ = mesh.elements[:, a] > mesh.elements[:, b]
                for q in range(2, p + 1):
                    if q % 2 == 1:
                        signs[reversed_, pos] = -1.0
                    pos += 1
        self._signs = signs
        return signs

    def boundary_dofs(self, edges):
        """The nodes of `edges` and, in 2D, their p-1 edge modes each."""
        nodes = super().boundary_dofs(edges)
        if self.mesh.dim == 1:
            return nodes
        modes = (self.mesh.n_nodes + np.asarray(edges)[:, None] * (self.p - 1)
                 + np.arange(self.p - 1))
        return np.union1d(nodes, modes)

    # -- quadrature ------------------------------------------------------

    def volume_rule(self, k):
        """Exact for the polynomial integrands of the element matrices."""
        return _reference_rule(self.mesh.dim, min(2 * self.p + 2, 40))

    def _error_base(self):
        return 2 * self.p + 4

    # -- evaluation ------------------------------------------------------

    @_batched
    def eval_basis(self, elems, pts):
        if self.mesh.dim == 1:
            return self._eval_basis_1d(elems, pts)
        lam, grad_lam = _barycentric(self.mesh, elems, pts)
        vals, grads = _shape_functions_2d(self.p, lam, grad_lam)
        signs = self.orientation_signs()[elems][:, None, :]
        return vals * signs, grads * signs[..., None]

    def _eval_basis_1d(self, elems, pts):
        mesh, p = self.mesh, self.p
        x0 = mesh.nodes[mesh.elements[elems, 0]][:, None]
        x1 = mesh.nodes[mesh.elements[elems, 1]][:, None]
        h = x1 - x0
        xi = (pts - x0) / h
        vals = np.zeros(pts.shape + (p + 1,))
        grads = np.zeros(pts.shape + (p + 1, 1))
        vals[..., 0] = 1.0 - xi
        vals[..., 1] = xi
        grads[..., 0, 0] = -1.0 / h
        grads[..., 1, 0] = 1.0 / h
        if p >= 2:
            t = 2.0 * xi - 1.0
            tab, der1, _ = _legendre_table(t, p)
            for q in range(2, p + 1):
                scale = math.sqrt(2.0 * (2 * q - 1))
                vals[..., q] = (tab[q] - tab[q - 2]) / scale
                grads[..., q, 0] = 2.0 / h * (der1[q] - der1[q - 2]) / scale
        return vals, grads

    def reference_tables(self, ref_pts):
        """Shape values and reference gradients at reference points.

        2D only: the returned gradients are with respect to reference
        coordinates for a canonically oriented element; `element_matrices`
        and `field` apply each element's Jacobian and `orientation_signs`.
        """
        if self.mesh.dim != 2 or np.shape(ref_pts)[-1] != 2:
            raise ValueError("reference tables are a 2D facility")
        vals, grads = _shape_functions_2d(self.p, _lam(ref_pts)[None],
                                          _REF_GRAD_LAM[None])
        return vals[0], grads[0]

    # The 2D element integrals pull one reference table back through each
    # element's affine map instead of evaluating the basis at physical
    # points (the shared _Space path): on a 2-CPU machine that path took
    # 3-9x longer for the element matrices and 1.2-4.6x longer for the
    # error sums, from p=1 at 73k elements to p=8 at 32 elements.  So the
    # 2D element matrices do not use `tables` (see _Space).

    def element_matrices(self, elems, rule, tables=None):
        if self.mesh.dim == 1:
            return super().element_matrices(elems, rule, tables)
        vals, grads = self.reference_tables(rule.points)
        w = rule.weights
        nl = self.nloc
        m_ref = np.einsum("q,ql,qm->lm", w, vals, vals)
        # the reference stiffness tensor as a (4, L^2) matrix, row 2r + s
        # holding the products of the r- and s-derivatives
        g_ref = np.einsum("q,qlr,qms->lrms", w, grads, grads)
        g_ref = g_ref.transpose(1, 3, 0, 2).reshape(4, nl * nl)
        inv_jt = self.mesh.inv_jacobians_t()[elems]
        det = 2.0 * self.mesh.areas()[elems]
        metric = np.einsum("edr,eds->ers", inv_jt, inv_jt).reshape(-1, 4)
        signs = self.orientation_signs()[elems]
        ss = signs[:, :, None] * signs[:, None, :]
        stiff = det[:, None, None] * (metric @ g_ref).reshape(-1, nl, nl)
        mass = det[:, None, None] * m_ref[None, :, :]
        return stiff * ss, mass * ss

    def field(self, elems, coeffs, rule):
        if self.mesh.dim == 1:
            return super().field(elems, coeffs, rule)
        vals, grads = self.reference_tables(rule.points)
        c = coeffs[self.dof_matrix()[elems]] * self.orientation_signs()[elems]
        nb, nq = len(elems), len(vals)
        u = c @ vals.T
        # grad u = invJt . sum_l c_l grad_ref b_l: fold each element's
        # inverse transposed Jacobian into its coefficients, (E, 2, 2L),
        # so that both physical components come from one (2E, 2L) @ (2L, Q)
        # product with the stacked reference gradient tables
        folded = self.mesh.inv_jacobians_t()[elems][..., None] * c[:, None, None]
        table = grads.transpose(2, 1, 0).reshape(2 * self.nloc, nq)
        g = (folded.reshape(2 * nb, 2 * self.nloc) @ table).reshape(nb, 2, nq)
        return u, g.transpose(0, 2, 1)


class NodallyExact1D(_Space):
    """1D space whose hat-like shape functions solve -u'' - k^2 u = 0.

    On each element the two shape functions are sin(k(x_r - x))/sin(k h)
    and sin(k(x - x_l))/sin(k h); they interpolate nodal values exactly
    and make the Galerkin solution of the model problem nodally exact.
    Requires kh < pi on every element so sin(kh) stays away from zero.
    """

    kind = "nodally_exact_1d"
    conforming = True
    _volume_base = 4  # one wave per element, of order 1

    def __init__(self, mesh, k):
        if mesh.dim != 1:
            raise ValueError("nodally exact space is one dimensional")
        self.mesh = mesh
        self.k = float(k)
        lengths = np.abs(np.diff(np.sort(mesh.nodes)))
        if np.max(self.k * lengths) >= math.pi:
            raise ValueError("nodally exact space requires k*h < pi per element")
        self.ndof = mesh.n_nodes
        self.nloc = 2

    def dof_matrix(self):
        return self.mesh.elements

    def _error_base(self):
        return 2 * self.order + 4  # as for the degree-1 polynomial space

    @_batched
    def eval_basis(self, elems, pts):
        mesh, k = self.mesh, self.k
        x0 = mesh.nodes[mesh.elements[elems, 0]][:, None]
        x1 = mesh.nodes[mesh.elements[elems, 1]][:, None]
        s = np.sin(k * (x1 - x0))
        vals = np.empty(pts.shape + (2,))
        grads = np.empty(pts.shape + (2, 1))
        vals[..., 0] = np.sin(k * (x1 - pts)) / s
        vals[..., 1] = np.sin(k * (pts - x0)) / s
        grads[..., 0, 0] = -k * np.cos(k * (x1 - pts)) / s
        grads[..., 1, 0] = k * np.cos(k * (pts - x0)) / s
        return vals, grads


# -- wave bases ----------------------------------------------------------


@dataclass(frozen=True)
class PlaneWaveBasis:
    """p plane waves of wavenumber k with equispaced directions."""

    k: float
    p: int

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("need at least one plane wave")

    @property
    def dim(self):
        return self.p

    @functools.cached_property
    def directions(self):
        """Unit directions (p, 2), built once per basis and read-only."""
        angles = 2.0 * math.pi * np.arange(self.p) / self.p
        d = np.column_stack([np.cos(angles), np.sin(angles)])
        d.flags.writeable = False
        return d

    def eval(self, y):
        """Values (..., p) and gradients (..., p, 2) of e^{ik w_n . y} at
        displacements y of any leading shape (..., 2)."""
        y = np.asarray(y, dtype=float)
        d = self.directions
        phase = _expi(self.k * (y @ d.T))
        grads = 1j * self.k * phase[..., None] * d
        return phase, grads


@dataclass(frozen=True)
class GhpBasis:
    """Generalized harmonic polynomials J_|n|(kr) e^{i n phi}, |n| <= p."""

    k: float
    p: int

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("maximal mode order must be nonnegative")

    @property
    def dim(self):
        return 2 * self.p + 1

    @property
    def modes(self):
        return np.arange(-self.p, self.p + 1)

    def eval(self, y):
        """Values and gradients of the circular wave modes at displacements y.

        y has shape (..., nq, 2); values come back as (..., nq, dim) and
        gradients as (..., nq, dim, 2).  J_0..J_{p+1} come from one
        bessel_j call over every point with kr <= 9 of every (nq, 2) slab;
        only the points with kr > 9 are evaluated per slab, because the
        recurrence starts from the largest such argument of a call.  Each
        slab keeps the values of a bessel_j call on that slab alone.

        The radial derivative uses J'_n = (J_{n-1} - J_{n+1})/2; at the
        center the values reduce to the n=0 Kronecker limit and only the
        |n| = 1 modes carry a nonzero gradient, (k/2)(1, i sign n).
        """
        y = np.asarray(y, dtype=float)
        lead = y.shape[:-1]
        y = y.reshape((-1,) + y.shape[-2:])
        k, p = self.k, self.p
        r = np.hypot(y[..., 0], y[..., 1])
        phi = np.arctan2(y[..., 1], y[..., 0])
        origin = r < 1e-13
        r_safe = np.where(origin, 1.0, r)
        # J_0 .. J_{p+1} at kr, plus J_{-1} = -J_1 for the n=0 derivative
        jn = np.moveaxis(_bessel_ladder_slabs(np.arange(p + 2), k * r_safe),
                         0, -1)
        n = self.modes
        m = np.abs(n)
        jm = jn[..., m]
        lower = jn[..., np.maximum(m - 1, 0)]
        lower[..., p] = -jn[..., 1]
        ang = np.exp(1j * n * phi[..., None])
        dj = 0.5 * (lower - jn[..., m + 1])
        dr = k * dj * ang
        dphi_over_r = 1j * n * jm * ang / r_safe[..., None]
        vals = jm * ang
        cos_phi, sin_phi = np.cos(phi)[..., None], np.sin(phi)[..., None]
        grads = np.stack([cos_phi * dr - sin_phi * dphi_over_r,
                          sin_phi * dr + cos_phi * dphi_over_r], axis=-1)
        if np.any(origin):
            vals[origin] = np.where(n == 0, 1.0, 0.0)
            grads[origin] = np.stack(
                [np.where(m == 1, 0.5 * k, 0.0),
                 np.where(m == 1, 0.5j * k * np.sign(n), 0.0)], axis=-1)
        return (vals.reshape(lead + (self.dim,)),
                grads.reshape(lead + (self.dim, 2)))


class PumSpace(_Space):
    """Partition-of-unity space: hat functions times shifted wave enrichment.

    Global basis functions are phi_i(x) * b_m(x - x_i) for every mesh node
    x_i and enrichment function b_m, giving ndof = n_nodes * enrichment dim.
    Conforming because the hats are.
    """

    kind = "pum"
    conforming = True

    def __init__(self, mesh, k, enrichment):
        if mesh.dim != 2:
            raise ValueError("partition-of-unity space needs a 2D mesh")
        if enrichment.dim < 2:
            raise ValueError("enrichment must have dimension at least 2")
        if abs(enrichment.k - float(k)) > 1e-12 * max(1.0, abs(k)):
            raise ValueError("enrichment wavenumber differs from the space's k")
        self.mesh = mesh
        self.k = float(k)
        self.enrichment = enrichment
        self.order = enrichment.dim
        self.nloc = 3 * enrichment.dim
        self.ndof = mesh.n_nodes * enrichment.dim

    def dof_matrix(self):
        m = self.enrichment.dim
        verts = self.mesh.elements
        return (verts[:, :, None] * m + np.arange(m)).reshape(len(verts), -1)

    def boundary_dofs(self, edges):
        """Every enrichment DOF of the nodes of `edges`."""
        m = self.enrichment.dim
        return (super().boundary_dofs(edges)[:, None] * m
                + np.arange(m)).ravel()

    @_batched
    def eval_basis(self, elems, pts):
        mesh = self.mesh
        m = self.enrichment.dim
        verts = mesh.elements[elems]
        lam, grad_lam = _barycentric(mesh, elems, pts)
        vals = np.empty(pts.shape[:2] + (self.nloc,), dtype=complex)
        grads = np.empty(pts.shape[:2] + (self.nloc, 2), dtype=complex)
        for v in range(3):
            bvals, bgrads = self.enrichment.eval(
                pts - mesh.nodes[verts[:, v]][:, None, :])
            sl = slice(v * m, (v + 1) * m)
            vals[..., sl] = lam[..., v, None] * bvals
            grads[..., sl, :] = (bvals[..., None] * grad_lam[:, None, None, v, :]
                                 + lam[..., v, None, None] * bgrads)
        return vals, grads


class TrefftzSpace(_Space):
    """Discontinuous space with an independent wave basis per element.

    Each element carries a copy of the local basis centered at its
    centroid, which keeps phases and Bessel arguments small.
    """

    conforming = False

    def __init__(self, mesh, k, local):
        if mesh.dim != 2:
            raise ValueError("Trefftz spaces need a 2D mesh")
        if abs(local.k - float(k)) > 1e-12 * max(1.0, abs(k)):
            raise ValueError("local basis wavenumber differs from the space's k")
        self.mesh = mesh
        self.k = float(k)
        self.local = local
        self.kind = (
            "trefftz_pw" if isinstance(local, PlaneWaveBasis) else "trefftz_ghp"
        )
        self.order = self.nloc = local.dim
        self.ndof = mesh.n_elements * local.dim

    def dof_matrix(self):
        return np.arange(self.ndof).reshape(self.mesh.n_elements, self.nloc)

    @_batched
    def eval_basis(self, elems, pts):
        return self.local.eval(pts - self.mesh.centroids()[elems][:, None, :])


# -- factories -----------------------------------------------------------


def h1_space(mesh, p):
    """Conforming degree-p space; p <= 4 in 1D, p <= 10 in 2D."""
    p = int(p)
    cap = 4 if mesh.dim == 1 else 10
    if p < 1 or p > cap:
        raise ValueError(f"degree p={p} unsupported in {mesh.dim}D (1..{cap})")
    return H1Space(mesh, p)


def nodally_exact_space_1d(mesh, k):
    return NodallyExact1D(mesh, k)


def pum_space(mesh, k, enrichment):
    return PumSpace(mesh, k, enrichment)


def trefftz_space(mesh, k, local):
    return TrefftzSpace(mesh, k, local)


def evaluate(space, coeffs, point, element_hint):
    """Value and gradient of a discrete function at one point.

    The point must lie inside (or on the boundary of) the hinted element.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.shape[0] != space.ndof:
        raise ValueError("coefficient vector length does not match space")
    point = np.asarray(point, dtype=float)
    mesh = space.mesh
    ei = int(element_hint)
    tol = 1e-10
    if mesh.dim == 1:
        pts = np.atleast_1d(point.ravel()[0] if point.ndim else float(point))
        n0, n1 = mesh.elements[ei]
        x0, x1 = mesh.nodes[n0], mesh.nodes[n1]
        slack = tol * (x1 - x0)
        if not (x0 - slack <= pts[0] <= x1 + slack):
            raise ValueError("point lies outside the hinted element")
    else:
        pts = point.reshape(1, 2)
        lam, _ = _barycentric(mesh, np.array([ei]), pts[None])
        if np.min(lam) < -tol:
            raise ValueError("point lies outside the hinted element")
    vals, grads = space.eval_basis(ei, pts)
    c = coeffs[space.element_dofs(ei)]
    value = vals[0] @ c
    gradient = c @ grads[0]
    return value, gradient


def near_unity_element(enrichment):
    """Coefficients making the enrichment reproduce 1 to second order.

    Returns c with sum_m c_m b_m(y) = 1 + O((k|y|)^2) near y = 0.  For GHP
    this is the J_0 mode alone; for plane waves the construction pairs
    opposite (even p) or nearly opposite (odd p) directions to cancel the
    first-order phase.
    """
    if isinstance(enrichment, GhpBasis):
        c = np.zeros(enrichment.dim)
        c[enrichment.p] = 1.0  # the n = 0 mode
        return c
    p = enrichment.p
    if p < 2:
        raise ValueError("near-unity construction needs p >= 2 plane waves")
    c = np.zeros(p)
    if p % 2 == 0:
        c[0] = 0.5
        c[p // 2] = 0.5
    else:
        m = (p - 1) // 2
        gamma = math.cos(math.pi / p)
        c[0] = gamma / (1.0 + gamma)
        c[m] = c[m + 1] = 0.5 / (1.0 + gamma)
    return c


def near_unity_deficit(space, samples_per_elem=10, rng=None):
    """Max deviation of the near-unity PUM function from 1 over the mesh.

    Builds the global function sum_i phi_i(x) psi(x - x_i) with the
    coefficients from `near_unity_element` and samples it at random
    interior points of every element.
    """
    if space.kind != "pum":
        raise ValueError("near-unity deficit is a PUM diagnostic")
    c = near_unity_element(space.enrichment)
    coeffs = np.tile(c, space.mesh.n_nodes).astype(complex)
    mesh = space.mesh
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for elems in space.element_batches(samples_per_elem):
        bary = rng.dirichlet(np.ones(3), size=(len(elems), samples_per_elem))
        pts = bary @ mesh.nodes[mesh.elements[elems]]
        vals, _ = space.eval_basis(elems, pts)
        psi = np.einsum("eql,el->eq", vals, coeffs[space.dof_matrix()[elems]])
        worst = max(worst, float(np.max(np.abs(1.0 - psi))))
    return worst
