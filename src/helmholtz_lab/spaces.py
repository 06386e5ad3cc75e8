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
elements.  Where each space evaluates its basis for them: the 2D
polynomial space evaluates it once per rule on the reference triangle
and pulls those tables back through each element's Jacobian; a Trefftz
space's `field` evaluates its local basis once per distinct Jacobian
(element shape) of the batch, at y = J (xi - xi_c), because a basis
centred at the centroid sees the element only through J; every other
integral (the 1D spaces, PUM, the Trefftz element matrices and loads)
takes `element_tables`: `eval_basis` at each element's images of the
rule points (`Mesh.map_rule`), which a caller needing both the tables
and the matrices hands to `element_matrices`.
`element_batches` splits the mesh into batches of at most
`_BATCH_POINTS` (16,384) points, which keeps the per-point arrays of the
error pass near one core's L2 cache, and whose per-point basis tables
hold at most `_BATCH_ENTRIES` numbers.  `field` returns new arrays,
which the caller owns and may overwrite.  Edge integrals have the same
facility on a 2D mesh: `edge_batches` groups edges by their edge
rule into batches bounded by `_BATCH_ENTRIES`, `edge_tables` gives the
edge points (`Mesh.edge_points`) and both sides' basis values and
plus-normal derivatives there, and `edge_field` those of a discrete
function, for every skeleton form, norm and check.

Each space also owns the facts that depend on which space it is: its
`order` (the p reported with results: the degree, the number of plane
waves or of enrichment functions, the GHP dimension 2p+1), the reference
rules of its volume integrals (`volume_rule(k)`), of error integrals
(`error_rule(k)`) and of its edges (`edge_rule(k, length)`), and, for a
conforming space, the DOFs whose basis functions live on given mesh
edges (`boundary_dofs(edges)`).  `element_pattern` is the `BlockPattern`
of its element blocks: the CSR structure that assembly sums local
matrices into, built on first use and kept with the space, as are the
stiffness and mass data summed on it (`volume_data`) and, for a
conforming space on a large 2D mesh, the nested-dissection order in
which `assembly.solve` eliminates its DOFs (`elimination_order`).
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
# and its quadrature points.  The point bound keeps the per-point arrays
# of the error pass (points, weights, exact and discrete values and
# gradients: about 175 B a point) near the 2 MB L2 cache of one core of
# the 2-CPU machine measured: on the 192 x 192 square at p=1 one
# `relative_errors` call peaks at 2.9 MB of allocations (11.5 MB with
# 65,536 points a batch, 68 MB with batches bounded by table entries
# alone).  The six error passes of perfbench's `fem2d_h` alone, best of
# 10 interleaved rounds, one BLAS thread: 0.357 s at 65,536 points,
# 0.324 at 32,768, 0.322 at 24,576, 0.321 at 16,384, 0.326 at 12,288
# and 0.333 at 8,192; 0.436 s at 65,536 for a pass that also allocated
# two difference buffers and evaluated the reference tables per batch.
_BATCH_ENTRIES = 2_000_000
_BATCH_POINTS = 16_384

# Fewest elements of a 2D mesh on which a conforming space has an
# `elimination_order`.  Measured against SuperLU's minimum degree ordering
# on the square, the L-shape and a graded L-shape (table in CHANGES.md):
# from about 1000 elements the nested dissection stores 5-17% less LU
# fill at every p >= 2, and at p = 1 up to 12% more, which costs under
# 1 ms there; below about 600 elements it stores as much or more at
# p >= 4, and up to 28% more at p = 1.
_ND_MIN_ELEMENTS = 1024

# (shift, mask) of the five steps that spread the low 32 bits of an
# integer onto the even bits of 64
_MORTON_SPREAD = ((16, 0x0000FFFF0000FFFF), (8, 0x00FF00FF00FF00FF),
                  (4, 0x0F0F0F0F0F0F0F0F), (2, 0x3333333333333333),
                  (1, 0x5555555555555555))


def _legendre_table(x, nmax, second=False):
    """Legendre polynomials P_0..P_nmax and their first derivatives at x,
    and with `second` their second derivatives.

    Returns (vals, der1, der2), arrays of shape (nmax+1,) + x.shape built
    in place from the three-term recurrence and its differentiated forms,
    each row with the operations of its formula in their order; der2 is
    None without `second`.
    """
    x = np.asarray(x, dtype=float)
    flat = x.reshape(-1)
    vals = np.zeros((nmax + 1, flat.size))
    der1 = np.zeros_like(vals)
    der2 = np.zeros_like(vals) if second else None
    tmp = np.empty_like(flat)
    vals[0] = 1.0
    if nmax >= 1:
        vals[1] = flat
        der1[1] = 1.0
    for n in range(1, nmax):
        row = np.multiply(flat, 2 * n + 1, out=vals[n + 1])
        row *= vals[n]
        row -= np.multiply(vals[n - 1], n, out=tmp)
        row /= n + 1
        row = np.multiply(flat, der1[n], out=der1[n + 1])
        row += vals[n]
        row *= 2 * n + 1
        row -= np.multiply(der1[n - 1], n, out=tmp)
        row /= n + 1
        if second:
            row = np.multiply(flat, der2[n], out=der2[n + 1])
            row += np.multiply(der1[n], 2, out=tmp)
            row *= 2 * n + 1
            row -= np.multiply(der2[n - 1], n, out=tmp)
            row /= n + 1
    shape = (nmax + 1,) + x.shape
    return (vals.reshape(shape), der1.reshape(shape),
            None if der2 is None else der2.reshape(shape))


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
    vertex order; the caller applies the orientation signs.  The modes of
    all three edges come from one broadcast, and all bubbles from
    another, with the operations of one mode in the order of a loop over
    the edges and modes.  They are computed mode-major, values (L, nb, nq)
    and gradients (L, 2, nb, nq), so that every operation runs along the
    points, and transposed once at the end.
    """
    nb, nq = lam.shape[:2]
    nloc = _h1_local_dim_2d(p)
    vals = np.empty((nloc, nb, nq))
    grads = np.empty((nloc, 2, nb, nq))
    lam = np.ascontiguousarray(lam.transpose(2, 0, 1))
    gl = grad_lam.transpose(1, 2, 0)[..., None]  # (3, 2, nb, 1)
    vals[:3] = lam
    grads[:3] = gl
    end = 3 + 3 * (p - 1)
    if p >= 2:
        # edges (a, b) first, then the modes q = 2..p, with kernels from
        # P'_{q-1}
        a, b = np.array(_LOCAL_EDGES).T
        _, kern, dkern = _legendre_table(lam[b] - lam[a], p - 1, second=True)
        coeff = np.array([_edge_kernel_coeff(q)
                          for q in range(2, p + 1)])[:, None, None, None]
        kern = (kern[1:] * coeff).transpose(1, 0, 2, 3)
        dkern = (dkern[1:] * coeff).transpose(1, 0, 2, 3)
        prod = (lam[a] * lam[b])[:, None]
        dprod = lam[b][:, None] * gl[a] + lam[a][:, None] * gl[b]
        edge_vals = vals[3:end].reshape(3, p - 1, nb, nq)
        edge_grads = grads[3:end].reshape(3, p - 1, 2, nb, nq)
        np.multiply(prod, kern, out=edge_vals)
        np.multiply(dprod[:, None], kern[:, :, None], out=edge_grads)
        dkern *= prod
        edge_grads += dkern[:, :, None] * (gl[b] - gl[a])[:, None]
    if p >= 3:
        tab, der, _ = _legendre_table(
            np.stack([lam[1] - lam[0], 2.0 * lam[2] - 1.0]), p - 3)
        bub = lam[0] * lam[1] * lam[2]
        dbub = ((lam[1] * lam[2]) * gl[0] + (lam[0] * lam[2]) * gl[1]
                + (lam[0] * lam[1]) * gl[2])
        deta1 = gl[1] - gl[0]
        deta2 = 2.0 * gl[2]
        # bubble (i, j) for i + j <= p - 3, j fastest
        i, j = np.array([(i, j) for i in range(p - 2)
                         for j in range(p - 2 - i)]).T
        p1, p2 = tab[i, 0], tab[j, 1]
        f = p1 * p2
        np.multiply(bub, f, out=vals[end:])
        bubble_grads = np.multiply(dbub, f[:, None], out=grads[end:])
        df = (der[i, 0] * p2)[:, None] * deta1
        df += (p1 * der[j, 1])[:, None] * deta2
        df *= bub
        bubble_grads += df
    return (np.ascontiguousarray(vals.transpose(1, 2, 0)),
            np.ascontiguousarray(grads.transpose(2, 3, 0, 1)))


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


def _morton_keys(x, y):
    """Z-order keys (n,) of the points (x, y), two arrays (n,): both
    coordinates quantized to 31 bits on the points' bounding square, the
    bits of x on the even and those of y on the odd positions."""
    lo = (x.min(), y.min())
    extent = max(x.max() - lo[0], y.max() - lo[1]) or 1.0
    keys = np.zeros(len(x), dtype=np.uint64)
    for bit, (coord, low) in enumerate(zip((x, y), lo)):
        q = ((coord - low) * ((2**31 - 1) / extent)).astype(np.uint64)
        for shift, mask in _MORTON_SPREAD:
            q |= q << np.uint64(shift)
            q &= np.uint64(mask)
        keys |= q << np.uint64(bit)
    return keys


def _flat(pts):
    """Batched points (nb, nq[, 2]) as the (n,) or (n, 2) array that
    point callbacks take."""
    return pts.reshape((-1,) + pts.shape[2:])


def _point_values(fn, pts):
    """Complex values (nb, nq) of a point callback at batched points
    (nb, nq[, 2]), element or edge points alike."""
    return np.asarray(fn(_flat(pts)), dtype=complex).reshape(pts.shape[:2])


def _point_fields(fn, pts):
    """Complex values (nb, nq) and gradients (nb, nq, dim) of a (values,
    gradients) point callback at batched points (nb, nq[, 2]); in 1D the
    callback may give its gradients as (n,) or (n, 1)."""
    u, g = fn(_flat(pts))
    shape = pts.shape[:2]
    return (np.asarray(u, dtype=complex).reshape(shape),
            np.asarray(g, dtype=complex).reshape(shape + (-1,)))


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


def _contract(vals, grads, c):
    """Values (nb, nq) and gradients (nb, nq, dim) of the functions with
    local coefficients c (nb, nloc) from per-element basis tables."""
    u = np.matmul(vals.astype(complex, copy=False), c[:, :, None])[..., 0]
    # one gradient component at a time: no complex copy of the table
    g = np.stack([np.einsum("eql,el->eq", grads[..., d], c)
                  for d in range(grads.shape[-1])], axis=-1)
    return u, g


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

    @functools.cached_property
    def elimination_order(self):
        """A nested-dissection elimination order of the DOFs (a
        permutation, first eliminated first) for `assembly.solve`, or None.

        Only a conforming space on a 2D mesh of at least _ND_MIN_ELEMENTS
        elements has one.  The dissection is element based (George, SIAM
        J. Numer. Anal. 10, 1973) on the binary tree of the elements'
        Z-order keys, those of the lower corners of their bounding boxes:
        each node halves its square in y or x in turn, as a quadtree, and
        the elements of one key share a leaf.  A DOF belongs to the
        deepest node whose subtree holds all its elements, the common
        prefix of their least and greatest key: it separates that node's
        halves, and the DOFs of one element only (its bubbles, those on a
        boundary edge) belong to its leaf.  Lower corners keep the
        separators thin: on a structured mesh both triangles of a cell
        share a key, so every cut runs along mesh lines.  The DOFs are
        ordered by their node in post-order, both halves before their
        separator, then by the number of elements they touch, then by
        index.  Independent of k; built on first use and kept.
        """
        mesh = self.mesh
        if (not self.conforming or mesh.dim != 2
                or mesh.n_elements < _ND_MIN_ELEMENTS):
            return None
        corners = []
        for coord in mesh.nodes.T:
            coord = np.ascontiguousarray(coord)
            low = coord[mesh.elements[:, 0]]
            for j in (1, 2):
                np.minimum(low, coord[mesh.elements[:, j]], out=low)
            corners.append(low)
        leaves = np.repeat(_morton_keys(*corners), self.nloc)
        dofs = self.dof_matrix().ravel()
        first = np.full(self.ndof, np.iinfo(np.uint64).max, dtype=np.uint64)
        last = np.zeros(self.ndof, dtype=np.uint64)
        np.minimum.at(first, dofs, leaves)
        np.maximum.at(last, dofs, leaves)
        # the key bits below the common prefix, all set: the node's
        # subtree runs from `first` with them cleared to `first | below`
        below = first ^ last
        for shift in (1, 2, 4, 8, 16, 32):
            below |= below >> np.uint64(shift)
        touching = np.bincount(dofs, minlength=self.ndof)
        # post-order: by the last key of the node's subtree, then deeper
        # nodes (fewer bits below) first
        return np.lexsort((touching, below, first | below))

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
        weights go onto the conjugated factor.  On a 2D mesh each local
        matrix is one GEMM per element of a batched matmul: stiffness
        (E, L, 2Q) @ (E, 2Q, L), the gradient components stacked under
        the points and the weights repeated per component, and mass
        (E, L, Q) @ (E, Q, L).  An element's bits do not depend on the
        batch it is in; they agree with the three-operand contraction to
        roundoff, not bit for bit.
        """
        if tables is None:
            tables = self.element_tables(elems, rule)
        _, w, vals, grads = tables
        if self.mesh.dim == 1:
            # The einsum keeps the bits of the three-operand contraction
            # on the 1D shared spaces (the H1 space, the nodally exact
            # one).  The fig1 k=1, p=4 rows sit on their roundoff floor,
            # and the GEMM moved three of them beyond perfbench's 1e-6
            # relative check (n=192: 2.5e-13 to 1.5e-12).  This branch
            # goes when that check gets absolute floors (ROADMAP item 4).
            return (np.einsum("eqld,eqmd->elm",
                              w[..., None, None] * np.conj(grads), grads),
                    np.einsum("eql,eqm->elm", w[..., None] * np.conj(vals),
                              vals))
        nb, nq, nl = vals.shape
        # (E, 2Q, L), row 2q + d holding the d-derivatives at point q,
        # and its weighted conjugate: the two table-sized temporaries
        g = grads.transpose(0, 1, 3, 2).reshape(nb, 2 * nq, nl)
        wg = np.conj(g)
        wg *= np.repeat(w, 2, axis=1)[..., None]
        stiff = np.matmul(wg.transpose(0, 2, 1), g)
        del g, wg
        wv = np.conj(vals)
        wv *= w[..., None]
        return stiff, np.matmul(wv.transpose(0, 2, 1), vals)

    def field(self, elems, coeffs, rule):
        """Values (nb, nq) and gradients (nb, nq, dim) of the discrete
        function with global coefficients `coeffs` at the images of the
        reference `rule` points, as new C-ordered arrays that the caller
        may overwrite."""
        _, _, vals, grads = self.element_tables(elems, rule)
        return _contract(vals, grads, coeffs[self.dof_matrix()[elems]])

    def edge_batches(self, k, edges):
        """The 2D mesh edges `edges` grouped by `edge_rule`, in batches.

        Yields (batch, t, ds): an index array of edges sharing one rule,
        that rule's points t on [0, 1] and the physical weights ds (E, Q).
        Batches are sized so that both sides' basis gradients or a local
        matrix of the two sides hold at most _BATCH_ENTRIES numbers.
        """
        mesh = self.mesh
        edges = np.asarray(edges, dtype=np.int64)
        lengths = mesh.edge_lengths[edges]
        unique, inverse = np.unique(lengths, return_inverse=True)
        rules = [self.edge_rule(k, h) for h in unique]
        npts = np.array([len(r.weights) for r in rules], dtype=np.int64)[inverse]
        for nq in np.unique(npts):
            rule = rules[inverse[np.argmax(npts == nq)]]
            t, w = rule.points, rule.weights
            members = edges[npts == nq]
            per_edge = 2 * self.nloc * max(2 * self.nloc, nq * mesh.dim)
            step = max(1, _BATCH_ENTRIES // per_edge)
            for lo in range(0, len(members), step):
                batch = members[lo:lo + step]
                yield batch, t, mesh.edge_lengths[batch][:, None] * w

    def edge_tables(self, edges, t):
        """Basis traces on both sides of a batch of 2D mesh edges, all
        interior or all on the boundary (a mixed batch raises ValueError).

        Returns the points (E, Q, 2) at the parameters t along each edge
        (`Mesh.edge_points`) and, for the plus side and, on interior
        edges, the minus side, a tuple of the side's DOFs (E, L), basis
        values (E, Q, L) and derivatives along the plus normal (E, Q, L).
        """
        mesh = self.mesh
        on_boundary = mesh.boundary_mask[edges]
        if np.any(on_boundary) and not np.all(on_boundary):
            raise ValueError("an edge batch mixes interior and boundary "
                             "edges; pass each kind in its own batch")
        pts = mesh.edge_points(edges, t)
        normals = mesh.edge_normals[edges][:, None, :, None]
        sides = []
        for elems in mesh.edge_elems[edges].T:
            if elems[0] < 0:
                break
            vals, grads = self.eval_basis(elems, pts)
            sides.append((self.dof_matrix()[elems], vals,
                          (grads @ normals)[..., 0]))
        return pts, sides

    def edge_field(self, edges, coeffs, t):
        """The points (E, Q, 2) of `edge_tables` and, per side, the values
        and plus-normal derivatives (E, Q) there of the discrete function
        with global coefficients `coeffs`."""
        pts, sides = self.edge_tables(edges, t)
        fields = [(np.einsum("eql,el->eq", vals, coeffs[dofs]),
                   np.einsum("eql,el->eq", dn, coeffs[dofs]))
                  for dofs, vals, dn in sides]
        return pts, fields


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
        self.order = self.p = p = int(p)
        self._edge_base = 2 * p + 2
        ne = mesh.n_elements
        if mesh.dim == 1:
            element_edges = np.empty((ne, 0), dtype=np.int64)
            edge_modes, interior_modes = 0, p - 1
        else:
            element_edges = mesh.element_edges
            edge_modes, interior_modes = p - 1, (p - 1) * (p - 2) // 2
        # The DOF layout: per kind of mesh entity, the entities of each
        # element (ne, m), the modes of one entity and the first global
        # DOF of the kind.  The vertices come first, one DOF each, then
        # p - 1 modes per triangle edge in edge order, then the modes
        # inside each element (the interval's p - 1 live there).
        self._layout = []
        offset = 0
        for entities, count, modes in (
                (mesh.elements, mesh.n_nodes, 1),
                (element_edges, len(mesh.edge_nodes), edge_modes),
                (np.arange(ne)[:, None], ne, interior_modes)):
            self._layout.append((entities, modes, offset))
            offset += count * modes
        self.ndof = offset
        self.nloc = sum(e.shape[1] * modes for e, modes, _ in self._layout)

    # -- connectivity ---------------------------------------------------

    def dof_matrix(self):
        """Global DOF indices per element, shape (n_elements, nloc), in
        the order of the layout: vertices, edge modes, interior modes."""
        return self._dofs

    @functools.cached_property
    def _dofs(self):
        ne = self.mesh.n_elements
        return np.concatenate(
            [(offset + entities[:, :, None] * modes
              + np.arange(modes)).reshape(ne, -1)
             for entities, modes, offset in self._layout], axis=1)

    def orientation_signs(self):
        """Per-element mode signs, shape (n_elements, nloc).

        An edge mode of degree q picks up (-1)^q when the local traversal
        of the edge runs against the global index order.
        """
        return self._signs

    @functools.cached_property
    def _signs(self):
        mesh, ne = self.mesh, self.mesh.n_elements
        signs = np.ones((ne, self.nloc))
        if mesh.dim == 2:
            a, b = np.transpose(_LOCAL_EDGES)
            against = mesh.elements[:, a] > mesh.elements[:, b]
            odd = np.arange(2, self.p + 1) % 2 == 1
            flips = (against[:, :, None] & odd).reshape(ne, -1)
            signs[:, 3:3 + flips.shape[1]] = np.where(flips, -1.0, 1.0)
        return signs

    def boundary_dofs(self, edges):
        """The nodes of `edges` and, in 2D, their p-1 edge modes each."""
        edges = np.asarray(edges, dtype=np.int64)
        _, modes, offset = self._layout[1]
        return np.unique(np.concatenate([
            self.mesh.edge_nodes[edges].ravel(),
            (offset + edges[:, None] * modes + np.arange(modes)).ravel()]))

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
        vals *= signs
        grads *= signs[..., None]
        return vals, grads

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
    # points (the shared _Space path): on a 2-CPU machine that path, with
    # its batched GEMMs, took 4-18x longer for the element matrices
    # (p=1 at 73k elements 5x, p=2 at 8k 14x, p=4 at 512 18x, p=8 at 32
    # 4x) and 2.5-33x longer for the error sums at k=40 (p=1 at 73k
    # elements 2.5-2.7x, p=2 at 8k 6.2x, p=4 at 512 13x, p=8 at 32
    # 26-33x; best of 5, one BLAS thread).  So the 2D element matrices
    # do not use `tables` (see _Space).

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
        vals_t, table = self._field_tables(rule)
        c = coeffs[self.dof_matrix()[elems]] * self.orientation_signs()[elems]
        nb, nq = len(elems), vals_t.shape[1]
        u = c @ vals_t
        # grad u = invJt . sum_l c_l grad_ref b_l: fold each element's
        # inverse transposed Jacobian into its coefficients, (E, 4L), so
        # that the gradients come from one (E, 4L) @ (4L, 2Q) product in
        # the (E, Q, 2) layout of the exact solution's gradients
        folded = self.mesh.inv_jacobians_t()[elems][..., None] * c[:, None, None]
        g = folded.reshape(nb, 4 * self.nloc) @ table
        return u, g.reshape(nb, nq, 2)

    @functools.cached_property
    def _field_cache(self):
        """`_field_tables` per rule, keyed by the rule's points."""
        return {}

    def _field_tables(self, rule):
        """The reference tables of the 2D `field` at the points of `rule`,
        built on first use of the rule and kept, read-only, with the
        space: the values (L, Q) and the gradients as a (4L, 2Q) matrix,
        block diagonal in the physical component d, row (d, r, l) and
        column (q, d) holding the r-derivative of b_l at xi_q.  A volume
        loop of many batches thus evaluates the shape functions once."""
        key = rule.points.tobytes()
        if key not in self._field_cache:
            vals, grads = self.reference_tables(rule.points)
            nq, nl = vals.shape
            table = np.zeros((2, 2, nl, nq, 2))
            for d in range(2):
                table[d, ..., d] = grads.transpose(2, 1, 0)
            kept = np.ascontiguousarray(vals.T), table.reshape(4 * nl, 2 * nq)
            for array in kept:
                array.flags.writeable = False
            self._field_cache[key] = kept
        return self._field_cache[key]


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

    def _shape_tables(self, elems, rule):
        """Basis values (nb, nq, nloc) and gradients (nb, nq, nloc, 2) at
        the images of the reference `rule` points, from one evaluation of
        the local basis per distinct Jacobian (element shape) of `elems`.

        At a reference point xi the basis of element e depends on its
        Jacobian J_e alone, through y = J_e (xi - xi_c) with xi_c the
        reference centroid (1/3, 1/3).  Elements of one shape share the
        bytes of one table.  Each y_i = J_i0 a + J_i1 b is formed
        elementwise, not by a matrix product, so its bits do not depend
        on which elements share the batch.
        """
        jac = self.mesh.jacobians()[elems].reshape(-1, 4)
        shapes, inverse = np.unique(jac, axis=0, return_inverse=True)
        if len(shapes) == len(jac):
            # every element has a shape of its own: evaluate them in
            # batch order and copy no table
            shapes, inverse = jac, slice(None)
        a, b = (rule.points - 1.0 / 3.0).T
        # (shapes, nq, 2): row i of each shape's Jacobian times (a, b)
        y = (shapes[:, None, 0::2] * a[:, None]
             + shapes[:, None, 1::2] * b[:, None])
        vals, grads = self.local.eval(y)
        return vals[inverse], grads[inverse]

    def field(self, elems, coeffs, rule):
        """As `_Space.field`, with the tables of `_shape_tables` in place
        of `eval_basis` at the mapped rule points."""
        vals, grads = self._shape_tables(elems, rule)
        return _contract(vals, grads, coeffs[self.dof_matrix()[elems]])


# -- factories -----------------------------------------------------------


def h1_space(mesh, p):
    """Conforming degree-p space, 1 <= p <= 10."""
    p = int(p)
    if p < 1 or p > 10:
        raise ValueError(f"degree p={p} unsupported in {mesh.dim}D (1..10)")
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
