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
into batches whose per-point basis tables hold at most `_BATCH_ENTRIES`
numbers.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import _bessel_ladder_slabs, _expi

_REF_GRAD_LAM = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
_LOCAL_EDGES = ((0, 1), (1, 2), (0, 2))

# Bound on the numbers held by one batch's basis table or local matrices
# (16 MB as floats, 32 MB as complex); sets the element batch size of
# every volume loop.
_BATCH_ENTRIES = 2_000_000


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
    vertex order; the caller applies the orientation signs.
    """
    nb, nq = lam.shape[:2]
    nloc = _h1_local_dim_2d(p)
    vals = np.zeros((nb, nq, nloc))
    grads = np.zeros((nb, nq, nloc, 2))
    gl = grad_lam[:, None, :, :]
    for v in range(3):
        vals[..., v] = lam[..., v]
        grads[..., v, :] = gl[..., v, :]
    pos = 3
    if p >= 2:
        for a, b in _LOCAL_EDGES:
            xi = lam[..., b] - lam[..., a]
            _, der1, der2 = _legendre_table(xi, p - 1)
            prod = lam[..., a] * lam[..., b]
            dprod = lam[..., b, None] * gl[..., a, :] + lam[..., a, None] * gl[..., b, :]
            dxi = gl[..., b, :] - gl[..., a, :]
            for q in range(2, p + 1):
                c = _edge_kernel_coeff(q)
                kern = c * der1[q - 1]
                dkern = c * der2[q - 1]
                vals[..., pos] = prod * kern
                grads[..., pos, :] = dprod * kern[..., None] + (prod * dkern)[..., None] * dxi
                pos += 1
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
        for i in range(p - 2):
            for j in range(p - 2 - i):
                f = p1[i] * p2[j]
                df = (d1[i] * p2[j])[..., None] * deta1 + (p1[i] * d2[j])[..., None] * deta2
                vals[..., pos] = bub * f
                grads[..., pos, :] = dbub * f[..., None] + bub[..., None] * df
                pos += 1
    return vals, grads


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
    """Element integrals shared by all spaces, built on `eval_basis`."""

    def element_dofs(self, ei):
        return self.dof_matrix()[ei]

    def element_batches(self, npts):
        """Element index arrays covering the mesh in order, sized so that
        a batch's basis gradients at npts points per element or its local
        matrices hold at most _BATCH_ENTRIES numbers."""
        per_element = self.nloc * max(self.nloc, npts * self.mesh.dim)
        step = max(1, _BATCH_ENTRIES // per_element)
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
        self.p = int(p)
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
        m_ref = np.einsum("q,ql,qm->lm", w, vals, vals)
        g_ref = np.einsum("q,qlr,qms->lrms", w, grads, grads)
        inv_jt = self.mesh.inv_jacobians_t()[elems]
        det = 2.0 * self.mesh.areas()[elems]
        metric = np.einsum("edr,eds->ers", inv_jt, inv_jt)
        signs = self.orientation_signs()[elems]
        ss = signs[:, :, None] * signs[:, None, :]
        stiff = det[:, None, None] * np.einsum("lrms,ers->elm", g_ref, metric)
        mass = det[:, None, None] * m_ref[None, :, :]
        return stiff * ss, mass * ss

    def field(self, elems, coeffs, rule):
        if self.mesh.dim == 1:
            return super().field(elems, coeffs, rule)
        vals, grads = self.reference_tables(rule.points)
        c = coeffs[self.dof_matrix()[elems]] * self.orientation_signs()[elems]
        nq = len(vals)
        u = c @ vals.T
        # reference gradients of all points in one (E, L) @ (L, 2Q)
        # product, then each element's 2x2 inverse transposed Jacobian
        g_ref = (c @ grads.transpose(1, 0, 2).reshape(self.nloc, 2 * nq)
                 ).reshape(len(elems), nq, 2)
        g = g_ref @ self.mesh.inv_jacobians_t()[elems].transpose(0, 2, 1)
        return u, g


class NodallyExact1D(_Space):
    """1D space whose hat-like shape functions solve -u'' - k^2 u = 0.

    On each element the two shape functions are sin(k(x_r - x))/sin(k h)
    and sin(k(x - x_l))/sin(k h); they interpolate nodal values exactly
    and make the Galerkin solution of the model problem nodally exact.
    Requires kh < pi on every element so sin(kh) stays away from zero.
    """

    kind = "nodally_exact_1d"
    conforming = True

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
        self.nloc = 3 * enrichment.dim
        self.ndof = mesh.n_nodes * enrichment.dim

    def dof_matrix(self):
        m = self.enrichment.dim
        verts = self.mesh.elements
        return (verts[:, :, None] * m + np.arange(m)).reshape(len(verts), -1)

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
        self.nloc = local.dim
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
