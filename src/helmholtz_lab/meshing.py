"""Meshes: 1D intervals and structured 2D triangulations of polygons.

Meshes carry full edge topology (adjacent elements, a fixed unit normal
pointing out of the first adjacent element, length, boundary tag), since
the discontinuous methods assemble exclusively on the mesh skeleton.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Polygon",
    "Mesh",
    "MeshError",
    "Edge",
    "unit_interval",
    "unit_square",
    "l_shape",
    "uniform_interval_mesh",
    "triangulate",
    "geometric_refine",
    "n_lambda",
    "mesh_to_text",
    "mesh_from_text",
    "save_mesh",
    "load_mesh",
    "mesh_from_arrays",
    "validate_mesh",
]

Edge = namedtuple("Edge", ["index", "nodes", "elems", "normal", "length", "tag"])


@dataclass(frozen=True)
class Polygon:
    """Domain description: vertex loop plus one tag per side.

    Sides run from vertices[i] to vertices[i+1] (cyclically); for the 1D
    interval the two "sides" are the endpoints.
    """

    name: str
    dim: int
    vertices: tuple
    side_tags: tuple

    def _sides(self):
        starts = np.asarray(self.vertices, dtype=float)
        return starts, np.roll(starts, -1, axis=0)

    def contains(self, points):
        """Whether each of the (n, 2) points lies inside (even-odd rule)."""
        if self.dim != 2:
            raise ValueError("containment is defined for 2D polygons")
        return _point_in_polygon(np.asarray(points, dtype=float),
                                 self._sides()[0])

    def outward_normals(self, points):
        """Unit outward normal of the side holding each boundary point.

        Points near a corner take the nearest side's normal; a point on
        no side raises ValueError.  Either orientation of the vertex loop
        gives outward normals.
        """
        if self.dim != 2:
            raise ValueError("outward normals are defined for 2D polygons")
        starts, ends = self._sides()
        d = ends - starts
        # twice the signed (shoelace) area: positive for a counterclockwise
        # loop, whose outward normals lie to the right of each side
        sign = np.sign(np.sum(starts[:, 0] * ends[:, 1]
                              - ends[:, 0] * starts[:, 1]))
        normals = sign * np.column_stack([d[:, 1], -d[:, 0]]) + 0.0
        normals /= np.hypot(d[:, 0], d[:, 1])[:, None]
        side = _nearest_segment(np.asarray(points, dtype=float), starts, ends)
        return normals[side]


def unit_interval():
    return Polygon(
        name="interval",
        dim=1,
        vertices=((0.0,), (1.0,)),
        side_tags=("left", "right"),
    )


def unit_square():
    return Polygon(
        name="square",
        dim=2,
        vertices=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
        side_tags=("robin", "robin", "robin", "robin"),
    )


def l_shape(neumann_gamma=False):
    """L-shaped domain (-1,1)^2 minus [0,1]x[-1,0], reentrant corner at 0.

    With neumann_gamma=True the two sides meeting at the origin are
    tagged "neumann" and the remaining boundary "robin".
    """
    gamma = "neumann" if neumann_gamma else "robin"
    return Polygon(
        name="lshape",
        dim=2,
        vertices=(
            (-1.0, -1.0),
            (0.0, -1.0),
            (0.0, 0.0),
            (1.0, 0.0),
            (1.0, 1.0),
            (-1.0, 1.0),
        ),
        side_tags=("robin", gamma, gamma, "robin", "robin", "robin"),
    )


class MeshError(ValueError):
    """A refusal by `Mesh`, in the order it checks them: `kind` is
    'measure' (a descending or zero-length interval, a clockwise or flat
    triangle, an element of non-finite measure), 'non-manifold' (a facet
    of three or more elements), 'orientation' (two elements on one side
    of a shared facet) or 'tag' (a tagged pair on no boundary edge).  `elements` holds the ascending
    indices of the offending elements, `tag` the refused (i, j, tag)."""

    def __init__(self, kind, text, elements=(), tag=None):
        self.kind = kind
        self.elements = tuple(sorted(int(e) for e in elements))
        self.tag = tag
        # `elements` may hold a whole reversed mesh; the text names eight
        named = ", ".join(map(str, self.elements[:8]))
        if len(self.elements) > 8:
            named += f" and {len(self.elements) - 8} more"
        super().__init__(f"{text} (elements {named})" if named else text)


class Mesh:
    """Simplicial mesh with explicit skeleton topology.

    nodes:     (nv,) in 1D, (nv, 2) in 2D
    elements:  (ne, 2) ascending or (ne, 3) counterclockwise int
    Edge normals point out of edge_elems[:, 0]; boundary edges have
    edge_elems[:, 1] == -1.  In 2D, element_edges (ne, 3) holds the edge
    index of the sides joining local vertices (0,1), (1,2) and (2,0).
    h is the max element diameter, shape_reg the max ratio
    diameter/inradius over elements (2D).  Every refusal is a `MeshError`.
    """

    def __init__(self, dim, nodes, elements, edge_tags=None):
        self.dim = int(dim)
        self.nodes = np.asarray(nodes, dtype=float)
        self.elements = np.asarray(elements, dtype=np.int64)
        self._cache = {}
        self._metrics()
        self._build_edges()
        if edge_tags:
            self._apply_tags(edge_tags)

    # -- topology ------------------------------------------------------

    def _build_edges(self):
        """The skeleton from one sort of the element facets.

        Facet s of element e sits at s * ne + e: an interval's right end
        node, then its left one (key: the node); a triangle's sides (0,1),
        (1,2) and (2,0), each running from `starts` to `ends` (key: the
        node pair).  A facet bounds at most two elements, the second one
        from the other side: a left end after a right end, a side run
        backwards.
        """
        el = self.elements
        ne = len(el)
        if self.dim == 1:
            starts = ends = key = el[:, ::-1].T.ravel()
        else:
            starts = el.T.ravel()
            ends = el[:, [1, 2, 0]].T.ravel()
            # one int64 key per unordered node pair; the stable sort keeps
            # the sides of an edge in directed order, as a lexsort would
            key = (np.minimum(starts, ends) * len(self.nodes)
                   + np.maximum(starts, ends))
        order = np.argsort(key, kind="stable")
        key_s = key[order]
        new_edge = np.ones(len(key_s), dtype=bool)
        np.not_equal(key_s[1:], key_s[:-1], out=new_edge[1:])
        edge_of = np.empty(len(key_s), dtype=np.int64)
        edge_of[order] = np.cumsum(new_edge) - 1
        first_ids = np.flatnonzero(new_edge)
        n_edges = len(first_ids)
        run_len = np.diff(np.append(first_ids, len(key_s)))
        crowded = np.flatnonzero(run_len > 2)
        if len(crowded):
            run = first_ids[crowded[0]] + np.arange(run_len[crowded[0]])
            raise MeshError("non-manifold", "non-manifold edge: shared by "
                            "more than two elements", order[run] % ne)
        first = order[first_ids]
        plus = first % ne
        minus = -np.ones(n_edges, dtype=np.int64)
        has_two = run_len == 2
        second = order[first_ids[has_two] + 1]
        minus[has_two] = second % ne
        paired = first[has_two]
        if self.dim == 1:
            turned = (paired < ne) & (second >= ne)
        else:
            turned = (starts[second] == ends[paired]) & (
                ends[second] == starts[paired])
        if not np.all(turned):
            bad = np.argmin(turned)
            raise MeshError("orientation", "inconsistent element orientation "
                            "across an edge", (paired[bad] % ne,
                                               second[bad] % ne))
        self.edge_nodes = np.column_stack([starts[first], ends[first]])
        self.edge_elems = np.column_stack([plus, minus])
        self.edge_tags = [None] * n_edges
        self.boundary_mask = minus == -1
        if self.dim == 1:
            # a point of unit measure, outward from the plus element
            self.edge_normals = np.where(first < ne, 1.0, -1.0)[:, None]
            self.edge_lengths = np.ones(n_edges)
            return
        t = (self.nodes[self.edge_nodes[:, 1]]
             - self.nodes[self.edge_nodes[:, 0]])
        self.edge_lengths = np.hypot(t[:, 0], t[:, 1])
        self.edge_normals = (np.column_stack([t[:, 1], -t[:, 0]])
                             / self.edge_lengths[:, None])
        self.element_edges = np.ascontiguousarray(edge_of.reshape(3, ne).T)

    def _apply_tags(self, tags):
        """tags: iterable of (i, j, tag) with unordered node pair."""
        lookup = {}
        for idx in np.flatnonzero(self.boundary_mask):
            a, b = self.edge_nodes[idx]
            lookup[frozenset((int(a), int(b)))] = idx
        for i, j, tag in tags:
            idx = lookup.get(frozenset((int(i), int(j))))
            if idx is None:
                raise MeshError("tag", f"tagged pair ({i}, {j}) is not a "
                                f"boundary edge", tag=(i, j, tag))
            self.edge_tags[idx] = tag

    def _metrics(self):
        if self.dim == 1:
            x0 = self.nodes[self.elements[:, 0]]
            x1 = self.nodes[self.elements[:, 1]]
            lengths = self._cache["areas"] = x1 - x0
            bad = ~((lengths > 0) & np.isfinite(lengths))
            if np.any(bad):
                raise MeshError("measure", "element with zero length or "
                                "descending nodes, or of non-finite length",
                                np.flatnonzero(bad))
            self._cache["centroids"] = (x0 + x1) / 2.0
            self.h = float(np.max(lengths))
            self.h_min = float(np.min(lengths))
            self.shape_reg = 1.0
            return
        # the one gather of the element vertices: the Jacobians, the areas,
        # the side lengths and the centroids all come from it
        pts = self.nodes[self.elements]  # (ne, 3, 2)
        # explicit adds in vertex order: the bits of .mean(axis=1)
        self._cache["centroids"] = (pts[:, 0] + pts[:, 1] + pts[:, 2]) / 3.0
        d1 = pts[:, 1] - pts[:, 0]
        d2 = pts[:, 2] - pts[:, 0]
        self._cache["jac"] = np.stack([d1, d2], axis=2)
        area = self._cache["areas"] = 0.5 * (d1[:, 0] * d2[:, 1]
                                             - d1[:, 1] * d2[:, 0])
        bad = ~((area > 0) & np.isfinite(area))
        if np.any(bad):
            raise MeshError("measure", "element with non-positive or "
                            "non-finite area (orientation?)",
                            np.flatnonzero(bad))
        # sides (0,1), (1,2), (2,0), the last one -d2; the lengths take
        # np.linalg.norm's sqrt(dx*dx + dy*dy) bit for bit, which np.hypot
        # does not
        a, b, c = (np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
                   for d in (d1, pts[:, 2] - pts[:, 1], d2))
        diam = np.maximum(a, np.maximum(b, c))
        inradius = 2.0 * area / (a + b + c)
        self.h = float(np.max(diam))
        self.h_min = float(np.min(diam))
        self.shape_reg = float(np.max(diam / inradius))

    # -- geometry caches ------------------------------------------------

    def areas(self):
        """Element lengths (1D) or areas (2D)."""
        return self._cache["areas"]

    def jacobians(self):
        """Affine maps x = v0 + J xi per element (2D): (ne, 2, 2), the
        columns the edge vectors from vertex 0."""
        return self._cache["jac"]

    def inv_jacobians_t(self):
        if "invjt" not in self._cache:
            jac = self.jacobians()
            det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
            inv = np.empty_like(jac)
            inv[:, 0, 0] = jac[:, 1, 1]
            inv[:, 0, 1] = -jac[:, 1, 0]
            inv[:, 1, 0] = -jac[:, 0, 1]
            inv[:, 1, 1] = jac[:, 0, 0]
            self._cache["invjt"] = inv / det[:, None, None]
        return self._cache["invjt"]

    def map_rule(self, elems, rule):
        """Physical points and weights of a reference rule on elements.

        `elems` is an index array; `rule` a quadrature rule on [0, 1] (1D)
        or on the reference triangle (2D).  Returns points of shape
        (nb, nq) in 1D or (nb, nq, 2) in 2D, and weights (nb, nq).
        """
        if self.dim == 1:
            ends = self.nodes[self.elements[elems]]
            x0 = ends[:, :1]
            h = ends[:, 1:] - x0
            return x0 + h * rule.points, h * rule.weights
        v0 = self.nodes[self.elements[elems, 0]]
        nb, nq = len(v0), len(rule.weights)
        # all points from one (2E, 2) @ (2, Q) product: row 2e + d is row d
        # of element e's Jacobian
        jac = self.jacobians()[elems].reshape(2 * nb, 2)
        pts = jac @ np.ascontiguousarray(rule.points.T)
        pts += v0.reshape(-1, 1)
        # one copy into C order, so that callers flatten it without another
        pts = np.ascontiguousarray(pts.reshape(nb, 2, nq).transpose(0, 2, 1))
        return pts, (2.0 * self.areas()[elems])[:, None] * rule.weights

    def centroids(self):
        """Element midpoints (1D) or centroids (2D), the mean of the
        vertices."""
        return self._cache["centroids"]

    def edge_points(self, edges, t):
        """Points (E, Q[, 2]) at the parameters t on [0, 1] along each edge
        of the index array `edges`, from its first node to its second; an
        interval's edge is an end node, its point for every t."""
        a, b = (self.nodes[self.edge_nodes[edges, i]] for i in (0, 1))
        t = t[:, None] if self.dim == 2 else t
        return a[:, None] + t * (b - a)[:, None]

    # -- edge views ------------------------------------------------------

    def _edge_view(self, idx):
        return Edge(
            index=int(idx),
            nodes=tuple(int(v) for v in self.edge_nodes[idx]),
            elems=tuple(int(e) for e in self.edge_elems[idx]),
            normal=self.edge_normals[idx],
            length=float(self.edge_lengths[idx]),
            tag=self.edge_tags[idx],
        )

    def interior_edges(self):
        return [self._edge_view(i) for i in np.flatnonzero(~self.boundary_mask)]

    def boundary_edges(self):
        return [self._edge_view(i) for i in np.flatnonzero(self.boundary_mask)]

    @property
    def n_elements(self):
        return len(self.elements)

    @property
    def n_nodes(self):
        return len(self.nodes)


def mesh_from_arrays(dim, nodes, elements, edge_tags=None):
    """Build a Mesh from raw arrays; edge_tags as (i, j, tag) triples."""
    return Mesh(dim, nodes, elements, edge_tags=edge_tags)


def uniform_interval_mesh(n, a=0.0, b=1.0, tags=("left", "right")):
    """n equal elements on (a, b); the end a tagged tags[0], b tags[1]."""
    if n < 1:
        raise ValueError("need at least one element")
    if not a < b:
        raise ValueError("an interval needs a < b")
    return _chain(np.linspace(a, b, n + 1), tags)


def _chain(nodes, tags):
    """The interval mesh of ascending nodes, an element between each two
    neighbours; the first node tagged tags[0], the last tags[1]."""
    n = len(nodes) - 1
    return Mesh(1, nodes, np.column_stack([np.arange(n), np.arange(1, n + 1)]),
                edge_tags=[(0, 0, tags[0]), (n, n, tags[1])])


def _point_in_polygon(points, verts):
    """Even-odd ray casting, vectorized over points."""
    x = points[:, 0]
    y = points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    nv = len(verts)
    for i in range(nv):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % nv]
        crosses = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
        inside ^= crosses & (x < np.where(crosses, xint, np.inf))
    return inside


def triangulate(domain, target_h):
    """Structured conforming triangulation of a built-in polygon.

    Its extent (the longer side of its bounding box) is cut into the
    fewest cells of width at most target_h, up to a relative 1e-12 so
    that target_h = extent / n gives n cells: the equal elements of an
    interval, its ends tagged with its side tags in vertex order, or the
    square lattice cells of a 2D polygon, each split into two right
    triangles (max diameter sqrt(2) * pitch, recorded on the mesh).
    """
    if target_h <= 0:
        raise ValueError("target_h must be positive")
    verts = np.asarray(domain.vertices, dtype=float)
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    extent = (hi - lo).max()
    n = max(1, int(math.ceil(extent / target_h * (1.0 - 1e-12))))
    if domain.dim == 1:
        (a,), (b,) = domain.vertices
        return uniform_interval_mesh(n, a, b, domain.side_tags)
    pitch = extent / n
    # polygon vertices must land on lattice nodes for an exact boundary
    for _ in range(n + 4):
        offs = (verts - lo) / pitch
        if np.allclose(offs, np.round(offs), atol=1e-9):
            break
        n += 1
        pitch = extent / n
    else:
        raise ValueError("target_h incompatible with the polygon vertices")
    nx, ny = (int(round(side / pitch)) for side in hi - lo)
    xmin, ymin = lo
    xs = xmin + pitch * np.arange(nx + 1)
    ys = ymin + pitch * np.arange(ny + 1)
    gx, gy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    cx = xmin + pitch * (gx.ravel() + 0.5)
    cy = ymin + pitch * (gy.ravel() + 0.5)
    keep = domain.contains(np.column_stack([cx, cy]))
    ci = gx.ravel()[keep]
    cj = gy.ravel()[keep]
    if len(ci) == 0:
        raise ValueError("no cells inside the polygon at this target_h")

    def node_id(i, j):
        return i * (ny + 1) + j

    v00 = node_id(ci, cj)
    v10 = node_id(ci + 1, cj)
    v11 = node_id(ci + 1, cj + 1)
    v01 = node_id(ci, cj + 1)
    tris = np.concatenate(
        [
            np.column_stack([v00, v10, v11]),
            np.column_stack([v00, v11, v01]),
        ],
        axis=0,
    )
    in_use = np.zeros((nx + 1) * (ny + 1), dtype=bool)
    in_use[tris] = True
    used = np.flatnonzero(in_use)
    remap = -np.ones((nx + 1) * (ny + 1), dtype=np.int64)
    remap[used] = np.arange(len(used))
    tris = remap[tris]
    gxx, gyy = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([gxx.ravel()[used], gyy.ravel()[used]])
    mesh = Mesh(2, nodes, tris)
    _tag_boundary(mesh, *domain._sides(), domain.side_tags)
    return mesh


def _nearest_segment(points, starts, ends):
    """Index of the segment that holds each of the (n, 2) points.

    Segment s runs from starts[s] to ends[s]; a point belongs to it when
    it lies within 1e-9 segment lengths of it.  Where several segments
    hold a point (near a corner, or on a strongly graded mesh), the
    nearest one wins.  Raises ValueError for a point on no segment.
    """
    d = ends - starts
    ll = np.sum(d * d, axis=1)
    rx = points[:, None, 0] - starts[:, 0]
    ry = points[:, None, 1] - starts[:, 1]
    t = (rx * d[:, 0] + ry * d[:, 1]) / ll
    # squared distance to the segment's line, (points, segments)
    dist2 = (rx * d[:, 1] - ry * d[:, 0]) ** 2 / ll
    dist2[(t < -1e-12) | (t > 1.0 + 1e-12)] = np.inf
    best = np.argmin(dist2, axis=1)
    if not np.all(dist2[np.arange(len(points)), best] <= 1e-18 * ll[best]):
        raise ValueError("point not on any boundary segment")
    return best


def _tag_boundary(mesh, starts, ends, tags):
    """Give each boundary edge of a 2D mesh the tag of the segment that
    holds its midpoint (`_nearest_segment`); segment s carries tags[s].
    Raises when an edge lies on no segment.
    """
    idx = np.flatnonzero(mesh.boundary_mask)
    if len(tags) == 0:
        raise ValueError("no tagged boundary segments")
    mid = 0.5 * mesh.nodes[mesh.edge_nodes[idx]].sum(axis=1)
    try:
        best = _nearest_segment(mid, starts, ends)
    except ValueError:
        raise ValueError("boundary edge not on any tagged boundary "
                         "segment") from None
    for i, s in zip(idx, best):
        mesh.edge_tags[i] = tags[s]


def geometric_refine(mesh, corners, sigma, layers):
    """Geometric grading toward the listed corner points.

    Every element touching a corner is replaced by a fan of similar
    triangles: scaled copies of its far edge at radii sigma^j, j=1..L,
    leaving the innermost triangle of size ~sigma^L.  Neighboring fans
    subdivide their shared edge identically, so the result is conforming
    without any closure step.  In 1D every element touching a corner is
    split at sigma^j * h0 from the corner, h0 its length.  Each corner
    is a mesh node given by mesh.dim coordinates (a number in 1D); any
    other corner raises ValueError.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must be in (0, 1)")
    if layers < 1:
        raise ValueError("need at least one layer")
    if mesh.dim == 1:
        return _geometric_refine_1d(mesh, corners, sigma, layers)
    return _geometric_refine_2d(mesh, corners, sigma, layers)


def _corner_node(mesh, corner):
    pts = np.atleast_1d(np.asarray(corner, dtype=float))
    if pts.shape != (mesh.dim,):
        raise ValueError(f"corner {corner} does not have {mesh.dim} "
                         f"coordinate(s)")
    if mesh.dim == 1:
        dist = np.abs(mesh.nodes - pts[0])
    else:
        dist = np.linalg.norm(mesh.nodes - pts[None, :], axis=1)
    idx = int(np.argmin(dist))
    if dist[idx] > 1e-9:
        raise ValueError(f"corner {corner} is not a mesh node")
    return idx


def _geometric_refine_1d(mesh, corners, sigma, layers):
    breakpoints = set(mesh.nodes.tolist())
    for corner in corners:
        ci = _corner_node(mesh, corner)
        cx = float(mesh.nodes[ci])
        # every element incident to the corner, graded toward its other end
        rows, ends = np.nonzero(mesh.elements == ci)
        for other in mesh.nodes[mesh.elements[rows, 1 - ends]].tolist():
            for j in range(1, layers + 1):
                breakpoints.add(cx + (sigma ** j) * (other - cx))
    nodes = np.array(sorted(breakpoints))
    # endpoint tags carry over by position
    tags = {float(mesh.nodes[mesh.edge_nodes[i, 0]]): mesh.edge_tags[i]
            for i in np.flatnonzero(mesh.boundary_mask)}
    return _chain(nodes, [tags.get(x) for x in nodes[[0, -1]].tolist()])


def _geometric_refine_2d(mesh, corners, sigma, layers):
    corner_ids = {_corner_node(mesh, c) for c in corners}
    elements = mesh.elements
    at_corner = np.flatnonzero(
        np.isin(elements, sorted(corner_ids)).any(axis=1))
    # ring nodes lie inside edges at a corner, where a conforming mesh has
    # no node, so only they are looked up (a neighboring fan reuses them)
    n_old = len(mesh.nodes)
    ring_nodes = []
    ring_index = {}

    def get_node(p):
        key = (float(p[0]), float(p[1]))
        if key not in ring_index:
            ring_index[key] = n_old + len(ring_nodes)
            ring_nodes.append(key)
        return ring_index[key]

    # untouched elements are copied as slices between the corner elements,
    # each of which its fan replaces in place
    pieces = []
    start = 0
    for e in at_corner:
        pieces.append(elements[start:e])
        start = e + 1
        tri = [int(v) for v in elements[e]]
        # structured meshes: one corner per element
        i = next(i for i, v in enumerate(tri) if v in corner_ids)
        c, a, b = tri[i:] + tri[:i]
        pc = mesh.nodes[c]
        ring_a, ring_b = (
            [v] + [get_node(pc + (sigma ** j) * (mesh.nodes[v] - pc))
                   for j in range(1, layers + 1)] for v in (a, b))
        fan = [(c, ring_a[layers], ring_b[layers])]
        for j in range(layers, 0, -1):
            # trapezoid between radii sigma^j and sigma^(j-1)
            fan.append((ring_a[j], ring_a[j - 1], ring_b[j - 1]))
            fan.append((ring_a[j], ring_b[j - 1], ring_b[j]))
        pieces.append(np.array(fan, dtype=np.int64))
    pieces.append(elements[start:])
    nodes = np.concatenate(
        [mesh.nodes, np.array(ring_nodes, dtype=float).reshape(-1, 2)])
    out = Mesh(2, nodes, np.concatenate(pieces))
    # the refined boundary edges lie on the parent's tagged boundary edges
    tagged = [i for i in np.flatnonzero(mesh.boundary_mask)
              if mesh.edge_tags[i] is not None]
    ends = mesh.nodes[mesh.edge_nodes[tagged]]
    _tag_boundary(out, ends[:, 0], ends[:, 1],
                  [mesh.edge_tags[i] for i in tagged])
    return out


def n_lambda(ndof, k, dim):
    """Degrees of freedom per wavelength: 2 pi N / k in 1D and
    2 pi sqrt(N) / k in 2D (per-direction count)."""
    if dim == 1:
        return 2.0 * math.pi * ndof / k
    if dim == 2:
        return 2.0 * math.pi * math.sqrt(ndof) / k
    raise ValueError(f"unsupported dim {dim}")


def mesh_to_text(mesh):
    """Plain text form: header, node lines, element lines, edge tag lines.

    Floats are written with repr so a write/read cycle is bit-exact.
    """
    lines = [f"{mesh.dim} {mesh.n_nodes} {mesh.n_elements}"]
    if mesh.dim == 1:
        for x in mesh.nodes:
            lines.append(repr(float(x)))
    else:
        for x, y in mesh.nodes:
            lines.append(f"{float(x)!r} {float(y)!r}")
    for elem in mesh.elements:
        lines.append(" ".join(str(int(v)) for v in elem))
    tagged = []
    for idx in np.flatnonzero(mesh.boundary_mask):
        if mesh.edge_tags[idx] is not None:
            a, b = (int(v) for v in mesh.edge_nodes[idx])
            tagged.append((min(a, b), max(a, b), mesh.edge_tags[idx]))
    for a, b, tag in sorted(tagged):
        lines.append(f"edge {a} {b} {tag}")
    return "\n".join(lines) + "\n"


def mesh_from_text(text):
    """The mesh of a `mesh_to_text` form; blank lines are skipped.

    Malformed text raises ValueError naming its 1-based line and what
    that line should hold: a header of dim (1 or 2) and positive node
    and element counts, that many node lines of dim finite coordinates,
    element lines of dim + 1 node indices and 'edge i j tag' lines, each
    index naming a node.  A `MeshError` of the arrays is refused at the
    line of the element or edge line it names, as one on the nodes of an
    earlier element (whose line is named too) where it is one.
    """
    lines = text.splitlines()
    numbered = [(number, line.split())
                for number, line in enumerate(lines, start=1) if line.strip()]

    def refuse(i, what):
        number, tokens = (numbered[i] if i < len(numbered)
                          else (len(lines) + 1, []))
        got = repr(" ".join(tokens)) if tokens else "the end of the text"
        raise ValueError(f"mesh text line {number}: expected {what}, "
                         f"got {got}")

    def checked(kind, accept):
        def parse(token):
            value = kind(token)
            if not accept(value):
                raise ValueError(token)
            return value
        return parse

    def read(i, what, parsers):
        tokens = numbered[i][1] if i < len(numbered) else []
        try:
            if len(tokens) == len(parsers):
                return [parse(tok) for parse, tok in zip(parsers, tokens)]
        except ValueError:
            pass
        refuse(i, what)

    positive = checked(int, lambda v: v >= 1)
    dim, nn, ne = read(0, "the header 'dim n_nodes n_elements', dim 1 or 2 "
                       "and positive counts",
                       [checked(int, lambda v: v in (1, 2)), positive,
                        positive])
    node = checked(int, lambda v: 0 <= v < nn)
    coordinate = checked(float, math.isfinite)
    nodes = [read(1 + i, f"node {i + 1} of {nn}: {dim} finite "
                  f"coordinate(s)", [coordinate] * dim) for i in range(nn)]
    elements = [read(1 + nn + i, f"element {i + 1} of {ne}: {dim + 1} node "
                     f"indices below {nn}", [node] * (dim + 1))
                for i in range(ne)]
    edge = checked(str, lambda v: v == "edge")
    tags = [tuple(read(i, f"'edge i j tag' with i and j below {nn}",
                       [edge, node, node, str])[1:])
            for i in range(1 + nn + ne, len(numbered))]
    nodes = np.array(nodes, dtype=float)
    try:
        return Mesh(dim, nodes.ravel() if dim == 1 else nodes, elements,
                    edge_tags=tags)
    except MeshError as err:
        if err.tag is not None:
            refuse(1 + nn + ne + tags.index(err.tag), "'edge i j tag' with i "
                   "and j the nodes of a boundary edge")
        # the first element of too small a measure; the last one of a facet
        named = err.elements[:1] if err.kind == "measure" else err.elements
        sets = [frozenset(elem) for elem in elements]
        for e in named:
            if sets[e] in sets[:e]:
                refuse(1 + nn + e, f"element {e + 1} of {ne}: nodes other "
                       f"than those of line "
                       f"{numbered[1 + nn + sets.index(sets[e])][0]}")
        *earlier, e = named
        lines = " and ".join(str(numbered[1 + nn + o][0]) for o in earlier)
        refuse(1 + nn + e, f"element {e + 1} of {ne}: " + {
            "measure": ("two nodes at different points, in ascending order"
                        if dim == 1 else
                        "counterclockwise nodes around a positive area"),
            "orientation": f"no overlap with the element of line {lines}",
            "non-manifold": f"no {'node' if dim == 1 else 'edge'} that "
                            f"lines {lines} already share"}[err.kind])


def save_mesh(mesh, path):
    with open(path, "w") as fh:
        fh.write(mesh_to_text(mesh))


def load_mesh(path):
    with open(path) as fh:
        return mesh_from_text(fh.read())


def validate_mesh(mesh, max_shape_reg=None):
    """Checks beyond the refusals of `Mesh`; raises ValueError on violation.

    `Mesh` already refuses a facet of three elements, two elements on one
    side of a facet and an element of non-positive or non-finite measure,
    so every element side is one side of one edge, and every edge normal
    is a unit vector out of its plus element.  Left here: an interval
    mesh must be one chain, with exactly two boundary nodes (`Mesh`
    accepts disjoint intervals), and, only when max_shape_reg is given, a
    bound on the shape regularity of a triangle mesh: structured meshes
    stay below 5, while strongly graded corner fans (sigma << 1) are
    legitimately anisotropic.
    """
    if mesh.dim == 1:
        if np.sum(mesh.boundary_mask) != 2:
            raise ValueError("interval mesh must have exactly two boundary nodes")
    elif max_shape_reg is not None and mesh.shape_reg > max_shape_reg:
        raise ValueError(
            f"shape regularity {mesh.shape_reg:.2f} exceeds {max_shape_reg}"
        )
    return True
