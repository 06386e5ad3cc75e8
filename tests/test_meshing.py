"""Mesh construction, topology, grading and the text round trip."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmholtz_lab.meshing import (
    MeshError,
    Polygon,
    geometric_refine,
    l_shape,
    load_mesh,
    mesh_from_arrays,
    mesh_from_text,
    mesh_to_text,
    n_lambda,
    save_mesh,
    triangulate,
    uniform_interval_mesh,
    unit_interval,
    unit_square,
    validate_mesh,
)
from helmholtz_lab.numerics import quad_triangle


class TestInterval:
    def test_uniform(self):
        mesh = uniform_interval_mesh(4)
        assert mesh.n_nodes == 5
        assert mesh.n_elements == 4
        assert mesh.h == pytest.approx(0.25)
        assert validate_mesh(mesh)

    def test_triangulate_meshes_the_polygon(self):
        rod = Polygon(name="rod", dim=1, vertices=((0.0,), (2.0,)),
                      side_tags=("west", "east"))
        mesh = triangulate(rod, 0.5)
        assert mesh.nodes.tobytes() == np.linspace(0.0, 2.0, 5).tobytes()
        tags = {float(mesh.nodes[mesh.edge_nodes[i, 0]]): mesh.edge_tags[i]
                for i in np.flatnonzero(mesh.boundary_mask)}
        assert tags == {0.0: "west", 2.0: "east"}

    @pytest.mark.parametrize("n", [1, 4, 12, 64, 192, 256])
    def test_unit_interval_nodes_unchanged(self, n):
        # the 1D study CSVs rest on these nodes
        mesh = triangulate(unit_interval(), 1.0 / n)
        assert mesh.nodes.tobytes() == np.linspace(0.0, 1.0, n + 1).tobytes()
        assert mesh_to_text(mesh) == mesh_to_text(uniform_interval_mesh(n))

    @pytest.mark.parametrize("target_h", [0.0, -0.5])
    def test_nonpositive_h_refused(self, target_h):
        with pytest.raises(ValueError, match="target_h"):
            triangulate(unit_interval(), target_h)

    def test_end_tags(self):
        mesh = uniform_interval_mesh(3)
        tags = {mesh.edge_tags[i] for i in np.flatnonzero(mesh.boundary_mask)}
        assert tags == {"left", "right"}

    def test_boundary_normals(self):
        mesh = uniform_interval_mesh(3)
        for edge in mesh.boundary_edges():
            x = mesh.nodes[edge.nodes[0]]
            want = -1.0 if x == 0.0 else 1.0
            assert edge.normal[0] == want
            assert edge.elems[1] == -1

    def test_interior_edges_are_nodes(self):
        mesh = uniform_interval_mesh(5)
        inner = mesh.interior_edges()
        assert len(inner) == 4
        for edge in inner:
            assert edge.elems[0] >= 0 and edge.elems[1] >= 0


def _edges_1d_reference(nodes, elements):
    """Interval-mesh edge arrays built by the per-node loop."""
    counts = np.zeros(len(nodes), dtype=int)
    left_of = -np.ones(len(nodes), dtype=np.int64)
    right_of = -np.ones(len(nodes), dtype=np.int64)
    for ei, (a, b) in enumerate(elements):
        counts[a] += 1
        counts[b] += 1
        right_of[a] = ei
        left_of[b] = ei
    edge_nodes, edge_elems, normals = [], [], []
    for v in range(len(nodes)):
        if counts[v] == 0:
            continue
        plus = left_of[v] if left_of[v] >= 0 else right_of[v]
        minus = right_of[v] if left_of[v] >= 0 else -1
        edge_nodes.append((v, v))
        edge_elems.append((plus, -1 if minus == plus else minus))
        normals.append((1.0 if left_of[v] >= 0 else -1.0,))
    return (np.array(edge_nodes, dtype=np.int64),
            np.array(edge_elems, dtype=np.int64), np.array(normals))


class TestIntervalEdges:
    @pytest.mark.parametrize("case", ["uniform", "graded", "shuffled",
                                      "shuffled_nodes"])
    def test_matches_loop_reference(self, case):
        if case == "uniform":
            mesh = uniform_interval_mesh(7)
        elif case == "graded":
            mesh = geometric_refine(uniform_interval_mesh(4), [0.0], 0.2, 5)
        else:
            rng = np.random.default_rng(5)
            nodes = np.sort(rng.uniform(0.0, 1.0, 9))
            nodes[0], nodes[-1] = 0.0, 1.0
            elements = np.column_stack([np.arange(8), np.arange(1, 9)])
            if case == "shuffled_nodes":
                # node j of the sorted nodes gets the number number[j]
                number = rng.permutation(9)
                nodes[number] = nodes.copy()
                elements = number[elements]
            mesh = mesh_from_arrays(1, nodes, elements[rng.permutation(8)])
        edge_nodes, edge_elems, normals = _edges_1d_reference(mesh.nodes,
                                                              mesh.elements)
        np.testing.assert_array_equal(mesh.edge_nodes, edge_nodes)
        np.testing.assert_array_equal(mesh.edge_elems, edge_elems)
        np.testing.assert_array_equal(mesh.edge_normals, normals)
        np.testing.assert_array_equal(mesh.edge_lengths, np.ones(len(normals)))
        np.testing.assert_array_equal(mesh.boundary_mask, edge_elems[:, 1] == -1)
        assert len(mesh.edge_tags) == len(normals)
        assert mesh.boundary_mask.sum() == 2

    def test_edge_points_are_the_end_node(self):
        mesh = uniform_interval_mesh(4)
        edges = np.flatnonzero(mesh.boundary_mask)
        for t in (np.array([0.5]), np.array([0.0, 0.3, 1.0])):
            pts = mesh.edge_points(edges, t)
            assert pts.shape == (len(edges), len(t))
            np.testing.assert_array_equal(
                pts, np.repeat(mesh.nodes[mesh.edge_nodes[edges, 0], None],
                               len(t), axis=1))

    def test_zero_length_element_refused(self):
        with pytest.raises(ValueError, match="zero length"):
            mesh_from_arrays(1, [0.0, 0.5, 0.5], [[0, 1], [1, 2]])


class TestTriangulate:
    def test_square_single_cell(self):
        mesh = triangulate(unit_square(), 1.0)
        assert mesh.n_elements == 2
        assert mesh.n_nodes == 4
        assert validate_mesh(mesh, max_shape_reg=5.0)

    def test_square_half(self):
        mesh = triangulate(unit_square(), 0.5)
        assert mesh.n_elements == 8
        assert np.sum(mesh.areas()) == pytest.approx(1.0, abs=1e-14)

    def test_lshape_counts_and_area(self):
        mesh = triangulate(l_shape(), 0.5)
        assert mesh.n_elements == 24
        assert np.sum(mesh.areas()) == pytest.approx(3.0, abs=1e-13)
        assert validate_mesh(mesh, max_shape_reg=5.0)

    def test_lshape_neumann_tags(self):
        mesh = triangulate(l_shape(neumann_gamma=True), 0.25)
        neumann_len = 0.0
        robin_len = 0.0
        for edge in mesh.boundary_edges():
            if edge.tag == "neumann":
                neumann_len += edge.length
            elif edge.tag == "robin":
                robin_len += edge.length
            else:
                raise AssertionError("untagged boundary edge")
        # the two sides meeting at the origin have total length 2
        assert neumann_len == pytest.approx(2.0, abs=1e-12)
        assert robin_len == pytest.approx(6.0, abs=1e-12)
        # neumann edges really lie on {y=0, 0<=x<=1} or {x=0, -1<=y<=0}
        for edge in mesh.boundary_edges():
            if edge.tag != "neumann":
                continue
            a = mesh.nodes[edge.nodes[0]]
            b = mesh.nodes[edge.nodes[1]]
            on_top = abs(a[1]) < 1e-12 and abs(b[1]) < 1e-12
            on_left = abs(a[0]) < 1e-12 and abs(b[0]) < 1e-12
            assert on_top or on_left

    def test_boundary_length_square(self):
        mesh = triangulate(unit_square(), 0.25)
        total = sum(e.length for e in mesh.boundary_edges())
        assert total == pytest.approx(4.0, abs=1e-12)

    def test_normals_outward(self):
        mesh = triangulate(unit_square(), 0.5)
        assert validate_mesh(mesh)
        for edge in mesh.boundary_edges():
            mid = 0.5 * (mesh.nodes[edge.nodes[0]] + mesh.nodes[edge.nodes[1]])
            # outward normal on the unit square boundary points away from center
            assert np.dot(edge.normal, mid - np.array([0.5, 0.5])) > 0

    def test_interior_edge_has_two_elements(self):
        mesh = triangulate(unit_square(), 0.5)
        for edge in mesh.interior_edges():
            assert edge.elems[1] >= 0
            assert edge.tag is None

    def test_refuses_bad_pitch(self):
        with pytest.raises(ValueError):
            triangulate(unit_square(), -0.5)


class TestGeometricRefine:
    def test_interval_knots(self):
        # single element (0, 1) graded toward 0: nodes at sigma^j
        mesh = uniform_interval_mesh(1)
        out = geometric_refine(mesh, [0.0], 0.5, 3)
        assert np.allclose(np.sort(out.nodes), [0.0, 0.125, 0.25, 0.5, 1.0])
        tags = {out.edge_tags[i] for i in np.flatnonzero(out.boundary_mask)}
        assert tags == {"left", "right"}

    def test_interval_interior_corner_grades_both_sides(self):
        # like the 2D fans: every element touching the corner is graded
        out = geometric_refine(uniform_interval_mesh(2), [0.5], 0.5, 3)
        np.testing.assert_array_equal(
            out.nodes, [0.0, 0.25, 0.375, 0.4375, 0.5, 0.5625, 0.625, 0.75,
                        1.0])
        assert out.n_elements == 8

    def test_interval_end_corners_keep_their_knots(self):
        # an end corner has one element: the knots corner + sigma^j (x - corner)
        mesh = uniform_interval_mesh(5, -1.0, 2.0)
        sigma, layers = 0.3, 4
        out = geometric_refine(mesh, [-1.0, 2.0], sigma, layers)
        knots = set(mesh.nodes.tolist())
        for corner, other in ((-1.0, mesh.nodes[1]), (2.0, mesh.nodes[4])):
            knots.update(corner + sigma ** j * (float(other) - corner)
                         for j in range(1, layers + 1))
        assert out.nodes.tobytes() == np.array(sorted(knots)).tobytes()

    def test_lshape_grading(self):
        coarse = triangulate(l_shape(neumann_gamma=True), 0.5)
        fine = geometric_refine(coarse, [(0.0, 0.0)], 0.125, 10)
        assert validate_mesh(fine)
        assert fine.h_min <= 0.125**10 * coarse.h
        # total area preserved
        assert np.sum(fine.areas()) == pytest.approx(3.0, abs=1e-12)
        # boundary tags survive refinement
        neumann_len = sum(
            e.length for e in fine.boundary_edges() if e.tag == "neumann"
        )
        assert neumann_len == pytest.approx(2.0, abs=1e-12)

    def test_layer_count(self):
        coarse = triangulate(unit_square(), 0.5)
        fine = geometric_refine(coarse, [(0.0, 0.0)], 0.5, 4)
        assert validate_mesh(fine)
        # each corner triangle becomes 1 + 2L elements
        assert fine.n_elements == coarse.n_elements - 2 + 2 * (1 + 2 * 4)

    def test_rejects_non_node_corner(self):
        mesh = triangulate(unit_square(), 0.5)
        with pytest.raises(ValueError):
            geometric_refine(mesh, [(0.31, 0.12)], 0.5, 2)

    def test_rejects_bad_sigma(self):
        mesh = triangulate(unit_square(), 0.5)
        with pytest.raises(ValueError):
            geometric_refine(mesh, [(0.0, 0.0)], 1.5, 2)

    @pytest.mark.parametrize("corner", [0.5, (0.5,), (0.5, 0.5, 0.0)])
    def test_rejects_corner_of_other_dimension_2d(self, corner):
        # a lone coordinate must not be read as the node (0.5, 0.5)
        mesh = triangulate(l_shape(), 0.5)
        with pytest.raises(ValueError, match="coordinate"):
            geometric_refine(mesh, [corner], 0.5, 2)

    def test_rejects_2d_corner_in_1d(self):
        with pytest.raises(ValueError, match="coordinate"):
            geometric_refine(uniform_interval_mesh(4), [(0.0, 0.0)], 0.5, 2)


def _refine_2d_reference(mesh, corners, sigma, layers):
    """(nodes, elements) of 2D grading by a loop over every element, with
    every node in the lookup of new ring nodes."""
    corner_ids = {int(np.argmin(np.linalg.norm(mesh.nodes - np.asarray(c),
                                               axis=1))) for c in corners}
    node_list = [tuple(p) for p in mesh.nodes]
    node_index = {p: i for i, p in enumerate(node_list)}

    def get_node(p):
        key = (float(p[0]), float(p[1]))
        if key not in node_index:
            node_index[key] = len(node_list)
            node_list.append(key)
        return node_index[key]

    new_elements = []
    for tri in mesh.elements:
        touching = [v for v in tri if v in corner_ids]
        if not touching:
            new_elements.append(tuple(int(v) for v in tri))
            continue
        c = touching[0]
        rolled = list(tri)
        while rolled[0] != c:
            rolled = rolled[1:] + rolled[:1]
        _, a, b = rolled
        pc, pa, pb = mesh.nodes[c], mesh.nodes[a], mesh.nodes[b]
        ring_a = [int(a)] + [get_node(pc + (sigma ** j) * (pa - pc))
                             for j in range(1, layers + 1)]
        ring_b = [int(b)] + [get_node(pc + (sigma ** j) * (pb - pc))
                             for j in range(1, layers + 1)]
        new_elements.append((int(c), ring_a[layers], ring_b[layers]))
        for j in range(layers, 0, -1):
            new_elements.append((ring_a[j], ring_a[j - 1], ring_b[j - 1]))
            new_elements.append((ring_a[j], ring_b[j - 1], ring_b[j]))
    return (np.array(node_list, dtype=float),
            np.array(new_elements, dtype=np.int64))


class TestGeometricRefineReference:
    """Grading visits only the corner elements and gives the bits of a
    loop over every element."""

    @staticmethod
    def assert_matches(domain, h, corners, sigma, layers):
        coarse = triangulate(domain, h)
        corners = [tuple(v) for v in corners]
        fine = geometric_refine(coarse, corners, sigma, layers)
        nodes, elements = _refine_2d_reference(coarse, corners, sigma, layers)
        assert fine.nodes.tobytes() == nodes.tobytes()
        assert fine.elements.dtype == elements.dtype
        assert fine.elements.tobytes() == elements.tobytes()
        assert fine.edge_tags == _side_tags_reference(fine, domain)

    @pytest.mark.parametrize("domain, h", [
        (l_shape(neumann_gamma=True), 0.35), (l_shape(), 0.4),
        (unit_square(), 0.25)], ids=["lshape_035", "lshape_04", "square_4"])
    @pytest.mark.parametrize("sigma", [0.125, 0.15, 0.5])
    @pytest.mark.parametrize("layers", [3, 7, 10])
    @pytest.mark.parametrize("n_corners", [1, 4])
    def test_matches_loop_over_every_element(self, domain, h, sigma, layers,
                                             n_corners):
        self.assert_matches(domain, h, domain.vertices[:n_corners], sigma,
                            layers)

    def test_matches_on_fine_square(self):
        # 131,072 triangles, of which the fans replace eight
        domain = unit_square()
        self.assert_matches(domain, 1.0 / 256, domain.vertices, 0.15, 10)


def _side_tags_reference(mesh, domain):
    """Per-edge tags from the polygon itself: each boundary edge takes the
    tag of the one side that holds both of its end nodes."""
    verts = np.asarray(domain.vertices, dtype=float)
    tags = [None] * len(mesh.edge_tags)
    for i in np.flatnonzero(mesh.boundary_mask):
        hits = []
        for s, tag in enumerate(domain.side_tags):
            p, d = verts[s], verts[(s + 1) % len(verts)] - verts[s]
            on_side = True
            for x in mesh.nodes[mesh.edge_nodes[i]]:
                r = x - p
                t = float(r @ d) / float(d @ d)
                on_side &= (abs(r[0] * d[1] - r[1] * d[0]) <= 1e-12
                            and -1e-12 <= t <= 1.0 + 1e-12)
            if on_side:
                hits.append(tag)
        assert len(hits) == 1, (i, hits)
        tags[i] = hits[0]
    return tags


_FOUR_TAG_SQUARE = Polygon(
    name="square", dim=2,
    vertices=((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)),
    side_tags=("south", "east", "north", "west"))


class TestBoundaryTags:
    @pytest.mark.parametrize("domain, h", [
        (unit_square(), 0.25),
        (unit_square(), 1.0 / 192),
        (_FOUR_TAG_SQUARE, 0.25),
        (l_shape(), 0.25),
        (l_shape(neumann_gamma=True), 0.25),
    ], ids=["square", "square_h192", "four_tags", "lshape", "lshape_neumann"])
    def test_triangulate_matches_reference(self, domain, h):
        mesh = triangulate(domain, h)
        assert mesh.edge_tags == _side_tags_reference(mesh, domain)

    @pytest.mark.parametrize("domain, corner", [
        (l_shape(), (0.0, 0.0)),
        (l_shape(neumann_gamma=True), (0.0, 0.0)),
        # the sides meeting at (1, 0) carry different tags, and the
        # innermost edges lie within 1e-9 lengths of both
        (l_shape(neumann_gamma=True), (1.0, 0.0)),
        (_FOUR_TAG_SQUARE, (1.0, 1.0)),
    ], ids=["lshape", "lshape_neumann", "lshape_neumann_corner_1_0",
            "four_tags"])
    def test_graded_matches_reference(self, domain, corner):
        fine = geometric_refine(triangulate(domain, 0.5), [corner], 0.125, 10)
        assert fine.edge_tags == _side_tags_reference(fine, domain)

    def test_untagged_parent_edge_rejected(self):
        mesh = triangulate(unit_square(), 0.5)
        mesh.edge_tags[np.flatnonzero(mesh.boundary_mask)[0]] = None
        with pytest.raises(ValueError, match="boundary segment"):
            geometric_refine(mesh, [(1.0, 1.0)], 0.5, 2)


class TestPolygonGeometry:
    @staticmethod
    def _side_points(domain):
        # two points inside every side, plus points 1e-11 from each vertex
        v = np.asarray(domain.vertices, dtype=float)
        d = np.roll(v, -1, axis=0) - v
        t = np.array([1e-11, 0.25, 0.5, 1.0 - 1e-11])
        return (v[:, None, :] + t[None, :, None] * d[:, None, :]).reshape(
            -1, 2), np.repeat(np.arange(len(v)), len(t))

    def test_clockwise_loop_gives_the_same_normals(self):
        square = unit_square()
        clockwise = Polygon(name="square", dim=2,
                            vertices=square.vertices[::-1],
                            side_tags=square.side_tags)
        pts, _ = self._side_points(square)
        want = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        got = square.outward_normals(pts)
        assert np.array_equal(got, np.repeat(want, 4, axis=0))
        assert np.array_equal(clockwise.outward_normals(pts), got)
        # no -0.0 components
        assert not np.any(np.signbit(got) & (got == 0.0))
        assert not np.any(np.signbit(clockwise.outward_normals(pts))
                          & (got == 0.0))

    def test_points_near_a_corner_take_their_own_side(self):
        pts, side = self._side_points(l_shape())
        v = np.asarray(l_shape().vertices)
        d = np.roll(v, -1, axis=0) - v
        want = np.column_stack([d[:, 1], -d[:, 0]])
        want /= np.hypot(d[:, 0], d[:, 1])[:, None]
        assert np.array_equal(l_shape().outward_normals(pts), want[side] + 0.0)

    def test_off_boundary_and_1d_raise(self):
        with pytest.raises(ValueError):
            unit_square().outward_normals(np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            l_shape().outward_normals(np.array([[0.5, -1e-6]]))
        with pytest.raises(ValueError):
            unit_interval().outward_normals(np.array([[0.0]]))
        with pytest.raises(ValueError):
            unit_interval().contains(np.array([[0.5]]))

    def test_contains(self):
        pts = np.array([[-0.5, -0.5], [0.5, 0.5], [0.5, -0.5], [1.5, 0.5]])
        assert l_shape().contains(pts).tolist() == [True, True, False, False]
        assert unit_square().contains(pts).tolist() == [False, True, False,
                                                        False]


class TestNLambda:
    def test_1d(self):
        assert n_lambda(100, 10.0, 1) == pytest.approx(2 * math.pi * 100 / 10)

    def test_2d(self):
        assert n_lambda(400, 10.0, 2) == pytest.approx(2 * math.pi * 20 / 10)

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            n_lambda(10, 1.0, 3)


class TestTextRoundTrip:
    def test_square_bit_exact(self, tmp_path):
        mesh = triangulate(unit_square(), 1.0 / 3.0)
        text1 = mesh_to_text(mesh)
        mesh2 = mesh_from_text(text1)
        text2 = mesh_to_text(mesh2)
        assert text1 == text2
        assert mesh2.n_elements == mesh.n_elements
        np.testing.assert_array_equal(mesh.nodes, mesh2.nodes)

    def test_interval_round_trip(self, tmp_path):
        mesh = geometric_refine(uniform_interval_mesh(3), [0.0], 0.5, 2)
        p = tmp_path / "m.txt"
        save_mesh(mesh, p)
        mesh2 = load_mesh(p)
        assert mesh_to_text(mesh2) == mesh_to_text(mesh)

    def test_header_and_layout(self):
        mesh = triangulate(unit_square(), 1.0)
        lines = mesh_to_text(mesh).splitlines()
        assert lines[0] == "2 4 2"
        assert len(lines[1].split()) == 2  # node line "x y"
        # element lines are 0-based ints
        toks = lines[1 + 4].split()
        assert all(t.isdigit() for t in toks)
        # tag lines
        assert lines[-1].startswith("edge ")

    def test_tags_survive(self):
        mesh = triangulate(l_shape(neumann_gamma=True), 0.5)
        mesh2 = mesh_from_text(mesh_to_text(mesh))
        n1 = sum(e.length for e in mesh.boundary_edges() if e.tag == "neumann")
        n2 = sum(e.length for e in mesh2.boundary_edges() if e.tag == "neumann")
        assert n1 == pytest.approx(n2, abs=1e-15)


# A triangle mesh with one element and a tagged edge; each malformed text
# below breaks one line of it (or of its 1D counterpart).
_GOOD_TEXT = "2 3 1\n0 0\n1 0\n0 1\n0 1 2\nedge 0 1 robin\n"


class TestMalformedText:
    def test_good_text_reads(self):
        mesh = mesh_from_text(_GOOD_TEXT)
        assert mesh.n_elements == 1
        assert sorted(t for t in mesh.edge_tags if t) == ["robin"]

    @pytest.mark.parametrize("text, line, expected", [
        ("", 1, "header"),
        ("2 3\n", 1, "header"),
        ("2 3 1 4\n", 1, "header"),
        ("3 3 1\n", 1, "dim 1 or 2"),
        ("2 0 1\n", 1, "header"),
        ("two 3 1\n", 1, "header"),
        ("2 3 1\n0 0\n1 0\n", 4, "node 3 of 3"),
        ("2 3 1\n0 0\n1\n0 1\n0 1 2\n", 3, "node 2 of 3"),
        ("2 3 1\n0 0\n1 0\n0 inf\n0 1 2\n", 4, "finite"),
        ("2 3 1\n0 0\n1 0\n0 x\n0 1 2\n", 4, "node 3 of 3"),
        ("2 3 1\n0 0\n1 0\n0 1\n", 5, "element 1 of 1"),
        ("2 3 1\n0 0\n1 0\n0 1\n0 1\n", 5, "3 node indices"),
        ("2 3 1\n0 0\n1 0\n0 1\n0 1 3\n", 5, "below 3"),
        ("2 3 1\n0 0\n1 0\n0 1\n0 -1 2\n", 5, "below 3"),
        ("2 3 1\n0 0\n1 0\n0 1\n0 1 2.5\n", 5, "element 1 of 1"),
        ("2 3 1\n0 0\n1 0\n0 1\n0 1 2\nedge 0 1\n", 6, "'edge i j tag'"),
        ("2 3 1\n0 0\n1 0\n0 1\n0 1 2\nside 0 1 robin\n", 6, "'edge"),
        ("2 3 1\n0 0\n1 0\n0 1\n0 1 2\nedge 0 7 robin\n", 6, "below 3"),
        ("2 3 1\n\n0 0\n1 0\n\n0 1\n0 1 2\nedge 0 1 a b\n", 8, "'edge"),
        ("1 2 1\n0\n1\n0 1 2\n", 4, "2 node indices"),
        ("1 2 1\n0 0\n1\n0 1\n", 2, "1 finite coordinate"),
        ("2 3 1\n0 0\n1 0\n0 1\n0 2 1\n", 5, "counterclockwise"),
        ("2 3 1\n0 0\n1 0\n2 0\n0 1 2\n", 5, "positive area"),
        ("2 3 2\n0 0\n1 0\n0 1\n0 1 2\n1 2 0\n", 6, "those of line 5"),
        ("2 3 2\n0 0\n1 0\n0 1\n0 1 2\n\n0 1 2\n", 7, "those of line 5"),
        ("2 3 1\n0 0\n1 0\n0 1\n0 1 2\nedge 0 0 robin\n", 6,
         "boundary edge"),
        ("2 4 1\n0 0\n1 0\n0 1\n5 5\n0 1 2\nedge 0 3 robin\n", 7,
         "boundary edge"),
        ("1 2 1\n0.5\n0.5\n0 1\n", 4, "two nodes at different points"),
        ("1 2 2\n0\n1\n0 1\n1 0\n", 5, "those of line 4"),
        ("1 2 1\n0\n1\n0 1\nedge 0 1 left\n", 5, "boundary edge"),
        ("2 4 2\n0 0\n1 0\n0 1\n0.5 0.5\n0 1 2\n0 1 3\n", 7,
         "no overlap with the element of line 6"),
        ("1 4 3\n0\n1\n2\n0.5\n0 1\n1 2\n3 1\n", 8,
         "no node that lines 6 and 7 already share"),
        ("1 2 1\n1\n0\n0 1\n", 4, "in ascending order"),
    ])
    def test_names_the_line_and_what_it_expected(self, text, line, expected):
        with pytest.raises(ValueError, match=f"line {line}: expected") as err:
            mesh_from_text(text)
        assert expected in str(err.value)


class TestCellCount:
    """triangulate(P, extent / n) cuts the extent of P into n cells."""

    def test_every_interval_count(self):
        wrong = [n for n in range(1, 2001)
                 if triangulate(unit_interval(), 1.0 / n).n_elements != n]
        assert wrong == []

    def test_every_square_and_lshape_count(self):
        for n in range(1, 61):
            assert triangulate(unit_square(), 1.0 / n).n_elements == 2 * n * n
        for n in range(2, 61, 2):
            # three of the four n/2 x n/2 quadrants of (-1, 1)^2
            assert triangulate(l_shape(), 2.0 / n).n_elements == 3 * n * n // 2

    @given(st.floats(min_value=1.0 / 64, max_value=2.0))
    @settings(max_examples=200, deadline=None)
    def test_fewest_cells_no_wider_than_h(self, h):
        # n cells across: n elements on the interval, 2 n^2 on the square
        across = [triangulate(unit_interval(), h).n_elements,
                  math.isqrt(triangulate(unit_square(), h).n_elements // 2)]
        for n in across:
            assert 1.0 / n <= h * (1.0 + 2e-12)
            assert n == 1 or 1.0 / (n - 1) > h
        assert across[0] == across[1]

    @given(st.integers(min_value=1, max_value=20000),
           st.floats(min_value=-1e-13, max_value=1e-13))
    @settings(max_examples=200, deadline=None)
    def test_width_within_roundoff_of_extent_over_n(self, n, t):
        assert triangulate(unit_interval(), (1.0 + t) / n).n_elements == n


class TestValidator:
    def test_flags_bad_orientation(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        elements = np.array([[0, 2, 1]])  # clockwise
        with pytest.raises(ValueError):
            mesh_from_arrays(2, nodes, elements)

    def test_flags_nonmanifold(self):
        # three triangles sharing the edge (0, 1)
        nodes = np.array(
            [[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [1.5, 0.5]]
        )
        elements = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
        with pytest.raises(ValueError):
            mesh_from_arrays(2, nodes, elements)

    def test_shape_reg_structured(self):
        mesh = triangulate(unit_square(), 0.25)
        # right isoceles triangle: diameter/inradius = 2 + 2*sqrt(2) ~ 4.83
        assert mesh.shape_reg == pytest.approx(2.0 + 2.0 * math.sqrt(2.0), rel=1e-12)
        assert validate_mesh(mesh, max_shape_reg=5.0)

    @pytest.mark.parametrize("dim, nodes, elements, kind, named", [
        # the later element of a repeated interval took both end nodes
        (1, [0.0, 1.0], [[0, 1], [0, 1]], "orientation", (0, 1)),
        (1, [0.0, 1.0], [[0, 1], [1, 0]], "measure", (1,)),
        (1, [0.0, 1.0, 2.0, 0.5], [[0, 1], [1, 2], [3, 1]], "non-manifold",
         (0, 1, 2)),
        (1, [0.0, 1.0, 2.0], [[0, 1], [2, 1]], "measure", (1,)),
        # both counterclockwise and above the side from node 0 to node 1
        (2, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
         [[0, 1, 2], [0, 1, 3]], "orientation", (0, 1)),
    ], ids=["repeated_interval", "repeated_interval_reversed",
            "node_of_three_intervals", "descending_interval",
            "overlapping_triangles"])
    def test_array_refusals_name_their_elements(self, dim, nodes, elements,
                                                kind, named):
        with pytest.raises(MeshError) as err:
            mesh_from_arrays(dim, nodes, elements)
        assert (err.value.kind, err.value.elements) == (kind, named)
        assert err.value.tag is None
        assert f"(elements {', '.join(map(str, named))})" in str(err.value)

    def test_tag_refusal_names_the_triple(self):
        with pytest.raises(MeshError, match="not a boundary edge") as err:
            mesh_from_arrays(1, [0.0, 0.5, 1.0], [[0, 1], [1, 2]],
                             edge_tags=[(0, 0, "left"), (1, 1, "mid")])
        assert (err.value.kind, err.value.tag) == ("tag", (1, 1, "mid"))
        assert err.value.elements == ()

    # validate_mesh no longer re-checks the skeleton: `Mesh` refuses an
    # edge of three elements (test_flags_nonmanifold), a clockwise element
    # or two on one side of an edge, which would turn a normal into its
    # plus element (test_flags_bad_orientation, overlapping_triangles
    # above), and an element of zero or non-finite measure, whose normals
    # would not be unit vectors (here)
    @pytest.mark.parametrize("nodes", [
        [[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]],
        [[0.0, 0.0], [1.0, 0.0], [math.nan, 1.0]],
        [[0.0, 0.0], [math.inf, 0.0], [0.0, 1.0]],
    ], ids=["zero_length_edge", "nan_node", "infinite_node"])
    def test_mesh_refuses_a_triangle_without_unit_normals(self, nodes):
        with pytest.raises(MeshError) as err:
            mesh_from_arrays(2, np.array(nodes), [[0, 1, 2]])
        assert (err.value.kind, err.value.elements) == ("measure", (0,))

    @pytest.mark.parametrize("nodes", [[0.0, math.nan], [0.0, math.inf]],
                             ids=["nan", "infinite"])
    def test_mesh_refuses_a_non_finite_interval(self, nodes):
        with pytest.raises(MeshError, match="non-finite") as err:
            mesh_from_arrays(1, nodes, [[0, 1]])
        assert (err.value.kind, err.value.elements) == ("measure", (0,))

    def test_disjoint_intervals_pass_mesh_but_not_the_validator(self):
        mesh = mesh_from_arrays(1, [0.0, 1.0, 2.0, 3.0], [[0, 1], [2, 3]])
        with pytest.raises(ValueError, match="two boundary nodes"):
            validate_mesh(mesh)

    def test_graded_fan_allowed_without_bound(self):
        coarse = triangulate(unit_square(), 0.5)
        fine = geometric_refine(coarse, [(0.0, 0.0)], 0.125, 6)
        assert validate_mesh(fine)
        with pytest.raises(ValueError):
            validate_mesh(fine, max_shape_reg=5.0)


# -- byte identity with the lexsort build --------------------------------------


def _lattice_reference(domain, target_h):
    """triangulate's 2D lattice, nodes compacted through np.unique."""
    verts = np.asarray(domain.vertices, dtype=float)
    xmin, ymin = verts.min(axis=0)
    xmax, ymax = verts.max(axis=0)
    extent = max(xmax - xmin, ymax - ymin)
    n = max(1, int(math.ceil(extent / target_h - 1e-12)))
    while True:
        offs = (verts - np.array([xmin, ymin])) / (extent / n)
        if np.allclose(offs, np.round(offs), atol=1e-9):
            break
        n += 1
    pitch = extent / n
    nx = int(round((xmax - xmin) / pitch))
    ny = int(round((ymax - ymin) / pitch))
    gx, gy = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
    keep = domain.contains(np.column_stack([xmin + pitch * (gx.ravel() + 0.5),
                                            ymin + pitch * (gy.ravel() + 0.5)]))
    ci, cj = gx.ravel()[keep], gy.ravel()[keep]
    v00, v10 = ci * (ny + 1) + cj, (ci + 1) * (ny + 1) + cj
    v11, v01 = v10 + 1, v00 + 1
    tris = np.concatenate([np.column_stack([v00, v10, v11]),
                           np.column_stack([v00, v11, v01])])
    used = np.unique(tris)
    remap = -np.ones((nx + 1) * (ny + 1), dtype=np.int64)
    remap[used] = np.arange(len(used))
    gxx, gyy = np.meshgrid(xmin + pitch * np.arange(nx + 1),
                           ymin + pitch * np.arange(ny + 1), indexing="ij")
    return np.column_stack([gxx.ravel()[used], gyy.ravel()[used]]), remap[tris]


def _topology_reference(nodes, tris):
    """Edge arrays from a lexsort of the sorted node pairs, and h, h_min
    and shape_reg from np.linalg.norm side lengths."""
    ne = len(tris)
    directed = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]],
                               tris[:, [2, 0]]])
    owner = np.tile(np.arange(ne, dtype=np.int64), 3)
    key = np.sort(directed, axis=1)
    order = np.lexsort((key[:, 1], key[:, 0]))
    key_s, dir_s, own_s = key[order], directed[order], owner[order]
    new_edge = np.ones(len(key_s), dtype=bool)
    new_edge[1:] = np.any(key_s[1:] != key_s[:-1], axis=1)
    edge_of = np.empty(len(key_s), dtype=np.int64)
    edge_of[order] = np.cumsum(new_edge) - 1
    first = np.flatnonzero(new_edge)
    two = np.diff(np.append(first, len(key_s))) == 2
    minus = -np.ones(len(first), dtype=np.int64)
    minus[two] = own_s[first[two] + 1]
    edge_nodes = dir_s[first]
    t = nodes[edge_nodes[:, 1]] - nodes[edge_nodes[:, 0]]
    lengths = np.hypot(t[:, 0], t[:, 1])
    pts = nodes[tris]
    a = np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)
    b = np.linalg.norm(pts[:, 2] - pts[:, 1], axis=1)
    c = np.linalg.norm(pts[:, 0] - pts[:, 2], axis=1)
    d1, d2 = pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]
    area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    diam = np.maximum(a, np.maximum(b, c))
    return {
        "edge_nodes": edge_nodes,
        "edge_elems": np.column_stack([own_s[first], minus]),
        "element_edges": np.ascontiguousarray(edge_of.reshape(3, ne).T),
        "edge_normals": np.column_stack([t[:, 1], -t[:, 0]]) / lengths[:, None],
        "edge_lengths": lengths,
        "boundary_mask": minus == -1,
        "h": np.float64(np.max(diam)),
        "h_min": np.float64(np.min(diam)),
        "shape_reg": np.float64(np.max(diam / (2.0 * area / (a + b + c)))),
    }


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _assert_matches_reference(mesh, nodes, tris):
    _assert_same_bytes(mesh.nodes, nodes)
    _assert_same_bytes(mesh.elements, tris)
    for name, want in _topology_reference(nodes, tris).items():
        _assert_same_bytes(np.asarray(getattr(mesh, name)), want)


class TestBuildReference:
    """The 2D build (int64 key sort, mask node compaction, metrics
    without np.linalg.norm) gives the bits of the lexsort build."""

    @pytest.mark.parametrize("domain, extent", [(unit_square(), 1.0),
                                                (l_shape(), 2.0)],
                             ids=["square", "lshape"])
    def test_triangulate(self, domain, extent):
        for n in list(range(2, 65)) + [192]:
            nodes, tris = _lattice_reference(domain, extent / n)
            _assert_matches_reference(triangulate(domain, extent / n),
                                      nodes, tris)

    @pytest.mark.parametrize("n", [4, 10, 32])
    def test_graded_lshape(self, n):
        mesh = geometric_refine(triangulate(l_shape(), 2.0 / n),
                                [(0.0, 0.0)], 0.15, 8)
        _assert_matches_reference(mesh, mesh.nodes, mesh.elements)

    def test_interval(self):
        mesh = triangulate(unit_interval(), 0.07)
        lengths = np.abs(np.diff(mesh.nodes))
        for got, want in ((mesh.h, np.max(lengths)),
                          (mesh.h_min, np.min(lengths)),
                          (mesh.shape_reg, 1.0)):
            _assert_same_bytes(np.float64(got), np.float64(want))


# -- the point map --------------------------------------------------------------


def _per_element_points(mesh, rule):
    jac = mesh.jacobians()
    v0 = mesh.nodes[mesh.elements[:, 0]]
    return np.stack([rule.points @ jac[e].T + v0[e]
                     for e in range(mesh.n_elements)])


# rules of 4 to 441 points
_MAP_RULES = [quad_triangle(d) for d in range(2, 41, 3)]


class TestMapRule:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    @pytest.mark.parametrize("domain, extent", [(unit_square(), 1.0),
                                                (l_shape(), 2.0)],
                             ids=["square", "lshape"])
    def test_dyadic_lattice_bitwise(self, domain, extent, n):
        # at a power-of-two pitch every Jacobian product is exact, so the
        # one-product map has the per-element bits in any summation order
        mesh = triangulate(domain, extent / n)
        for rule in _MAP_RULES:
            pts, w = mesh.map_rule(np.arange(mesh.n_elements), rule)
            assert pts.flags.c_contiguous
            _assert_same_bytes(pts, _per_element_points(mesh, rule))
            _assert_same_bytes(
                w, (2.0 * mesh.areas())[:, None] * rule.weights)

    @pytest.mark.parametrize("mesh", [
        triangulate(unit_square(), 1.0 / 7), triangulate(unit_square(), 1.0 / 34),
        triangulate(l_shape(), 2.0 / 22),
        geometric_refine(triangulate(l_shape(), 0.5), [(0.0, 0.0)], 0.15, 6),
        geometric_refine(triangulate(unit_square(), 0.25),
                         [(0.0, 0.0), (1.0, 1.0)], 0.1, 8)],
        ids=["square_7", "square_34", "lshape_22", "graded_lshape",
             "graded_square"])
    def test_other_meshes_within_roundoff(self, mesh):
        # BLAS may sum the two Jacobian products of a point in either
        # order, with or without a fused multiply-add
        for rule in _MAP_RULES:
            elems = np.arange(0, mesh.n_elements, 3)
            pts, _ = mesh.map_rule(elems, rule)
            want = _per_element_points(mesh, rule)[elems]
            assert pts.flags.c_contiguous and pts.shape == want.shape
            np.testing.assert_allclose(pts, want, rtol=0,
                                       atol=1e-15 * np.abs(want).max())


# -- centroids -------------------------------------------------------------


@pytest.mark.parametrize("mesh", [
    triangulate(unit_square(), 1.0 / 37), triangulate(l_shape(), 2.0 / 22),
    geometric_refine(triangulate(l_shape(), 0.4), [(0.0, 0.0)], 0.125, 10),
    triangulate(unit_interval(), 0.07),
    geometric_refine(triangulate(unit_interval(), 0.25), [0.0], 0.2, 6)],
    ids=["square", "lshape", "graded_lshape", "interval", "graded_interval"])
def test_centroids_bitwise_equal_the_vertex_mean(mesh):
    # the Trefftz basis centers: explicit adds in vertex order carry the
    # bits of the reduction
    _assert_same_bytes(mesh.centroids(),
                       mesh.nodes[mesh.elements].mean(axis=1))
