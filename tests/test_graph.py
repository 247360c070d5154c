"""Graph realizations: neighborhoods, spheres, growth bounds, vertex codecs."""

import math

import pytest
from test_cache_keys import lookup

from ssms import (
    FiniteGraph,
    Lattice,
    LineGraph,
    RegularTree,
    complete_graph,
    cycle_graph,
    graph_from_spec,
    grid_graph,
    hardcore,
    load_edge_list,
    path_graph,
    petersen_graph,
    star_graph,
)
from ssms.errors import ConfigError, InvalidVertexError, ModelParameterError
from ssms.sampler import MarginalCache


def test_path_graph_structure():
    g = path_graph(4)
    assert g.is_finite()
    assert list(g.vertices()) == [1, 2, 3, 4]
    assert g.neighbors(1) == (2,)
    assert g.neighbors(2) == (1, 3)
    assert g.degree_bound() == 2


def test_cycle_and_complete_and_star():
    c = cycle_graph(5)
    assert sorted(c.neighbors(1)) == [2, 5]
    k = complete_graph(4)
    assert k.neighbors(2) == (1, 3, 4)
    s = star_graph(3)
    assert s.n == 4
    assert s.neighbors(1) == (2, 3, 4)
    assert s.neighbors(3) == (1,)


def test_grid_graph_numbering_row_major():
    g = grid_graph(3, 3)
    # vertex (r, c) is r * cols + c + 1; the center is 5
    assert sorted(g.neighbors(5)) == [2, 4, 6, 8]
    assert sorted(g.neighbors(1)) == [2, 4]
    assert g.degree_bound() == 4


def test_petersen_is_three_regular():
    g = petersen_graph()
    assert g.n == 10
    assert all(len(g.neighbors(v)) == 3 for v in g.vertices())
    # girth 5: no vertex at distance 1 or 2 shares two common neighbors
    assert len(g.sphere(1, 2)) == 6


def test_finite_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(ConfigError):
        FiniteGraph(3, [(1, 1)])
    with pytest.raises(ConfigError):
        FiniteGraph(3, [(1, 2), (2, 1)])
    for edge in ((1, 3), (1, 2.0), (True, 2)):
        with pytest.raises(InvalidVertexError):
            FiniteGraph(2, [edge])


def test_sphere_and_ball_on_path():
    g = path_graph(5)
    assert g.sphere(3, 1) == (2, 4)
    assert g.sphere(3, 2) == (1, 5)
    assert g.sphere(1, 2) == (3,)
    assert g.ball_interior(3, 2) == (2, 3, 4)
    assert g.ball(3, 2) == (1, 2, 3, 4, 5)
    assert g.sphere(1, 4) == (5,)
    assert g.sphere(1, 5) == ()


def test_sphere_respects_distance_not_reachability_order():
    # on a cycle the two arcs meet; distance-2 sphere has exactly two vertices
    c = cycle_graph(6)
    assert c.sphere(1, 2) == (3, 5)
    assert c.sphere(1, 3) == (4,)


def test_finite_growth_bound_is_worst_case_sphere():
    g = path_graph(5)
    assert g.growth_bound(1) == 2
    assert g.growth_bound(2) == 2
    assert g.growth_bound(4) == 1
    assert g.growth_bound(7) == 0
    p = petersen_graph()
    assert p.growth_bound(1) == 3
    assert p.growth_bound(2) == 6


@pytest.mark.parametrize(
    "graph",
    [path_graph(3), Lattice(2), RegularTree(3), LineGraph(cycle_graph(4)), LineGraph(Lattice(2))],
    ids=["finite", "lattice", "tree", "line-finite", "line-lattice"],
)
def test_growth_bound_at_radius_zero_and_below(graph):
    assert graph.growth_bound(0) == 1
    for ell in (-1, 1.5, True):
        with pytest.raises(ModelParameterError):
            graph.growth_bound(ell)


def test_lattice_neighbors_and_spheres():
    z2 = Lattice(2)
    assert sorted(z2.neighbors((0, 0))) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert len(z2.sphere((0, 0), 1)) == 4
    assert len(z2.sphere((0, 0), 2)) == 8
    assert len(z2.sphere((3, -2), 5)) == 20
    assert len(z2.ball_interior((0, 0), 2)) == 5
    assert not z2.is_finite()


def test_neighbors_are_emitted_sorted():
    # Neighbors are emitted in order, not sorted after the fact; check the
    # order at vertices with negative, zero and positive coordinates.
    cases = [(Lattice(d), [(0,) * d, tuple(range(-1, d - 1)), (3,) * d]) for d in (1, 2, 3, 4)]
    lz = LineGraph(Lattice(2))
    cases.append((lz, [((0, 0), (1, 0)), ((0, 0), (0, 1)), ((-2, 3), (-2, 4))]))
    t = RegularTree(3)
    cases.append((t, [(), (2,), (0, 1, 0)]))
    for graph, vertices in cases:
        for v in vertices:
            nb = graph.neighbors(v)
            assert list(nb) == sorted(nb)
            assert len(set(nb)) == len(nb) == graph.degree_bound()
            assert v not in nb
            assert all(v in graph.neighbors(w) for w in nb)


def test_neighbors_validates_the_vertex():
    cases = [
        (Lattice(2), [(0,), (0, 0.5), [0, 0], (True, 0)]),
        (LineGraph(Lattice(2)), [((1, 0), (0, 0)), ((0, 0), (1, 1)), (0, 0)]),
        (RegularTree(3), [(0, 2), (3,), 0]),
        (path_graph(3), [0, 4, (1,)]),
    ]
    for graph, bad in cases:
        for v in bad:
            with pytest.raises(InvalidVertexError):
                graph.neighbors(v)


def test_lattice_growth_bound_matches_sphere_sizes():
    for dim in (1, 2, 3):
        g = Lattice(dim)
        origin = (0,) * dim
        for ell in (1, 2, 3):
            assert g.growth_bound(ell) == len(g.sphere(origin, ell))


def test_lattice_translated_contexts_share_one_cache_entry():
    z2 = Lattice(2)
    cache = MarginalCache(hardcore(1.0), z2, 1)
    ctx = {(1, 0): 2, (0, 1): 1}
    shifted = {(4, 5): 2, (3, 6): 1}
    first = lookup(cache, "min_intervals", (0, 0), ctx)
    assert lookup(cache, "min_intervals", (3, 5), shifted) is first
    assert len(cache._parts) == 1
    # The translate read at the origin is a different (empty) ball context.
    assert lookup(cache, "min_intervals", (0, 0), shifted) is not first
    assert len(cache._parts) == 2


def test_lattice_box_canonical_order():
    z2 = Lattice(2)
    box = z2.box((1, -1), (2, 2))
    assert box == ((1, -1), (1, 0), (2, -1), (2, 0))
    with pytest.raises(ConfigError):
        z2.box((0, 0), (0, 2))
    # origin and shape are sequences of one integer per axis
    for origin, shape in (((0,), (2, 2)), (5, (2, 2)), ((0, 0), 5)):
        with pytest.raises(ConfigError):
            z2.box(origin, shape)
    # origin coordinates and sides are integers, and a bool is not one
    for origin, shape in (((0, 0), (2.0, 2)), ((0, 0), (True, 2)), ((0.5, 0), (2, 2))):
        with pytest.raises(ConfigError):
            z2.box(origin, shape)


def test_regular_tree_spheres_and_paths():
    t = RegularTree(3)
    root = ()
    assert len(t.neighbors(root)) == 3
    assert len(t.neighbors((0,))) == 3
    assert len(t.sphere(root, 1)) == 3
    assert len(t.sphere(root, 2)) == 6
    assert len(t.sphere(root, 3)) == 12
    assert t.growth_bound(3) == 12
    # a non-root vertex sees the same growth
    assert len(t.sphere((0, 1), 2)) == 6


def test_regular_tree_rejects_bad_children():
    t = RegularTree(3)
    assert (0, 2) not in t  # inner vertices have 2 children, indexed 0 and 1
    assert (2,) in t
    with pytest.raises(InvalidVertexError):
        t.check_vertex((0, 5))


def test_line_graph_of_path_and_triangle():
    lp = LineGraph(path_graph(3))
    assert list(lp.vertices()) == [(1, 2), (2, 3)]
    assert lp.neighbors((1, 2)) == ((2, 3),)
    lt = LineGraph(complete_graph(3))
    assert len(list(lt.vertices())) == 3
    assert all(len(lt.neighbors(v)) == 2 for v in lt.vertices())


def test_line_graph_of_lattice_is_infinite_degree_six():
    lz = LineGraph(Lattice(2))
    e = ((0, 0), (1, 0))
    assert e in lz
    assert len(lz.neighbors(e)) == 6
    assert not lz.is_finite()
    assert len(lz.sphere(e, 1)) == 6
    assert lz.growth_bound(1) >= 6


def test_line_graph_vertex_is_sorted_pair():
    lp = LineGraph(path_graph(3))
    assert (2, 1) not in lp
    assert (1, 3) not in lp


def test_format_parse_round_trip():
    z2 = Lattice(2)
    for v in ((0, 0), (-3, 7)):
        assert z2.parse_vertex(z2.format_vertex(v)) == v
    g = path_graph(4)
    assert g.parse_vertex(g.format_vertex(3)) == 3
    lz = LineGraph(Lattice(2))
    e = ((0, 0), (0, 1))
    assert lz.parse_vertex(lz.format_vertex(e)) == e
    t = RegularTree(3)
    for v in ((), (0,), (2, 1, 0)):
        assert t.parse_vertex(t.format_vertex(v)) == v


def test_bounded_format_cuts_only_past_64_coordinates():
    t = RegularTree(3)
    at_most = tuple(i % 3 for i in range(64))
    assert t.format_bounded(at_most) == t.format_vertex(at_most)
    longer = (1,) + at_most
    assert t.format_bounded(longer) == "(1,0,1,2,0,1,2,0,...,2,0,1,2,0,1,2,0; 65 coordinates)"
    g = path_graph(4)
    assert g.format_bounded(3) == "3"
    lz = LineGraph(Lattice(2))
    assert lz.format_bounded(((0, 0), (0, 1))) == "((0,0),(0,1))"
    # The tree edge between depths 100 and 101 is a pair of tree paths, 407
    # characters in full: each endpoint is cut as the tree cuts it.
    deep = (0,) + (1,) * 99
    edge = (deep, deep + (0,))
    lt = LineGraph(t)
    assert edge in lt and len(lt.format_vertex(edge)) == 407
    assert lt.format_bounded(edge) == (
        "((0,1,1,1,1,1,1,1,...,1,1,1,1,1,1,1,1; 100 coordinates),"
        "(0,1,1,1,1,1,1,1,...,1,1,1,1,1,1,1,0; 101 coordinates))"
    )


def test_parse_vertex_rejects_garbage():
    # malformed text is a ConfigError; well-formed but absent vertices are
    # InvalidVertexError
    z2 = Lattice(2)
    with pytest.raises(ConfigError):
        z2.parse_vertex("(1,")
    with pytest.raises(InvalidVertexError):
        z2.parse_vertex("(1,2,3)")
    g = path_graph(3)
    with pytest.raises(ConfigError):
        g.parse_vertex("x")
    with pytest.raises(InvalidVertexError):
        g.parse_vertex("9")


def test_load_edge_list_and_graph_from_spec(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("3 2\n1 2\n2 3\n")
    g = load_edge_list(path)
    assert g.n == 3
    assert g.edges == ((1, 2), (2, 3))

    assert isinstance(graph_from_spec("z2"), Lattice)
    assert graph_from_spec("z3").dim == 3
    assert graph_from_spec("tree:4").degree == 4
    assert graph_from_spec(f"file:{path}").n == 3
    wrapped = graph_from_spec(f"line:file:{path}")
    assert isinstance(wrapped, LineGraph)
    with pytest.raises(ModelParameterError):
        graph_from_spec("z0")
    with pytest.raises(ConfigError):
        graph_from_spec("hypercube")


def test_load_edge_list_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n1 2\n")
    with pytest.raises(ConfigError):
        load_edge_list(bad)


def test_infinite_graphs_have_no_vertex_list():
    z2 = Lattice(2)
    with pytest.raises(Exception):
        list(z2.vertices())


def test_growth_bound_dominates_lattice_dim3():
    # closed form agrees with a direct count a bit further out
    z3 = Lattice(3)
    assert z3.growth_bound(4) == len(z3.sphere((0, 0, 0), 4))
    assert z3.growth_bound(1) == 6
    assert math.isfinite(z3.growth_bound(6))
