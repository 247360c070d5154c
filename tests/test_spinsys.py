"""Spin systems, partial configurations, weights, and enumeration."""

import itertools
import math

import numpy as np
import pytest

from ssms import (
    LineGraph,
    PartialConfiguration,
    SpinSystem,
    coloring,
    complete_graph,
    config_weight,
    cycle_graph,
    grid_graph,
    hardcore,
    is_feasible,
    ising,
    partition_function,
    path_graph,
    petersen_graph,
)
from ssms.errors import (
    DegenerateSystemError,
    MissingSpinError,
    ModelParameterError,
    RepeatedVertexError,
)


def brute_partition(system, graph):
    """Independent enumeration of the total weight, one config at a time."""
    vertices = list(graph.vertices())
    edges = [(u, w) for u in vertices for w in graph.neighbors(u) if u < w]
    total = 0.0
    for spins in itertools.product(range(1, system.q + 1), repeat=len(vertices)):
        assign = dict(zip(vertices, spins))
        weight = 1.0
        for v in vertices:
            weight *= system.b[assign[v] - 1]
        for u, w in edges:
            weight *= system.A[assign[u] - 1, assign[w] - 1]
        total += weight
    return total


def test_model_constructors_validate():
    with pytest.raises(ModelParameterError):
        hardcore(0.0)
    with pytest.raises(ModelParameterError):
        hardcore(-1.0)
    with pytest.raises(ModelParameterError):
        ising(0.7)
    # a real parameter is a real number, and a bool is not one
    for make in (hardcore, ising):
        for lam in ("a", None, True):
            with pytest.raises(ModelParameterError):
                make(lam)
    with pytest.raises(ModelParameterError):
        coloring(1)
    for q in (3.0, True):
        with pytest.raises(ModelParameterError):
            coloring(q)
    with pytest.raises(ModelParameterError):
        SpinSystem(2.5, [1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]])
    assert hardcore(0.5).q == 2
    assert ising(1.0).q == 2
    assert hardcore(1).b[1] == 1.0 and ising(np.float64(1.5)).A[0, 0] == 1.5
    assert coloring(5).q == 5


def test_model_matrices():
    hc = hardcore(0.3)
    assert hc.b[0] == 1.0 and hc.b[1] == 0.3
    assert hc.A[1, 1] == 0.0 and hc.A[0, 1] == 1.0
    co = coloring(3)
    assert np.array_equal(co.A, 1.0 - np.eye(3))
    assert np.array_equal(co.b, np.ones(3))
    isg = ising(2.0)
    assert isg.A[0, 0] == 2.0 and isg.A[0, 1] == 1.0


def test_spinsystem_requires_symmetry_and_bounded_logs():
    with pytest.raises(ModelParameterError):
        SpinSystem(2, [1.0, 1.0], [[1.0, 0.5], [0.7, 1.0]])
    huge = math.exp(201)
    with pytest.raises(ModelParameterError):
        SpinSystem(2, [1.0, huge], [[1.0, 1.0], [1.0, 1.0]])
    # zero interactions are allowed, only positive entries have capped logs
    SpinSystem(2, [1.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])


def test_spinsystem_is_immutable():
    hc = hardcore(1.0)
    with pytest.raises(AttributeError):
        hc.q = 3
    with pytest.raises(ValueError):
        hc.A[0, 0] = 9.0


def test_ising_edge_weight_example():
    isg = ising(2.0)
    g = path_graph(2)
    assert config_weight(isg, g, {1: 1, 2: 1}) == 2.0
    assert config_weight(isg, g, {1: 1, 2: 2}) == 1.0


def test_config_weight_counts_induced_edges_once():
    hc = hardcore(0.5)
    g = cycle_graph(4)
    w = config_weight(hc, g, {1: 2, 2: 1, 3: 2, 4: 1})
    assert w == pytest.approx(0.25)
    # occupied neighbors kill the weight
    assert config_weight(hc, g, {1: 2, 2: 2, 3: 1, 4: 1}) == 0.0
    with pytest.raises(MissingSpinError):
        config_weight(hc, g, {1: 1}, support=[1, 2])


def test_partial_configuration_behaves_like_immutable_map():
    cfg = PartialConfiguration({2: 1, 1: 2})
    assert cfg.spin(2) == 1
    assert 1 in cfg and 3 not in cfg
    assert len(cfg) == 2
    assert cfg == PartialConfiguration({2: 1, 1: 2})
    with pytest.raises(ModelParameterError):
        PartialConfiguration([(1, 2), (1, 1)])


def test_partition_function_path_hardcore_counts_independent_sets():
    # at activity 1 the total weight counts independent sets; on a path the
    # count obeys the two-step recurrence with values 2, 3, 5, 8, ...
    counts = [2, 3]
    while len(counts) < 8:
        counts.append(counts[-1] + counts[-2])
    for n in range(1, 9):
        z = partition_function(hardcore(1.0), path_graph(n))
        assert z == pytest.approx(counts[n - 1], abs=1e-9)


def test_partition_function_matches_independent_enumeration():
    cases = [
        (hardcore(0.7), cycle_graph(5)),
        (ising(1.5), grid_graph(2, 3)),
        (coloring(3), path_graph(4)),
        (coloring(4), cycle_graph(5)),
    ]
    for system, graph in cases:
        assert partition_function(system, graph) == pytest.approx(
            brute_partition(system, graph), rel=1e-12
        )


def test_cycle_coloring_counts_match_closed_form():
    # proper q-colorings of an n-cycle: (q-1)^n + (-1)^n (q-1)
    for q, n in ((3, 4), (3, 5), (4, 5), (5, 6)):
        expected = (q - 1) ** n + (-1) ** n * (q - 1)
        assert partition_function(coloring(q), cycle_graph(n)) == pytest.approx(expected)


def test_two_coloring_odd_cycle_is_degenerate():
    with pytest.raises(DegenerateSystemError):
        partition_function(coloring(2), cycle_graph(5))
    with pytest.raises(DegenerateSystemError):
        partition_function(coloring(2), complete_graph(3))


def test_matchings_as_line_graph_occupation():
    # matchings of a graph are independent edge sets, i.e. hard-core
    # configurations on the line graph
    gamma = 0.8
    base = petersen_graph()
    lg = LineGraph(base)
    edges = list(lg.vertices())

    total = 0.0
    for k in range(len(edges) + 1):
        for subset in itertools.combinations(edges, k):
            used = set()
            ok = True
            for u, w in subset:
                if u in used or w in used:
                    ok = False
                    break
                used.add(u)
                used.add(w)
            if ok:
                total += gamma ** k
    assert partition_function(hardcore(gamma), lg) == pytest.approx(total, rel=1e-12)


def test_matchings_of_short_path():
    # P3 has matchings {}, {12}, {23}
    lg = LineGraph(path_graph(3))
    for gamma in (0.3, 1.0, 2.0):
        assert partition_function(hardcore(gamma), lg) == pytest.approx(1 + 2 * gamma)


def test_is_feasible():
    hc = hardcore(1.0)
    g = path_graph(3)
    sup = [1, 2, 3]
    assert is_feasible(hc, g, {1: 2, 2: 1}, sup)
    assert not is_feasible(hc, g, {1: 2, 2: 2}, sup)
    assert is_feasible(coloring(3), complete_graph(3), {1: 1, 2: 2}, [1, 2, 3])
    assert not is_feasible(coloring(2), complete_graph(3), {}, [1, 2, 3])


def test_repeated_support_vertex_is_rejected():
    # A vertex listed twice would have its field and edges counted twice.
    g = path_graph(3)
    with pytest.raises(RepeatedVertexError):
        is_feasible(ising(1.5), g, {1: 1}, [1, 2, 2, 3])
    with pytest.raises(RepeatedVertexError):
        config_weight(ising(1.5), g, {1: 1, 2: 1, 3: 2}, [1, 2, 3, 1])


def test_labels_round_parameters_compactly():
    assert hardcore(1.0).label == "hardcore(lambda=1)"
    assert ising(1.5).label == "ising(lambda=1.5)"
    assert coloring(4).label == "coloring(q=4)"
