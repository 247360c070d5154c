"""Conditional marginals, worst-case boundary scans, and mixing rates."""

import itertools
import math
import random

import numpy as np
import pytest

from ssms import (
    Lattice,
    SpinSystem,
    coloring,
    complete_graph,
    conditional_marginal,
    cycle_graph,
    estimate_mixing_rate,
    grid_graph,
    hardcore,
    ising,
    min_marginals,
    path_graph,
)
from ssms.errors import (
    InfeasibleBoundaryError,
    InfeasibleContextError,
    InternalError,
    ModelParameterError,
    NotSeparatingError,
    RepeatedVertexError,
)
from ssms.marginals import mixing_rate_estimate
from ssms.sampler import MarginalCache


def enumerate_marginal(system, graph, vertex, context):
    """Direct enumeration over all completions of the free vertices."""
    vertices = sorted(set(graph.vertices()) - set(context))
    edges = [
        (u, w)
        for u in graph.vertices()
        for w in graph.neighbors(u)
        if u < w
    ]
    out = np.zeros(system.q)
    for spins in itertools.product(range(1, system.q + 1), repeat=len(vertices)):
        assign = dict(zip(vertices, spins))
        assign.update(context)
        weight = 1.0
        for v in vertices:
            weight *= system.b[assign[v] - 1]
        for u, w in edges:
            weight *= system.A[assign[u] - 1, assign[w] - 1]
        out[assign[vertex] - 1] += weight
    return out / out.sum()


def test_conditional_marginal_against_enumeration():
    rng = random.Random(7)
    graphs = [path_graph(4), cycle_graph(5), grid_graph(2, 3), complete_graph(4)]
    systems = [hardcore(0.6), ising(1.4), coloring(3), coloring(5)]
    for _ in range(40):
        graph = rng.choice(graphs)
        system = rng.choice(systems)
        vertices = list(graph.vertices())
        vertex = rng.choice(vertices)
        context = {}
        for u in vertices:
            if u != vertex and rng.random() < 0.4:
                context[u] = rng.randrange(1, system.q + 1)
        frozen = dict(context)
        try:
            got = conditional_marginal(system, graph, vertex, context, vertices)
        except (InfeasibleBoundaryError, InfeasibleContextError):
            # the enumerator must agree that no completion has weight
            vertices_free = sorted(set(graph.vertices()) - set(frozen))
            total = 0.0
            for spins in itertools.product(
                range(1, system.q + 1), repeat=len(vertices_free)
            ):
                assign = dict(zip(vertices_free, spins))
                assign.update(frozen)
                w = 1.0
                for v in assign:
                    w *= system.b[assign[v] - 1]
                for u in graph.vertices():
                    for x in graph.neighbors(u):
                        if u < x:
                            w *= system.A[assign[u] - 1, assign[x] - 1]
                total += w
            assert total == 0.0
            continue
        want = enumerate_marginal(system, graph, vertex, frozen)
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert context == frozen


def test_exact_conditionals_share_their_errors():
    # conditional_marginal and the capped sampler's oracle run one miss, so
    # they raise the same errors.  On the path 1-2-3 every cell of this
    # system is e^708: each spin of vertex 2 sums four, a finite 4 e^708,
    # but the two together overflow, so the normalized row is all zeros.
    a, b = math.exp(199.0), math.exp(310.0 / 3)
    overflowing = SpinSystem(2, [b, b], [[a, a], [a, a]])
    g = path_graph(3)
    for lookup in (
        lambda system, v, fixed: conditional_marginal(system, g, v, fixed, [1, 2, 3]),
        lambda system, v, fixed: MarginalCache(system, g, 1).whole_graph_marginal(v, fixed),
    ):
        with pytest.raises(InternalError, match="normalization drifted by 1.0"):
            lookup(overflowing, 2, {})
        with pytest.raises(InfeasibleBoundaryError, match="admits no positive-weight extension"):
            lookup(hardcore(1.0), 3, {1: 2, 2: 2})


def test_marginal_on_lattice_needs_separating_context():
    z2 = Lattice(2)
    with pytest.raises(NotSeparatingError):
        conditional_marginal(
            hardcore(1.0), z2, (0, 0), {(1, 0): 1}, [(0, 0), (0, 1), (1, 0)]
        )


def test_repeated_support_vertex_is_rejected():
    # Listing vertex 2 twice used to walk its edges twice and give
    # [0.5385, 0.4615] instead of [0.52, 0.48].
    g = path_graph(3)
    np.testing.assert_allclose(
        conditional_marginal(ising(1.5), g, 3, {1: 1}, [1, 2, 3]), [0.52, 0.48]
    )
    with pytest.raises(RepeatedVertexError):
        conditional_marginal(ising(1.5), g, 3, {1: 1}, [1, 2, 2, 3])


def test_min_marginals_path_center():
    # midpoint of P3 at radius 1: both ends unoccupied gives the largest
    # chance of occupation, one occupied end forces vacancy
    hc = hardcore(1.0)
    g = path_graph(3)
    p = min_marginals(hc, g, {}, 2, 1)
    assert p[1] == pytest.approx(0.5)   # unoccupied is never rarer than 1/2
    assert p[2] == pytest.approx(0.0)   # occupation can be forbidden outright
    assert p[0] == pytest.approx(0.5)   # the rest is the zone of indecision
    assert p[1:].sum() + p[0] == pytest.approx(1.0)


def test_min_marginals_grid_center():
    lam = 0.5
    g = grid_graph(3, 3)
    p = min_marginals(hardcore(lam), g, {}, 5, 1)
    # an occupied neighbor forbids occupation outright, while the worst
    # case for vacancy is a fully empty boundary
    assert p[2] == pytest.approx(0.0)
    assert p[1] == pytest.approx(1 / (1 + lam))
    assert p[0] == pytest.approx(lam / (1 + lam))


def test_min_marginals_skips_infeasible_boundaries():
    # on a triangle the sphere around a vertex is one edge; equal-spin
    # boundary pairs are infeasible for coloring and must not be scanned,
    # and every feasible pair forces the center, so each per-spin worst
    # case is zero and the zone takes all the mass
    p = min_marginals(coloring(3), complete_graph(3), {}, 1, 1)
    assert p[1:].sum() == pytest.approx(0.0, abs=1e-12)
    assert p[0] == pytest.approx(1.0)


def graph_sphere(graph, v, ell):
    """Vertices at distance exactly ell from v, by plain breadth first search."""
    dist = {v: 0}
    frontier = [v]
    for d in range(1, ell + 1):
        nxt = []
        for u in frontier:
            for w in graph.neighbors(u):
                if w not in dist:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return sorted(u for u, d in dist.items() if d == ell)


def test_mixing_rate_estimate_matches_pairwise_boundary_scan():
    rng = random.Random(11)
    graphs = [path_graph(4), cycle_graph(5), grid_graph(2, 3)]
    systems = [hardcore(0.8), ising(1.6), coloring(3)]
    checked = 0
    for _ in range(25):
        graph = rng.choice(graphs)
        system = rng.choice(systems)
        vertex = rng.choice(list(graph.vertices()))
        ell = rng.choice([1, 2])
        sphere = graph_sphere(graph, vertex, ell)

        rows = []
        free = [u for u in graph.vertices() if u not in sphere and u != vertex]
        edges = [
            (u, w) for u in graph.vertices() for w in graph.neighbors(u) if u < w
        ]
        for spins in itertools.product(range(1, system.q + 1), repeat=len(sphere)):
            boundary = dict(zip(sphere, spins))
            row = np.zeros(system.q)
            for inner in itertools.product(
                range(1, system.q + 1), repeat=len(free) + 1
            ):
                assign = dict(zip([vertex] + free, inner))
                assign.update(boundary)
                weight = 1.0
                for u in assign:
                    weight *= system.b[assign[u] - 1]
                for u, w in edges:
                    weight *= system.A[assign[u] - 1, assign[w] - 1]
                row[assign[vertex] - 1] += weight
            if row.sum() > 0.0:
                rows.append(row / row.sum())
        pairwise = 0.0
        for a in rows:
            for b in rows:
                pairwise = max(pairwise, 0.5 * float(np.abs(a - b).sum()))
        got = mixing_rate_estimate(system, graph, vertex, ell)
        assert got == pytest.approx(pairwise, abs=1e-12)
        checked += 1
    assert checked == 25


def test_estimate_mixing_rate_known_values():
    # independent spins never disagree
    f = estimate_mixing_rate(ising(1.0), path_graph(3), [1])
    assert f == {1: 0.0}
    # P3 center at radius 1, activity 1: occupied requires both ends empty,
    # and boundaries shift the center's law between (1/2,1/2) and (1,0)
    f = estimate_mixing_rate(hardcore(1.0), path_graph(3), [1])
    assert f[1] == pytest.approx(0.5)
    # one entry per distinct radius, in ascending order
    assert list(estimate_mixing_rate(hardcore(1.0), path_graph(3), [2, 1, 2])) == [1, 2]


def test_estimate_mixing_rate_names_an_empty_probe_list():
    with pytest.raises(ModelParameterError, match="empty probe list"):
        estimate_mixing_rate(hardcore(0.5), Lattice(2), [1], probes=[])


@pytest.mark.parametrize("ell", [0, 1.5, True])
def test_radius_must_be_a_positive_integer(ell):
    with pytest.raises(ModelParameterError, match="radius"):
        min_marginals(hardcore(1.0), path_graph(3), {}, 2, ell)
