"""Marginal-cache keys: integer ball codes against the direct computations.

The cache keys a lookup at v by ``(graph.ball_class(v), code)``, where
``code`` reads the context on v's sorted ball in base q+1.  These checks hold
the cache to the uncached marginal routines, bit for bit, including when an
entry was filled at a translate of v, and check the ball-order invariant the
translation sharing rests on: ``LocalGraph.translate`` maps a class
representative's sorted ball onto the ball of any vertex of its class, which
is how the cache builds every ball after a class's first.  Misses are enumerated on a ball frame shared by
the class, so the same checks hold the frames to the graph itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssms import (
    Lattice,
    LineGraph,
    RegularTree,
    SpinSystem,
    coloring,
    conditional_marginal,
    grid_graph,
    hardcore,
    ising,
    min_marginals,
)
from ssms.bruteforce import ENUM_CAP
from ssms.sampler import MarginalCache

# Non-unit fields on every spin and an all-ones row for spin 1: the compiled
# enumeration skips that row, and the other entries (neither 0 nor 1) make
# any change in the order of the factors show in the last bits.
THREE_SPIN = SpinSystem(
    3, [0.7, 1.3, 2.1], [[1.0, 1.0, 1.0], [1.0, 0.3, 1.7], [1.0, 1.7, 2.9]], label="three-spin"
)

# Graph and radius, with the systems drawn there.  Colorings are used only
# where q exceeds the degree, so every drawn partial coloring extends to the
# whole ball.
CASES = {
    "z1-ell2": (Lattice(1), 2, (hardcore(1.0), ising(1.5), coloring(3))),
    "z2-ell1": (Lattice(2), 1, (hardcore(1.0), ising(1.5), coloring(5))),
    "z2-ell2": (Lattice(2), 2, (hardcore(0.3), ising(1.5), THREE_SPIN)),
    "z3-ell1": (Lattice(3), 1, (hardcore(1.0), ising(1.5))),
    "line:z2-ell1": (LineGraph(Lattice(2)), 1, (hardcore(1.0), ising(1.5))),
    "line:z2-ell2": (LineGraph(Lattice(2)), 2, (hardcore(1.0), ising(1.5))),
    "tree:3-ell2": (RegularTree(3), 2, (hardcore(1.0), ising(1.5), coloring(4))),
    "grid4x4-ell2": (grid_graph(4, 4), 2, (hardcore(1.0), ising(1.5), coloring(5), THREE_SPIN)),
}

PROPERTY = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def _vertex(data, graph):
    coord = st.integers(-4, 4)
    if graph.kind == "lattice":
        return tuple(data.draw(st.lists(coord, min_size=graph.dim, max_size=graph.dim)))
    if graph.kind == "line":
        d = graph.base.dim
        u = tuple(data.draw(st.lists(coord, min_size=d, max_size=d)))
        i = data.draw(st.integers(0, d - 1))
        return (u, u[:i] + (u[i] + 1,) + u[i + 1:])
    if graph.kind == "tree":
        depth = data.draw(st.integers(0, 3))
        path = [data.draw(st.integers(0, graph.degree - 1))] if depth else []
        path += [data.draw(st.integers(0, graph.degree - 2)) for _ in range(depth - 1)]
        return tuple(path)
    return data.draw(st.sampled_from(graph.vertices()))


def _vertex_of_class(data, graph, v):
    """A drawn vertex of v's ball class on a lattice or its line graph."""
    d = graph.dim if graph.kind == "lattice" else graph.base.dim
    u = tuple(data.draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d)))
    if graph.kind == "lattice":
        return u
    return (u, tuple(a + b for a, b in zip(u, graph.ball_class(v))))


def _feasible_assignment(data, system, graph, vertices):
    """Spins on ``vertices`` drawn one by one in order; a drawn spin that
    clashes with an assigned neighbor is replaced by the first compatible
    one, so the assignment has positive weight."""
    full = {}
    for w in vertices:
        wanted = data.draw(st.integers(1, system.q))
        ok = [
            s for s in range(1, system.q + 1)
            if system.b[s - 1] > 0
            and all(system.A[s - 1, full[x] - 1] > 0 for x in graph.neighbors(w) if x in full)
        ]
        full[w] = wanted if wanted in ok else ok[0]
    return full


def _contexts(data, system, graph, v, ell, max_free=12):
    """A feasible context on v's ball that leaves v free, and its variants
    that differ from it at exactly one ball vertex.

    A base context that would leave more than ``max_free`` ball vertices
    besides v free has its free sphere vertices fixed, and then interior
    ones past the first ``max_free``, so a large ball stays quick to
    enumerate and such a context conditions v on its whole sphere.
    ``max_free`` is lowered where needed to keep v and one more free vertex
    within the enumeration cap.

    Spins are drawn vertex by vertex in ball order; a drawn spin that clashes
    with an assigned ball neighbor is replaced by the first compatible one, so
    the whole assignment has positive weight on the ball, and every context
    returned, being a part of it, is feasible.  A cache key that ignored any
    one ball vertex would give a variant the entry of the base context.
    """
    ball = graph.ball(v, ell)
    full = _feasible_assignment(data, system, graph, ball)
    keep = data.draw(st.lists(st.booleans(), min_size=len(ball), max_size=len(ball)))
    free = [w for w, k in zip(ball, keep) if not k and w != v]
    while system.q ** (max_free + 2) > ENUM_CAP:
        max_free -= 1
    pinned = set()
    if len(free) > max_free:
        sphere = graph.sphere(v, ell)
        pinned = set(free) - set([w for w in free if w not in sphere][:max_free])
    base = {w: s for (w, s), k in zip(full.items(), keep) if (k or w in pinned) and w != v}
    variants = [base]
    for w in ball:
        if w != v:
            variant = {x: s for x, s in full.items() if (x in base) != (x == w)}
            variants.append(variant)
    return variants


def _restricted(graph, v, ell, lam):
    """The context on v's sorted ball and the support the cache would use."""
    ball = graph.ball(v, ell)
    restricted = {w: lam[w] for w in ball if w in lam}
    support = [w for w in ball if w not in restricted] + list(restricted)
    return restricted, support


@pytest.mark.parametrize("graph,ell,systems", CASES.values(), ids=CASES.keys())
@PROPERTY
@given(data=st.data())
def test_cache_equals_direct_marginals(graph, ell, systems, data):
    system = data.draw(st.sampled_from(systems))
    v = _vertex(data, graph)
    contexts = _contexts(data, system, graph, v, ell)
    sphere = graph.sphere(v, ell)
    cache = MarginalCache(system, graph, ell)
    translated = graph.kind in ("lattice", "line")
    if graph.kind == "line":
        # Look up an edge of another direction first: a ball frame shared
        # across directions would then give v the wrong ball geometry.
        u, w = v
        i = next(i for i, (a, b) in enumerate(zip(u, w)) if a != b)
        j = (i + 1) % len(u)
        other = (u, u[:j] + (u[j] + 1,) + u[j + 1:])
        cache.min_intervals(other, {x: 1 for x in graph.ball(other, ell) if x != other})
    if translated:
        # Fill one cache at translates of v, so the lookups at v must hit.
        for lam in contexts:
            vt = _vertex_of_class(data, graph, v)
            lam_t = dict(zip(graph.translate(lam, v, vt), lam.values()))
            cache.min_intervals(vt, lam_t)
            if all(w in lam for w in sphere):
                cache.sphere_conditional(vt, lam_t)
    size = len(cache._parts)
    for lam in contexts:
        restricted, support = _restricted(graph, v, ell, lam)
        p = cache.min_intervals(v, lam).p
        assert np.array_equal(p, min_marginals(system, graph, restricted, v, ell))
        if all(w in lam for w in sphere):
            mu = cache.sphere_conditional(v, lam).p[1:]
            assert np.array_equal(mu, conditional_marginal(system, graph, v, restricted, support))
    if translated:
        assert len(cache._parts) == size


@pytest.mark.parametrize("graph", [Lattice(1), Lattice(2), Lattice(3), LineGraph(Lattice(2))],
                         ids=["z1", "z2", "z3", "line:z2"])
@PROPERTY
@given(data=st.data())
def test_sorted_ball_is_a_translate_of_its_class_representative(graph, data):
    v = _vertex(data, graph)
    ell = data.draw(st.integers(1, 3))
    if graph.kind == "lattice":
        origin = (0,) * graph.dim
        assert graph.ball_class(v) is None
    else:
        direction = graph.ball_class(v)
        origin = ((0,) * len(direction), direction)
        assert graph.ball_class(origin) == direction
    assert graph.translate(graph.ball(v, ell), v, origin) == graph.ball(origin, ell)
    assert graph.translate(graph.sphere(origin, ell), origin, v) == graph.sphere(v, ell)


BALL_GRAPHS = {
    "z1": Lattice(1),
    "z2": Lattice(2),
    "z3": Lattice(3),
    "line:z2": LineGraph(Lattice(2)),
    "tree:3": RegularTree(3),
    "grid4x4": grid_graph(4, 4),
}


@pytest.mark.parametrize("graph", BALL_GRAPHS.values(), ids=BALL_GRAPHS.keys())
@pytest.mark.parametrize("ell", [1, 2, 3])
@PROPERTY
@given(data=st.data())
def test_cached_ball_parts_equal_the_graph_queries(graph, ell, data):
    # Only a class's first vertex is searched; every later one translates
    # its ball.  The drawn order makes the representative a drawn vertex
    # rather than the origin, and revisits some vertices.
    cache = MarginalCache(hardcore(1.0), graph, ell)
    for _ in range(data.draw(st.integers(1, 6))):
        v = _vertex(data, graph)
        sphere, ball, cls, _ = cache.ball_parts(v)
        assert (sphere, ball, cls) == (graph.sphere(v, ell), graph.ball(v, ell), graph.ball_class(v))


FINITE = {name: case for name, case in CASES.items() if case[0].is_finite()}


@pytest.mark.parametrize("graph,ell,systems", FINITE.values(), ids=FINITE.keys())
@PROPERTY
@given(data=st.data())
def test_oracle_equals_conditional_marginal(graph, ell, systems, data):
    """The bounded sampler's oracle enumerates the whole graph on a support
    the cache compiles once; every context must give ``conditional_marginal``
    on the whole graph bit for bit.  Besides v, a few vertices are left
    free, and each context is followed by its variants that differ from it
    at one vertex, all looked up in one cache."""
    system = data.draw(st.sampled_from(systems))
    vertices = graph.vertices()
    v = data.draw(st.sampled_from(vertices))
    full = _feasible_assignment(data, system, graph, vertices)
    max_free = 1
    while system.q ** (max_free + 3) <= 2**12:
        max_free += 1
    free = data.draw(st.lists(st.sampled_from(vertices), max_size=max_free, unique=True))
    base = {w: s for w, s in full.items() if w != v and w not in free}
    cache = MarginalCache(system, graph, ell)
    for w in [v, *data.draw(st.lists(st.sampled_from(vertices), max_size=4, unique=True))]:
        lam = {x: s for x, s in full.items() if x != v and (x in base) != (x == w)}
        p = cache.whole_graph_marginal(v, lam).p
        assert p[0] == 0.0
        assert np.array_equal(p[1:], conditional_marginal(system, graph, v, lam, vertices))
