"""Marginal-cache keys: spin tuples read by id against the direct computations.

The cache keys a lookup at v by ``(graph.ball_class(v), spins)``, where
``spins`` is the context on v's sorted ball, read by one ``itemgetter`` over
the ball's interned ids from the engine's spin list.  These checks hold that
key to the base-(q+1) integer code it replaced, and the cache to the
uncached marginal routines, bit for bit, including when an entry was filled
at a translate of v, and check the ball-order invariant the translation
sharing rests on: ``LocalGraph.translate`` maps a class representative's
sorted ball onto the ball of any vertex of its class, which is how the
cache builds every ball after a class's first.  Misses are enumerated on a
ball frame shared by the class, so the same checks hold the frames to the
graph itself.

The lookups take an id and the spin list; ``lookup`` runs one under a
context keyed by vertex, as the engine would hold it.
"""

from unittest.mock import patch

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
from ssms import sampler
from ssms.marginals import _ball_min_marginals
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


def lookup(cache, name, v, lam):
    """The cache's lookup ``name`` (``min_intervals`` or
    ``sphere_conditional``) at the vertex v under the context ``lam`` keyed
    by vertex: lam is interned and written into the cache's spin list for
    the call, and its slots are zeroed after, as the engine leaves them."""
    ids = cache._ids
    spins = ids.spins
    slots = [ids[w] for w in lam]
    for i, s in zip(slots, lam.values()):
        spins[i] = s
    try:
        return getattr(cache, name)(ids[v], spins)
    finally:
        for i in slots:
            spins[i] = 0


def ball_parts(cache, v):
    """v's memo entry read back by vertex: (sphere, sorted ball, ball class,
    class p1 bound)."""
    vertices = cache._ids.vertices
    sphere, getter, cls, bound = cache.entry(cache._ids[v])
    return tuple(map(vertices.__getitem__, sphere)), getter(vertices), cls, bound


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
        lookup(cache, "min_intervals", other, {x: 1 for x in graph.ball(other, ell) if x != other})
    if translated:
        # Fill one cache at translates of v, so the lookups at v must hit.
        for lam in contexts:
            vt = _vertex_of_class(data, graph, v)
            lam_t = dict(zip(graph.translate(lam, v, vt), lam.values()))
            lookup(cache, "min_intervals", vt, lam_t)
            if all(w in lam for w in sphere):
                lookup(cache, "sphere_conditional", vt, lam_t)
    size = len(cache._parts)
    for lam in contexts:
        restricted, support = _restricted(graph, v, ell, lam)
        p = lookup(cache, "min_intervals", v, lam).p
        assert np.array_equal(p, min_marginals(system, graph, restricted, v, ell))
        if all(w in lam for w in sphere):
            mu = lookup(cache, "sphere_conditional", v, lam).p[1:]
            assert np.array_equal(mu, conditional_marginal(system, graph, v, restricted, support))
    if translated:
        assert len(cache._parts) == size


def integer_code(lam, ball, q):
    """The key's code before vertex ids: the context on the sorted ball read
    as an integer in base q+1, with digit 0 for an unassigned vertex."""
    code = 0
    for w in ball:
        code = code * (q + 1) + lam.get(w, 0)
    return code


class _KeyLog(dict):
    """A table of partitions that records the key of every lookup."""

    def __init__(self):
        super().__init__()
        self.keys = []

    def get(self, key, default=None):
        self.keys.append(key)
        return super().get(key, default)


@pytest.mark.parametrize("graph,ell,systems", CASES.values(), ids=CASES.keys())
@PROPERTY
@given(data=st.data())
def test_id_keys_part_contexts_as_the_integer_codes_do(graph, ell, systems, data):
    """A drawn feasible context at v, its variants that differ from it at
    one ball vertex and, on a lattice or its line graph, the same contexts
    at translates of v, all looked up in one cache: two lookups get equal
    keys exactly when their contexts get equal integer codes, and each miss
    reads its context as the digits ``(0, *[lam.get(w, 0) for w in ball])``."""
    system = data.draw(st.sampled_from(systems))
    v = _vertex(data, graph)
    contexts = [(v, lam) for lam in _contexts(data, system, graph, v, ell)]
    if graph.kind in ("lattice", "line"):
        for _, lam in list(contexts):
            vt = _vertex_of_class(data, graph, v)
            contexts.append((vt, dict(zip(graph.translate(lam, v, vt), lam.values()))))
    cache = MarginalCache(system, graph, ell)
    # v's frame, and with it the class bound's own miss, first.
    cache.entry(cache._ids[v])
    log = cache._parts = _KeyLog()
    read = []

    def miss(support, v, sphere, interior, digits):
        read.append(digits)
        return _ball_min_marginals(support, v, sphere, interior, digits)

    keys, codes = [], []
    with patch.object(sampler, "_ball_min_marginals", miss):
        for u, lam in contexts:
            ball = graph.ball(u, ell)
            known = len(log)
            lookup(cache, "min_intervals", u, lam)
            keys.append(log.keys[-1])
            codes.append(integer_code(lam, ball, system.q))
            if len(log) > known:
                assert read.pop() == (0, *[lam.get(w, 0) for w in ball])
    assert read == []
    for key, code in zip(keys, codes):
        assert [k == key for k in keys] == [c == code for c in codes]


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
        sphere, ball, cls, _ = ball_parts(cache, v)
        assert (sphere, ball, cls) == (graph.sphere(v, ell), graph.ball(v, ell), graph.ball_class(v))


FINITE = {name: case for name, case in CASES.items() if case[0].is_finite()}


@pytest.mark.parametrize("graph,ell,systems", FINITE.values(), ids=FINITE.keys())
@PROPERTY
@given(data=st.data())
def test_oracle_keys_each_context_variant_apart(graph, ell, systems, data):
    """The bounded sampler's oracle is ``conditional_marginal`` on the whole
    graph, cached under a key of the whole context.  Besides v, a few
    vertices are left free, and each context is followed by its variants
    that differ from it at one vertex, all looked up in one cache: each
    must get its own entry, bit for bit the conditional of that variant,
    not an entry filled for another."""
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
        p = lookup(cache, "whole_graph_marginal", v, lam).p
        assert p[0] == 0.0
        assert np.array_equal(p[1:], conditional_marginal(system, graph, v, lam, vertices))


@PROPERTY
@given(data=st.data())
def test_the_compiled_oracle_equals_conditional_marginal(data):
    """The oracle compiles the whole graph's ``Support`` once per cache and
    reads each context as digits.  One cache answers a run of drawn
    contexts, from none to all but v assigned, so its one factor table
    serves misses of every free count: each must be bit for bit
    ``conditional_marginal`` on the whole graph."""
    system, graph = hardcore(1.0), grid_graph(4, 4)
    vertices = graph.vertices()
    cache = MarginalCache(system, graph, 2)
    for _ in range(data.draw(st.integers(1, 12))):
        v = data.draw(st.sampled_from(vertices))
        full = _feasible_assignment(data, system, graph, vertices)
        kept = data.draw(st.lists(st.booleans(), min_size=len(vertices), max_size=len(vertices)))
        lam = {w: s for (w, s), keep in zip(full.items(), kept) if keep and w != v}
        p = lookup(cache, "whole_graph_marginal", v, lam).p
        assert p[0] == 0.0
        assert np.array_equal(p[1:], conditional_marginal(system, graph, v, lam, vertices))
