"""Extremal-boundary min marginals against the exhaustive boundary scan.

On a monotone two-spin system ``min_marginals`` and ``mixing_rate_estimate``
read only the two extremal sphere boundaries (see the ``marginals`` module
docstring); every other system scans every boundary.  The property here
holds both to a reference that conditions v on each assignment of its free
sphere vertices in turn, on every drawn instance, and checks which path
each instance took.

The miss itself is one pass (``marginals._ball_rows`` over
``bruteforce.weight_rows``).  ``reference_min_marginals`` below is the chain
it replaced, copied as it was: ``_boundary_rows`` dispatching to
``_extremal_rows`` or a whole-ball ``weight_tensor``, each walking its edges
in ``weight_factors`` and multiplying in ``products``.  The properties on
the extremal rows and the float tail hold that chain to the exhaustive
scan; ``test_one_pass_miss_equals_the_reference`` holds the one-pass miss
to it bit for bit, errors included.
"""

import itertools
import random
from unittest import mock

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
from ssms import bruteforce
from ssms.bruteforce import ENUM_CAP, Factors, Support, weight_tensor
from ssms.errors import (
    InfeasibleBoundaryError,
    InfeasibleContextError,
    InternalError,
    TooLargeError,
)
from ssms.marginals import (
    FLOAT_TAIL_Q,
    FLOAT_TAIL_ROWS,
    NEG_TOL,
    _ball_min_marginals,
    _ball_rows,
    _feasible_rows,
    mixing_rate_estimate,
)


def by_vertex(compiled, lists):
    """A compiled support's label lists (``adjacent_labels`` or
    ``later_labels``) keyed by vertex, as the replaced walks read them."""
    vertices = compiled.vertices
    return {u: tuple([vertices[j - 1] for j in nb]) for u, nb in zip(vertices, lists[1:])}


def in_labels(ball, v, sphere, interior, context):
    """The arguments of a miss (``_ball_rows``) on the compiled ``ball``
    for the vertex-space query ``(v, sphere, interior, context)``: v,
    sphere and interior as labels and the context as digits."""
    label = ball.label
    digits = (0, *[context.get(w, 0) for w in ball.vertices])
    return ball, label[v], [label[w] for w in sphere], [label[w] for w in interior], digits


# The replaced chain, as it was: reference_min_marginals -> _boundary_rows ->
# _extremal_rows / _extremal_boundaries -> weight_factors -> products.


def products(factors_of, k, factors, tails=((),)):
    table, field, _, _ = factors_of.axes(k)
    if table is not None:
        # A shorter list is padded with the all-ones row: x * 1.0 == x.
        width = len(factors) + max(map(len, tails))
        ids = [[*factors, *tail] + [0] * (width - len(factors) - len(tail)) for tail in tails]
        return np.multiply.reduce(table[ids], axis=1)
    out = np.empty((len(tails),) + field.shape)
    W = out[:1]
    W[...] = factors[0]
    for f in factors[1:]:
        W *= f
    out[1:] = W
    for i, tail in enumerate(tails):
        Wx = out[i : i + 1]
        for f in tail:
            Wx *= f
    return out.reshape(len(tails), -1)


def weight_factors(compiled, support, fixed):
    later = by_vertex(compiled, compiled.later_labels)
    q = compiled.system.q
    b = compiled._b
    A = compiled._A
    scalar = 1.0
    pinned = {}
    pos = {}
    for v in support:
        s = fixed.get(v)
        if s is None:
            pos[v] = len(pos)
        else:
            pinned[v] = s
            scalar *= b[s - 1]
    free = list(pos)
    k = len(free)
    if q**k > ENUM_CAP:
        raise TooLargeError(
            f"enumeration of {q}^{k} assignments exceeds the {ENUM_CAP} cap"
        )
    _, field, rows, pairs = compiled.factors.axes(k)
    factors = [field]
    append = factors.append

    for u in support:
        su = pinned.get(u)
        for w in later[u]:
            sw = pinned.get(w)
            if sw is None:
                jw = pos.get(w)
                if jw is None:
                    continue  # outside the support
            if su is not None:
                if sw is not None:
                    scalar *= A[su - 1][sw - 1]
                elif rows[su - 1] is not None:
                    append(rows[su - 1][jw])
            elif sw is not None:
                if rows[sw - 1] is not None:
                    append(rows[sw - 1][pos[u]])
            else:
                ju = pos[u]
                append(pairs[ju, jw] if ju < jw else pairs[jw, ju])
    return free, factors, scalar


def scaled_weights(compiled, support, fixed):
    free, factors, scalar = weight_factors(compiled, support, fixed)
    k = len(free)
    W = products(compiled.factors, k, factors)
    return free, W.reshape((compiled.system.q,) * k), scalar


def _extremal_boundaries(ball, sphere_free, fixed):
    A = ball._A
    adjacent = by_vertex(ball, ball.adjacent_labels)
    out = []
    for x in (1, 2):
        tau = dict.fromkeys(sphere_free, x)
        if A[x - 1][x - 1] == 0.0:
            for u, s in fixed.items():
                if s == x:
                    for w in adjacent.get(u, ()):
                        if w in tau:
                            tau[w] = 3 - x
        out.append(tau)
    return out


def _extremal_rows(ball, v, interior_free, fixed, sphere_free):
    q = ball.system.q
    inner = [v] + [w for w in interior_free if w != v] + list(fixed)
    free, factors, inner_scalar = weight_factors(ball, inner, fixed)
    pos = {w: j for j, w in enumerate(free)}
    _, _, rows, _ = ball.factors.axes(len(free))
    b = ball._b
    A = ball._A
    adjacent = by_vertex(ball, ball.adjacent_labels)
    tails = []
    scalars = []
    for tau in _extremal_boundaries(ball, sphere_free, fixed):
        scalar = inner_scalar
        tail = []
        for w in sphere_free:
            x = tau[w]
            scalar *= b[x - 1]
            row = rows[x - 1]
            for u in adjacent[w]:
                j = pos.get(u)
                if j is not None:
                    if row is not None:
                        tail.append(row[j])
                elif u in fixed:
                    scalar *= A[x - 1][fixed[u] - 1]
                elif u > w:
                    scalar *= A[x - 1][tau[u] - 1]
        tails.append(tail)
        scalars.append([scalar])
    W = products(ball.factors, len(free), factors, tails)
    W *= scalars
    return W.reshape(2, q, -1).sum(axis=2)


def _boundary_rows(ball, v, sphere, interior, spins):
    q = ball.system.q
    sphere_free = [w for w in sphere if w not in spins]
    interior_free = [w for w in interior if w not in spins]
    fixed = {w: spins[w] for w in sorted([*sphere, *interior]) if w in spins}
    s = len(sphere_free)
    if s and ball.monotone:
        return _extremal_rows(ball, v, interior_free, fixed, sphere_free), s
    support = sphere_free + interior_free + list(fixed)
    free, W, scalar = scaled_weights(ball, support, fixed)
    if scalar != 1.0:
        W = W * scalar
    jv = free.index(v)
    keep = tuple(range(s)) + (jv,)
    drop = tuple(j for j in range(len(free)) if j not in keep)
    M = W.sum(axis=drop) if drop else W
    return M.reshape(q**s, q), s


def _sphere_grouped_marginals(ball, v, sphere, interior, spins):
    M, s = _boundary_rows(ball, v, sphere, interior, spins)
    return _feasible_rows(M), s


def reference_min_marginals(ball, v, sphere, interior, spins):
    """The replaced miss: v's min marginals as a list of Python floats,
    under any context ``spins`` that leaves v free."""
    M, s = _boundary_rows(ball, v, sphere, interior, spins)
    if ball.system.q < FLOAT_TAIL_Q and len(M) <= FLOAT_TAIL_ROWS:
        p = None
        for row in M.tolist():
            total = 0.0
            for x in row:
                total += x
            if total > 0.0:
                mu = [x / total for x in row]
                p = mu if p is None else list(map(min, p, mu))
        if p is None:
            raise InfeasibleContextError(
                "context admits no feasible boundary assignment on the sphere"
            )
        total = 0.0
        for x in p:
            total += x
    else:
        p = _feasible_rows(M).min(axis=0)
        total = float(p.sum())
        p = p.tolist()
    if s == 0:
        return [0.0, *p]
    rest = 1.0 - total
    if rest < -NEG_TOL:
        raise InternalError(f"zone of indecision computed as {rest}")
    return [max(rest, 0.0), *p]


SYSTEMS = {
    "hardcore": hardcore(0.7),
    "ising": ising(1.5),
    "antiferromagnetic": SpinSystem(2, [1.0, 1.3], [[0.5, 1.0], [1.0, 0.7]]),
    "zero-field": SpinSystem(2, [1.0, 0.0], [[1.4, 1.0], [1.0, 1.4]]),
    "zero-diagonal": SpinSystem(2, [0.8, 1.1], [[0.0, 1.2], [1.2, 0.6]]),
    "zero-off-diagonal": SpinSystem(2, [1.0, 0.9], [[1.3, 0.0], [0.0, 0.8]]),
    "coloring": coloring(3),
    "three-spin": SpinSystem(
        3, [0.7, 1.3, 2.1], [[1.0, 1.0, 1.0], [1.0, 0.3, 1.7], [1.0, 1.7, 2.9]]
    ),
}

# Graph, its largest radius drawn, and the vertices drawn at.
GRAPHS = {
    "z1": (Lattice(1), 3, [(0,), (5,)]),
    "z2": (Lattice(2), 3, [(0, 0), (2, -1)]),
    "z3": (Lattice(3), 2, [(0, 0, 0)]),
    "grid4x4": (grid_graph(4, 4), 3, list(range(1, 17))),
    "tree:3": (RegularTree(3), 3, [(), (1,), (0, 1)]),
    "line:z2": (LineGraph(Lattice(2)), 2, [((0, 0), (1, 0)), ((0, 0), (0, 1))]),
}

# Systems whose compiled ball is monotone, per graph: every graph here but
# line:z2, whose balls hold triangles, is bipartite.
ATTRACTIVE = {"ising", "zero-field"}
REPULSIVE = {"hardcore", "antiferromagnetic", "zero-diagonal"}

PROPERTY = settings(max_examples=20, deadline=None, derandomize=True, database=None)

# Caps on the reference's work: boundaries scanned, and free interior
# vertices enumerated per boundary.
MAX_BOUNDARIES = 64
MAX_INTERIOR_FREE = 10


def still_free(q, free, sphere):
    """The vertices of ``free`` that ``draw_context`` leaves free: as many
    free sphere vertices as give at most MAX_BOUNDARIES boundaries, and as
    many free interior vertices as keep the enumeration at v, q^(sphere +
    interior + 1) cells, within ENUM_CAP."""
    max_sphere = 0
    while q ** (max_sphere + 1) <= MAX_BOUNDARIES:
        max_sphere += 1
    max_interior = MAX_INTERIOR_FREE
    while q ** (max_sphere + max_interior + 1) > ENUM_CAP:
        max_interior -= 1
    free_sphere = [w for w in free if w in sphere]
    free_interior = [w for w in free if w not in sphere]
    return set(free_sphere[:max_sphere] + free_interior[:max_interior])


def expect_monotone(system_name, graph_name):
    return system_name in ATTRACTIVE or (system_name in REPULSIVE and graph_name != "line:z2")


def reference_rows(system, graph, v, ell, context):
    """v's conditional marginal under each feasible assignment of its free
    sphere vertices, by one conditional enumeration per assignment."""
    sphere = graph.sphere(v, ell)
    ball = graph.ball(v, ell)
    free = [w for w in sphere if w not in context]
    rows = []
    for spins in itertools.product(range(1, system.q + 1), repeat=len(free)):
        fixed = dict(context)
        fixed.update(zip(free, spins))
        try:
            rows.append(conditional_marginal(system, graph, v, fixed, ball))
        except InfeasibleBoundaryError:
            pass
    return rows, len(free)


def draw_context(data, system, graph, v, ell):
    """A context on v's ball that leaves v free, with few enough free vertices
    for the reference.  Spins are repaired into a feasible assignment, unless
    the draw says to keep them raw, which may make the context infeasible."""
    ball = graph.ball(v, ell)
    sphere = set(graph.sphere(v, ell))
    raw = data.draw(st.booleans())
    spins = {}
    for w in ball:
        s = data.draw(st.integers(1, system.q))
        ok = [
            t for t in range(1, system.q + 1)
            if system.b[t - 1] > 0
            and all(system.A[t - 1, spins[x] - 1] > 0 for x in graph.neighbors(w) if x in spins)
        ]
        spins[w] = s if raw or s in ok or not ok else ok[0]
    keep = data.draw(st.lists(st.booleans(), min_size=len(ball), max_size=len(ball)))
    free = still_free(system.q, [w for w, k in zip(ball, keep) if not k and w != v], sphere)
    return {w: s for w, s in spins.items() if w != v and w not in free}


@pytest.mark.parametrize("system_name", SYSTEMS)
def test_draw_context_stays_within_the_enumeration_cap(system_name):
    # The worst case: every vertex of the largest ball drawn is left free.
    q = SYSTEMS[system_name].q
    for graph, ell, vertices in GRAPHS.values():
        for v in vertices:
            ball = [w for w in graph.ball(v, ell) if w != v]
            free = still_free(q, ball, set(graph.sphere(v, ell)))
            assert q ** (len(free) + 1) <= ENUM_CAP, (graph, v, len(free))


@pytest.mark.parametrize("system_name", SYSTEMS)
@pytest.mark.parametrize("graph_name", GRAPHS)
@PROPERTY
@given(data=st.data())
def test_dispatched_min_marginals_equal_exhaustive_scan(graph_name, system_name, data):
    graph, max_ell, vertices = GRAPHS[graph_name]
    system = SYSTEMS[system_name]
    v = data.draw(st.sampled_from(vertices))
    ell = data.draw(st.integers(1, max_ell))
    context = draw_context(data, system, graph, v, ell)

    sphere, interior = graph.sphere(v, ell), graph.ball_interior(v, ell)
    ball = Support(system, graph, sphere + interior)
    assert ball.monotone == (system.q == 2 and expect_monotone(system_name, graph_name))

    rows, free_sphere = reference_rows(system, graph, v, ell, context)
    if not rows:
        with pytest.raises(InfeasibleContextError):
            min_marginals(system, graph, context, v, ell)
        with pytest.raises(InfeasibleContextError):
            mixing_rate_estimate(system, graph, v, ell, context)
        return

    # The path taken: at most the two extremal rows when monotone, else one
    # row per feasible boundary.
    mu, s = _sphere_grouped_marginals(ball, v, sphere, interior, context)
    assert s == free_sphere
    if ball.monotone and s:
        assert mu.shape[0] <= 2
    else:
        assert mu.shape[0] == len(rows)

    want = np.min(rows, axis=0)
    got = min_marginals(system, graph, context, v, ell)
    assert np.abs(got[1:] - want).max() <= 1e-12
    assert got[0] == pytest.approx(0.0 if s == 0 else max(1.0 - want.sum(), 0.0), abs=1e-12)

    pairwise = max(0.5 * float(np.abs(a - b).sum()) for a in rows for b in rows)
    assert abs(mixing_rate_estimate(system, graph, v, ell, context) - pairwise) <= 1e-12


def test_zero_diagonal_extreme_yields_next_to_a_fixed_spin():
    # (2,) is occupied, so the sphere vertex (3,) must stay empty; the
    # greatest feasible boundary occupies (-3,) alone, and an extreme that
    # occupied both would be infeasible and leave only the empty one.
    z1 = Lattice(1)
    system = hardcore(1.0)
    context = {(2,): 2}
    rows, _ = reference_rows(system, z1, (0,), 3, context)
    assert len(rows) == 2
    want = np.min(rows, axis=0)
    got = min_marginals(system, z1, context, (0,), 3)
    np.testing.assert_allclose(got[1:], want, rtol=0, atol=1e-12)
    assert got[1] < max(row[0] for row in rows)


def test_z2_radius_three_fits_only_on_the_extremal_path():
    # 12 sphere and 13 interior vertices: the exhaustive scan would need
    # 2^25 cells, over the enumeration cap; two 2^13-cell enumerations do.
    z2 = Lattice(2)
    p = min_marginals(hardcore(0.5), z2, {}, (0, 0), 3)
    assert p.sum() == pytest.approx(1.0)
    assert 0.0 < p[0] < 1.0
    assert mixing_rate_estimate(ising(1.2), z2, (0, 0), 3) == pytest.approx(0.0209564, abs=1e-6)
    with pytest.raises(TooLargeError):
        min_marginals(SYSTEMS["zero-off-diagonal"], z2, {}, (0, 0), 3)


MONOTONE = sorted(ATTRACTIVE | REPULSIVE)


@pytest.mark.parametrize("system_name", MONOTONE)
@pytest.mark.parametrize("graph_name", GRAPHS)
@PROPERTY
@given(data=st.data())
def test_extremal_rows_equal_one_enumeration_per_extreme(graph_name, system_name, data):
    # The interior is enumerated once and each extreme multiplies in its
    # boundary factors; the reference pins each extreme and enumerates the
    # whole ball.  Where A holds only 0s and 1s (hard-core) the rows must be
    # equal bit for bit.  On line:z2 free sphere vertices can be adjacent,
    # and zero-diagonal extremes differ next to fixed spins.
    graph, max_ell, vertices = GRAPHS[graph_name]
    system = SYSTEMS[system_name]
    v = data.draw(st.sampled_from(vertices))
    ell = data.draw(st.integers(1, max_ell))
    context = draw_context(data, system, graph, v, ell)
    sphere, interior = graph.sphere(v, ell), graph.ball_interior(v, ell)
    ball = Support(system, graph, sphere + interior)
    if not ball.monotone:
        assert graph_name == "line:z2" and system_name in REPULSIVE
        return
    sphere_free = [w for w in sphere if w not in context]
    interior_free = [w for w in interior if w not in context]
    fixed = {w: s for w, s in context.items() if w in set(sphere + interior)}

    got = _extremal_rows(ball, v, interior_free, fixed, sphere_free)

    support = [v] + [w for w in interior_free if w != v] + list(fixed) + sphere_free
    want = []
    for tau in _extremal_boundaries(ball, sphere_free, fixed):
        _, W = weight_tensor(ball, support, {**fixed, **tau})
        want.append(W.reshape(system.q, -1).sum(axis=1))
    assert len(got) == len(want) == 2
    for row, ref in zip(got, want):
        if system_name == "hardcore":
            assert np.array_equal(row, ref)
        else:
            np.testing.assert_allclose(row, ref, rtol=1e-12, atol=0)


def per_extreme_rows(ball, v, interior_free, fixed, sphere_free):
    """The extremal rows one extreme at a time, as they were computed before
    both were taken in one gather: the interior weights, then a copy per
    extreme with its boundary factors multiplied in, then its scalar."""
    system = ball.system
    q = system.q
    inner = [v] + [w for w in interior_free if w != v] + list(fixed)
    free, W, inner_scalar = scaled_weights(ball, inner, fixed)
    k = len(free)
    pos = {w: j for j, w in enumerate(free)}
    adjacent = by_vertex(ball, ball.adjacent_labels)
    out = []
    for tau in _extremal_boundaries(ball, sphere_free, fixed):
        scalar = inner_scalar
        Wx = W
        for w in sphere_free:
            x = tau[w]
            scalar *= system.b[x - 1]
            row = system.A[x - 1]
            for u in adjacent[w]:
                j = pos.get(u)
                if j is not None:
                    if not np.all(row == 1.0):
                        Wx = Wx * row.reshape((1,) * j + (q,) + (1,) * (k - 1 - j))
                elif u in fixed:
                    scalar *= system.A[x - 1, fixed[u] - 1]
                elif u > w:
                    scalar *= system.A[x - 1, tau[u] - 1]
        if scalar != 1.0:
            Wx = Wx * scalar
        out.append(Wx.reshape(q, -1).sum(axis=1))
    return out


@pytest.mark.parametrize("gather_cap", [0, ENUM_CAP], ids=["broadcast", "gathered"])
@pytest.mark.parametrize("system_name", MONOTONE)
@pytest.mark.parametrize("graph_name", ["z1", "z2", "grid4x4", "tree:3"])
@PROPERTY
@given(data=st.data())
def test_one_gather_equals_the_rows_per_extreme(graph_name, system_name, gather_cap, data):
    # Both extremes in one product, the shorter factor list padded with the
    # all-ones row, equal the extremes taken one at a time bit for bit, on
    # either side of the cut-over between gathered and broadcast products.
    graph, max_ell, vertices = GRAPHS[graph_name]
    system = SYSTEMS[system_name]
    v = data.draw(st.sampled_from(vertices))
    ell = data.draw(st.integers(1, max_ell))
    context = draw_context(data, system, graph, v, ell)
    sphere, interior = graph.sphere(v, ell), graph.ball_interior(v, ell)
    ball = Support(system, graph, sphere + interior, Factors(system))
    sphere_free = [w for w in sphere if w not in context]
    interior_free = [w for w in interior if w not in context]
    fixed = {w: context[w] for w in sorted(sphere + interior) if w in context}
    with mock.patch.object(bruteforce, "GATHER_CAP", gather_cap):
        got = _extremal_rows(ball, v, interior_free, fixed, sphere_free)
        want = per_extreme_rows(ball, v, interior_free, fixed, sphere_free)
    assert got.shape == (2, system.q)
    for row, ref in zip(got, want):
        assert row.tobytes() == ref.tobytes()


def numpy_tail(ball, v, sphere, interior, spins):
    """``min_marginals`` as it was computed on numpy arrays throughout: the
    reference for the tail in Python floats."""
    mu, s = _sphere_grouped_marginals(ball, v, sphere, interior, spins)
    p = mu.min(axis=0)
    out = np.empty(ball.system.q + 1)
    out[1:] = p
    if s == 0:
        out[0] = 0.0
    else:
        out[0] = max(1.0 - float(p.sum()), 0.0)
    return out


# (graph, radius, vertex): at most 5 ball vertices, so q = 10 enumerates at
# most 10^5 cells.
TAIL_BALLS = [
    (Lattice(1), 1, (0,)),
    (Lattice(1), 2, (3,)),
    (Lattice(2), 1, (0, 0)),
    (RegularTree(3), 1, (0,)),
]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_float_tail_equals_the_numpy_tail(data):
    # Generic positive weights, so every row sums distinct terms.  Mostly 0
    # to 2 free sphere vertices, so that most misses below FLOAT_TAIL_Q
    # spins have at most FLOAT_TAIL_ROWS rows and finish in Python floats;
    # those must give numpy's bits, and every other miss stays on numpy.
    q = data.draw(st.integers(2, 10))
    weight = st.floats(0.05, 20.0)
    b = [data.draw(weight) for _ in range(q)]
    upper = {(i, j): data.draw(weight) for i in range(q) for j in range(i, q)}
    system = SpinSystem(q, b, [[upper[min(i, j), max(i, j)] for j in range(q)] for i in range(q)])
    graph, ell, v = data.draw(st.sampled_from(TAIL_BALLS))
    sphere, interior = graph.sphere(v, ell), graph.ball_interior(v, ell)
    ball = Support(system, graph, sorted(sphere + interior))
    free_sphere = data.draw(st.sets(st.sampled_from(sphere), max_size=2))
    context = {
        w: data.draw(st.integers(1, q))
        for w in sphere + interior
        if w != v and w not in free_sphere and (w in sphere or data.draw(st.booleans()))
    }
    got = _ball_min_marginals(*in_labels(ball, v, sphere, interior, context))
    assert all(type(x) is float for x in got)
    assert np.array(got).tobytes() == numpy_tail(ball, v, sphere, interior, context).tobytes()
    assert np.array_equal(min_marginals(system, graph, context, v, ell), got)


def test_numpy_sums_left_to_right_only_below_the_float_tail_cut():
    # One witness of the cut the property above relies on: numpy's sum of
    # FLOAT_TAIL_Q or more terms is no longer the left-to-right fold.
    for n, same in ((FLOAT_TAIL_Q - 1, True), (FLOAT_TAIL_Q, False)):
        row = np.array([1.0] + [2.0**-53] * (n - 1))
        left_to_right = 0.0
        for x in row.tolist():
            left_to_right += x
        assert (float(row.sum()) == left_to_right) == same


# Moving a factor equal to, or an exact power of two times, the ones it
# passes changes no bit, so the other monotone systems here hide the order
# of an extremal miss's factors; three distinct inexact entries of A show it.
MISS_SYSTEMS = {
    "hardcore": SYSTEMS["hardcore"],
    "ising": SYSTEMS["ising"],
    "attractive": SpinSystem(2, [1.0, 1.1], [[1.3, 0.9], [0.9, 1.7]]),
    "coloring4": coloring(4),
    "three-spin": SYSTEMS["three-spin"],
    "zero-off-diagonal": SYSTEMS["zero-off-diagonal"],
}

# Graph, radii drawn, vertices drawn at.  Z^2 at radius 4 has 25 interior
# vertices, past ENUM_CAP on every path.
MISS_GRAPHS = {
    "z1": (Lattice(1), (1, 2, 3), [(0,), (5,)]),
    "z2": (Lattice(2), (1, 2, 3), [(0, 0), (2, -1)]),
    "z2-ell4": (Lattice(2), (4,), [(0, 0)]),
    "grid4x4": (grid_graph(4, 4), (1, 2, 3), list(range(1, 17))),
    "tree:3": (RegularTree(3), (1, 2), [(), (1,), (0, 1)]),
    "line:z2": (LineGraph(Lattice(2)), (1, 2), [((0, 0), (1, 0)), ((0, 0), (0, 1))]),
}

# Free vertices on a drawn ball are cut to keep each enumeration within this
# many cells, unless the draw leaves the whole ball free.
MISS_CELLS = 2**12


def draw_miss_context(data, system, graph, v, ell):
    """A context on v's ball that leaves v free, in a drawn order, plus
    spins on vertices just outside the ball.  Spins may be raw (possibly
    infeasible) or repaired; free vertices are cut to MISS_CELLS cells
    unless the draw leaves every ball vertex free."""
    sphere, interior = graph.sphere(v, ell), graph.ball_interior(v, ell)
    ball = sphere + interior
    raw = data.draw(st.booleans())
    spins = {}
    for w in sorted(ball):
        s = data.draw(st.integers(1, system.q))
        ok = [
            t for t in range(1, system.q + 1)
            if system.b[t - 1] > 0
            and all(system.A[t - 1, spins[x] - 1] > 0 for x in graph.neighbors(w) if x in spins)
        ]
        spins[w] = s if raw or s in ok or not ok else ok[0]
    free = {v}
    # The whole ball free: cheap on the extremal path, past ENUM_CAP on Z^2
    # at radius 4 and for coloring(4) at radius 2; any other such draw would
    # enumerate millions of cells and is cut like the rest.  A whole sphere
    # fixed: the exact conditional, as the sampler's sphere lookups ask.
    whole = len(interior) if Support(system, graph, ball).monotone else len(ball)
    mode = data.draw(st.integers(0, 9))
    if mode == 0 and not MISS_CELLS < system.q**whole <= ENUM_CAP:
        free.update(ball)
    else:
        keep = data.draw(st.lists(st.booleans(), min_size=len(ball), max_size=len(ball)))
        if mode < 4:
            keep[: len(sphere)] = [True] * len(sphere)
        room = system.q
        for w, k in zip(ball, keep):
            if not k and w != v and room * system.q <= MISS_CELLS:
                free.add(w)
                room *= system.q
    context = {w: s for w, s in spins.items() if w not in free}
    for w in graph.sphere(v, ell + 1)[:6]:
        context[w] = data.draw(st.integers(1, system.q))
    items = list(context.items())
    random.Random(data.draw(st.integers(0, 2**32))).shuffle(items)
    return sphere, interior, dict(items)


def attempt(fn, *args):
    """``fn(*args)`` as bytes, or the type and message of what it raised."""
    try:
        out = fn(*args)
    except (InfeasibleContextError, TooLargeError) as err:
        return type(err), str(err)
    if isinstance(out, tuple):
        return tuple(np.asarray(x).tobytes() for x in out)
    return np.asarray(out).tobytes()


@pytest.mark.parametrize("gather_cap", [0, ENUM_CAP], ids=["broadcast", "gathered"])
@pytest.mark.parametrize("system_name", MISS_SYSTEMS)
@pytest.mark.parametrize("graph_name", MISS_GRAPHS)
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_pass_miss_equals_the_reference(graph_name, system_name, gather_cap, data):
    # The miss as the cache makes it (shared factors, the context read off
    # the sorted ball as digits) and as the public functions make it
    # (one-shot factors, any context), against the replaced chain, bit for
    # bit; an error must be the reference's, type and message.
    graph, ells, vertices = MISS_GRAPHS[graph_name]
    system = MISS_SYSTEMS[system_name]
    v = data.draw(st.sampled_from(vertices))
    ell = data.draw(st.sampled_from(ells))
    sphere, interior, context = draw_miss_context(data, system, graph, v, ell)
    with mock.patch.object(bruteforce, "GATHER_CAP", gather_cap):
        ball = Support(system, graph, sorted(sphere + interior), Factors(system))
        args = (ball, v, sphere, interior, context)
        labelled = in_labels(*args)
        want = attempt(reference_min_marginals, *args)
        assert attempt(_ball_min_marginals, *labelled) == want
        want_rows = attempt(_boundary_rows, *args)
        assert attempt(_ball_rows, *labelled) == want_rows
    one_shot = Support(system, graph, sorted(sphere + interior))
    want = attempt(reference_min_marginals, one_shot, v, sphere, interior, context)
    assert attempt(min_marginals, system, graph, context, v, ell) == want
    # mixing_rate_estimate reads the feasible rows of the same miss.
    want_rows = attempt(_sphere_grouped_marginals, one_shot, v, sphere, interior, context)
    if isinstance(want_rows[0], type):
        assert attempt(mixing_rate_estimate, system, graph, v, ell, context) == want_rows
    else:
        rows = _feasible_rows(_ball_rows(*in_labels(one_shot, v, sphere, interior, context))[0])
        assert rows.tobytes() == want_rows[0]
