"""The label-space miss against the dict-keyed walk it replaced, bit for bit.

A miss reads its context once as digits, the spin or None at each label of
its compiled ``Support``, and walks the support's label lists
(``bruteforce.weight_rows``); each row's pinned scalar is the last slot of
the one gathered product.  ``reference_weight_rows`` and
``reference_ball_rows`` below are the walk it replaced, copied as it was:
the context as a dict keyed by vertex, one code per walked vertex in an
``at`` dict, and the scalar multiplied in after the product.  Ball frames
(digits in label order), one-shot supports (dicts in ball order), drawn
walk orders and a conditional on a shuffled support, where the order in
which pinned spins are scanned shows in the last bits, must all give the
reference's bits, errors included.

Weights that can underflow a double on a support fail loudly there:
``Support.underflows`` bounds the least positive cell product, and on such
a support a feasible row whose total is below the smallest normal double
raises ``TooLargeError`` rather than reading as an infeasible boundary.  A
row of zero weight that no cell could make positive, read off the support's
0/1 pattern, is still an infeasible boundary there, as before.
"""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cache_keys import THREE_SPIN
from test_extremal import SYSTEMS, attempt, draw_miss_context, reference_min_marginals

from ssms import (
    Lattice,
    LineGraph,
    RegularTree,
    SpinSystem,
    WindowSampler,
    coloring,
    conditional_marginal,
    cycle_graph,
    grid_graph,
    hardcore,
    ising,
    min_marginals,
    path_graph,
)
from ssms import bruteforce
from ssms.bruteforce import ENUM_CAP, Factors, Support, weight_rows
from ssms.errors import InfeasibleBoundaryError, TooLargeError
from ssms.marginals import _ball_min_marginals, _ball_query, _ball_rows
from ssms.sampler import MarginalCache

# The replaced walk, as it was.


def reference_weight_rows(compiled, free, walk, fixed, extremes=None):
    q = compiled.system.q
    k = len(free)
    if q**k > ENUM_CAP:
        raise TooLargeError(
            f"enumeration of {q}^{k} assignments exceeds the {ENUM_CAP} cap"
        )
    b = compiled._b
    A = compiled._A
    scalar = 1.0
    # One code per walked vertex: its axis j >= 0 if free, ~(s - 1) < 0 if
    # pinned to spin s, so ~code indexes that spin's row of A.
    at = {w: j for j, w in enumerate(free)}
    for u, s in fixed.items():
        scalar *= b[s - 1]
        at[u] = ~(s - 1)
    _, field, rows, pairs = compiled.factors.axes(k)
    factors = [field]
    append = factors.append
    later = compiled.later
    for u in walk:
        cu = at[u]
        for w in later[u]:
            cw = at.get(w)
            if cw is None:
                continue  # outside the walk
            if cu < 0:
                if cw < 0:
                    scalar *= A[~cu][~cw]
                elif rows[~cu] is not None:
                    append(rows[~cu][cw])
            elif cw < 0:
                if rows[~cw] is not None:
                    append(rows[~cw][cu])
            else:
                # A is symmetric, so the pair factor on axes (j1, j2) is A
                # itself whichever endpoint comes first.
                append(pairs[cu, cw] if cu < cw else pairs[cw, cu])
    if extremes is None:
        W = compiled.factors.products(k, factors)
        if scalar != 1.0:
            W *= scalar
        return W
    # flip_x: where spin x yields (A_xx = 0), next to a fixed spin x.
    adjacent = compiled.adjacent
    flip1 = flip2 = ()
    if A[0][0] == 0.0:
        flip1 = {w for u, s in fixed.items() if s == 1 for w in adjacent[u]}
    if A[1][1] == 0.0:
        flip2 = {w for u, s in fixed.items() if s == 2 for w in adjacent[u]}
    tail1 = []
    tail2 = []
    scalar1 = scalar2 = scalar
    for w in extremes:
        x1 = 2 if w in flip1 else 1
        x2 = 1 if w in flip2 else 2
        scalar1 *= b[x1 - 1]
        scalar2 *= b[x2 - 1]
        row1 = rows[x1 - 1]
        row2 = rows[x2 - 1]
        for u in adjacent[w]:
            c = at.get(u)
            if c is None:
                if u > w:
                    # Both ends pinned by the extreme: one factor per edge.
                    scalar1 *= A[x1 - 1][1 if u in flip1 else 0]
                    scalar2 *= A[x2 - 1][0 if u in flip2 else 1]
            elif c >= 0:
                if row1 is not None:
                    tail1.append(row1[c])
                if row2 is not None:
                    tail2.append(row2[c])
            else:
                scalar1 *= A[x1 - 1][~c]
                scalar2 *= A[x2 - 1][~c]
    W = compiled.factors.products(k, factors, (tail1, tail2))
    # x * 1.0 == x, so an extreme with no scalar loses no bit here.
    W *= [[scalar1], [scalar2]]
    return W


def reference_ball_rows(ball, v, sphere, interior, fixed):
    q = ball.system.q
    sphere_free = [w for w in sphere if w not in fixed]
    s = len(sphere_free)
    if s and ball.monotone:
        # v first among the free vertices, so its axis leads.
        free = [v] + [w for w in interior if w != v and w not in fixed]
        W = reference_weight_rows(ball, free, free + list(fixed), fixed, sphere_free)
        return W.reshape(2, q, -1).sum(axis=2), s
    free = sphere_free + [w for w in interior if w not in fixed]
    W = reference_weight_rows(ball, free, free + list(fixed), fixed).reshape((q,) * len(free))
    jv = free.index(v)
    drop = tuple(j for j in range(s, len(free)) if j != jv)
    M = W.sum(axis=drop) if drop else W
    return M.reshape(q**s, q), s


SPACE_SYSTEMS = {**SYSTEMS, "three-spin-cache": THREE_SPIN}

# Graph, radii drawn, vertices drawn at.
SPACE_GRAPHS = {
    "z2": (Lattice(2), (1, 2, 3), [(0, 0), (2, -1)]),
    "tree:3": (RegularTree(3), (1, 2), [(), (1,), (0, 1)]),
    "line:z2": (LineGraph(Lattice(2)), (1, 2), [((0, 0), (1, 0)), ((0, 0), (0, 1))]),
    "grid4x4": (grid_graph(4, 4), (1, 2, 3), list(range(1, 17))),
}

SPACE = settings(max_examples=12, deadline=None, derandomize=True, database=None)


def _draw_case(data):
    graph_name = data.draw(st.sampled_from(sorted(SPACE_GRAPHS)))
    graph, ells, vertices = SPACE_GRAPHS[graph_name]
    v = data.draw(st.sampled_from(vertices))
    ell = data.draw(st.sampled_from(ells))
    return graph, v, ell


# A cap of 1 cell gathers only the free count 0; a frame reserves its
# widest miss up to the cap, so a cap past the default would build tables
# of millions of cells here.
@pytest.mark.parametrize(
    "gather_cap", [1, bruteforce.GATHER_CAP], ids=["broadcast", "gathered"]
)
@pytest.mark.parametrize("system_name", sorted(SPACE_SYSTEMS))
@SPACE
@given(data=st.data())
def test_frame_misses_equal_the_dict_walk(system_name, gather_cap, data):
    # The cache's miss: digits read off the frame's sorted ball, against the
    # context keyed by frame label in ball order, as it was handed over.
    system = SPACE_SYSTEMS[system_name]
    graph, v, ell = _draw_case(data)
    _, _, context = draw_miss_context(data, system, graph, v, ell)
    with mock.patch.object(bruteforce, "GATHER_CAP", gather_cap):
        cache = MarginalCache(system, graph, ell)
        cache.ball_parts(v)
        frame = cache._frames[graph.ball_class(v)]
        digits = (None, *map(context.get, frame.ball))
        on_frame = {i: context[w] for i, w in enumerate(frame.ball, 1) if w in context}
        args = (frame.support, frame.v, frame.sphere, frame.interior)
        assert attempt(_ball_rows, *args, digits) == attempt(reference_ball_rows, *args, on_frame)
        want = attempt(reference_min_marginals, *args, on_frame)
        assert attempt(_ball_min_marginals, *args, digits) == want


@pytest.mark.parametrize("gather_cap", [1, ENUM_CAP], ids=["broadcast", "gathered"])
@pytest.mark.parametrize("system_name", sorted(SPACE_SYSTEMS))
@SPACE
@given(data=st.data())
def test_drawn_walks_equal_the_dict_walk(system_name, gather_cap, data):
    # weight_rows itself, on a one-shot support in drawn vertex order, with
    # the free axes and the walk in drawn orders and the free sphere of a
    # monotone ball as its extremes: the dict's order is the walk's.
    system = SPACE_SYSTEMS[system_name]
    graph, v, ell = _draw_case(data)
    sphere, interior, context = draw_miss_context(data, system, graph, v, ell)
    members = list(sphere + interior)
    random.Random(data.draw(st.integers(0, 2**32))).shuffle(members)
    with mock.patch.object(bruteforce, "GATHER_CAP", gather_cap):
        ball = Support(system, graph, members, Factors(system))
        free = [w for w in members if w not in context]
        extremes = None
        if ball.monotone:
            extremes = [w for w in sphere if w in free]
            free = [w for w in free if w not in extremes]
        free = data.draw(st.permutations(free))
        walk = data.draw(st.permutations(free + [w for w in members if w in context]))
        fixed = {w: context[w] for w in walk if w in context}
        label = ball.label
        digits = [None] * (len(members) + 1)
        for w, s in fixed.items():
            digits[label[w]] = s
        got = attempt(
            weight_rows,
            ball,
            [label[w] for w in free],
            [label[w] for w in walk],
            digits,
            None if extremes is None else [label[w] for w in extremes],
        )
        assert got == attempt(reference_weight_rows, ball, free, walk, fixed, extremes)


@pytest.mark.parametrize("system_name", sorted(SPACE_SYSTEMS))
@SPACE
@given(data=st.data())
def test_public_misses_equal_the_dict_walk(system_name, data):
    # min_marginals compiles the sorted ball and hands over the context in
    # ball order; the reference walks the same dict on the same support.
    system = SPACE_SYSTEMS[system_name]
    graph, v, ell = _draw_case(data)
    sphere, interior, context = draw_miss_context(data, system, graph, v, ell)
    ball = Support(system, graph, sorted(sphere + interior))
    in_ball_order = {w: context[w] for w in ball.vertices if w in context}
    args = (ball, v, sphere, interior, in_ball_order)
    assert attempt(_ball_rows, *args) == attempt(reference_ball_rows, *args)
    assert attempt(min_marginals, system, graph, context, v, ell) == attempt(
        reference_min_marginals, *args
    )


@pytest.mark.parametrize("system_name", sorted(SPACE_SYSTEMS))
@SPACE
@given(data=st.data())
def test_shuffled_conditionals_equal_the_dict_walk(system_name, data):
    # conditional_marginal labels its support in the caller's order and
    # walks its pinned spins in that order: the reference with the same
    # dict gives the same bits, for any order of the same support.
    system = SPACE_SYSTEMS[system_name]
    graph, v, ell = _draw_case(data)
    sphere, interior = graph.sphere_and_interior(v, ell)
    support = list(sphere + interior)
    random.Random(data.draw(st.integers(0, 2**32))).shuffle(support)
    room = 2**10
    fixed = {}
    for w in support:
        if w == v:
            continue
        if w in sphere or room < system.q or data.draw(st.booleans()):
            positive = [s for s in range(1, system.q + 1) if system.b[s - 1] > 0]
            fixed[w] = data.draw(st.sampled_from(positive))
        else:
            room //= system.q
    in_order = {w: fixed[w] for w in support if w in fixed}
    ball = Support(system, graph, support)
    args = (ball, v, (), support, in_order)
    got = attempt(_ball_rows, *args)
    assert got == attempt(reference_ball_rows, *args)
    M, _ = reference_ball_rows(*args)
    row = M[0].tolist()
    total = 0.0
    for x in row:
        total += x
    if total > 0.0:
        want = np.array([x / total for x in row])
        got = conditional_marginal(system, graph, v, fixed, support)
        assert got.tobytes() == want.tobytes()


# Every product on P4 is e^-796, below the smallest normal double (about
# e^-708), though every configuration has positive weight.
UNDERFLOWING = SpinSystem(2, [math.exp(-199)] * 2, np.ones((2, 2)))


def test_underflowing_supports_are_flagged():
    # n log min(b, 1) + m log min(A, 1) against log of the smallest normal
    # double: four vertices at e^-199 each pass it, three do not.
    p4 = path_graph(4)
    assert Support(UNDERFLOWING, p4, [1, 2, 3, 4]).underflows
    assert not Support(UNDERFLOWING, p4, [1, 2, 3]).underflows
    assert not Support(UNDERFLOWING, p4, [1, 2, 3, 4]).fits(1)
    # The benchmark's systems never come near it, on their balls or on the
    # whole graphs of its finite cells.
    grid3 = grid_graph(3, 3)
    for system, graph, vertices in (
        (hardcore(0.3), Lattice(2), Lattice(2).ball((0, 0), 2)),
        (hardcore(1.0), grid3, grid3.vertices()),
        (ising(1.5), grid3, grid3.vertices()),
        (coloring(4), cycle_graph(5), cycle_graph(5).vertices()),
    ):
        assert not Support(system, graph, vertices).underflows


def test_an_underflowing_extreme_raises_instead_of_dropping_its_row():
    # Attractive, so the origin's radius-1 miss reads the two extremes.  The
    # all-2 boundary weighs e^-796 and would be dropped as infeasible,
    # leaving the law [0, 1, 5e-174]; p^1 is about 1/(1 + e) there.
    system = SpinSystem(2, [1.0, math.exp(-199)], [[math.exp(50), 1.0], [1.0, math.exp(50)]])
    with pytest.raises(TooLargeError, match="underflow"):
        min_marginals(system, Lattice(2), {}, (0, 0), 1)


def test_underflowing_weights_raise_from_every_miss():
    p4 = path_graph(4)
    with pytest.raises(TooLargeError, match="underflow"):
        conditional_marginal(UNDERFLOWING, p4, 1, {}, [1, 2, 3, 4])
    with pytest.raises(TooLargeError, match="underflow"):
        conditional_marginal(UNDERFLOWING, p4, 2, {4: 1}, [1, 2, 3, 4])
    with pytest.raises(TooLargeError, match="underflow"):
        min_marginals(UNDERFLOWING, p4, {}, 2, 2)
    # Three vertices weigh e^-597: no row underflows there.
    assert min_marginals(UNDERFLOWING, p4, {}, 1, 2)[0] == 0.0


def test_underflowing_weights_raise_from_every_window():
    # Vertex 2's ball at radius 2 holds all four vertices, so its bound is 0
    # and every call there looks up and raises; the capped sampler's oracle
    # enumerates the whole path.
    p4 = path_graph(4)
    cache = MarginalCache(UNDERFLOWING, p4, 2)
    assert cache.p1_bound(1) > 0.0 and cache.p1_bound(2) == 0.0
    for seed in range(10):
        for h in (None, 0):
            with pytest.raises(TooLargeError, match="underflow"):
                WindowSampler(UNDERFLOWING, p4, 2).sample_window([1, 2, 3, 4], seed, h=h)


# Flagged supports whose feasible rows weigh far more than the smallest
# normal double: five vertices at e^-150 pass the bound, but no product
# falls below e^-300.  On the odd cycle neither ball is monotone and the two
# sphere vertices are adjacent, so a boundary row of hard-core (both
# occupied) or of the colouring (equal colours) is zero: infeasible, not
# underflowed.
HARDCORE_TINY = hardcore(math.exp(-150))
COLORING_TINY = SpinSystem(3, [1.0, 1.0, math.exp(-150)], 1.0 - np.eye(3))


@pytest.mark.parametrize(
    "system, fixed, want",
    [
        (HARDCORE_TINY, {}, ["0x0.0p+0", "0x1.0000000000000p+0", "0x1.82e16284f5ec5p-217"]),
        (HARDCORE_TINY, {2: 1}, ["0x0.0p+0", "0x1.0000000000000p+0", "0x1.82e16284f5ec5p-217"]),
        (
            COLORING_TINY,
            {},
            [
                "0x1.0000000000000p+0",
                "0x1.82e16284f5ec5p-217",
                "0x1.82e16284f5ec5p-217",
                "0x1.82e16284f5ec5p-216",
            ],
        ),
    ],
    ids=["hardcore", "hardcore-context", "coloring"],
)
def test_infeasible_rows_on_flagged_supports_stay_infeasible(system, fixed, want):
    c5 = cycle_graph(5)
    query = _ball_query(system, c5, fixed, 1, 2)
    assert query[0].underflows and not query[0].monotone
    got = min_marginals(system, c5, fixed, 1, 2)
    # The bits the walk gave before the underflow check, and the replaced
    # chain's.
    assert [float.hex(float(x)) for x in got] == want
    assert got.tobytes() == np.array(reference_min_marginals(*query)).tobytes()


def test_infeasible_contexts_on_flagged_supports_stay_infeasible():
    p5 = path_graph(5)
    assert Support(HARDCORE_TINY, p5, [1, 2, 3, 4, 5]).underflows
    with pytest.raises(InfeasibleBoundaryError):
        conditional_marginal(HARDCORE_TINY, p5, 3, {1: 2, 2: 2}, [1, 2, 3, 4, 5])


def test_windows_on_flagged_supports_draw_as_before():
    # The spins and counts the sampler drew before the underflow check.  The
    # class bound is 0 on a flagged ball, so every call looks up.
    c5 = cycle_graph(5)
    window = [1, 2, 3, 4, 5]
    for seed in range(3):
        for h in (None, 0, 1):
            spins, stats = WindowSampler(HARDCORE_TINY, c5, 2).sample_window(window, seed, h=h)
            assert [spins.spin(v) for v in window] == [1] * 5
            assert (stats.total_calls, stats.max_depth, stats.indecision_events) == (5, 1, 0)
    drawn = {
        (0, 0): ([3, 1, 2, 1, 2], 5),
        (0, 1): ([2, 1, 3, 2, 1], 5),
        (0, 2): ([2, 1, 2, 3, 1], 5),
        (1, 0): ([3, 1, 2, 1, 2], 9),
        (1, 1): ([2, 1, 2, 3, 1], 7),
        (1, 2): ([2, 3, 1, 2, 1], 10),
    }
    for (h, seed), (want, calls) in drawn.items():
        spins, stats = WindowSampler(COLORING_TINY, c5, 2).sample_window(window, seed, h=h)
        assert [spins.spin(v) for v in window] == want
        assert stats.total_calls == calls
