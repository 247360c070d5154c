"""The draw-first shortcut against the engine it replaces.

Each call of the sampler draws its variate y first and assigns spin 1
outright when y falls below ``MarginalCache.p1_bound(v)``, a lower bound on
p_v^1 that holds under every context; only a variate at or above it looks
up v's partition.  ``reference_run`` below is the engine as it was before:
every call looks its partition up and then draws.  The shortcut must give
the reference's spins, counts, trace and draws exactly, and a run that
fails must fail in the same way: a budget trip with the same message,
fields and counts.  Each class bound is also held to the one a ball frame
built through ``FiniteGraph`` gives, as frames were built before they
compiled their label adjacency directly, and each frame's compiled ball to
the one a public query compiles.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_cache_keys import CASES, PROPERTY, THREE_SPIN, _contexts, _vertex, ball_parts, lookup

from ssms import (
    FiniteGraph,
    Lattice,
    LineGraph,
    RandomSource,
    RecursionStats,
    RegularTree,
    SpinSystem,
    WindowSampler,
    coloring,
    cycle_graph,
    grid_graph,
    hardcore,
    ising,
)
from ssms.bruteforce import ENUM_CAP, Factors, Support
from ssms.errors import BudgetExhaustedError, InfeasibleContextError, SsmsError, TooLargeError
from ssms.marginals import NEG_TOL, _ball_min_marginals, _ball_query
from ssms.sampler import IntervalPartition, MarginalCache, _run


def reference_run(cache, lam, v, rng, stats, budget, h=None):
    """One top-level call of the engine without the shortcut."""
    trace = stats.trace
    calls = max_depth = undecided = 0
    stack = []
    top = v
    try:
        while True:
            calls += 1
            depth = len(stack) + 1
            if calls > budget:
                fmt = cache.graph.format_bounded
                raise BudgetExhaustedError(
                    f"call budget {budget} exhausted for vertex {fmt(top)}: "
                    f"entering vertex {fmt(v)} at depth {depth}",
                    budget=budget,
                    top=top,
                    vertex=v,
                    depth=depth,
                )
            if depth > max_depth:
                max_depth = depth
            if len(stack) == h:
                part = lookup(cache, "whole_graph_marginal", v, lam)
            else:
                part = lookup(cache, "min_intervals", v, lam)
            y = rng.next_double()
            spin = part.locate(y)
            if trace is not None:
                trace.append((v, depth, spin == 0))
            if spin == 0:
                undecided += 1
                free = [w for w in ball_parts(cache, v)[0] if w not in lam]
                stack.append((v, y, part, free, iter(free)))
            elif stack:
                lam[v] = spin
            else:
                return spin
            while (v := next(stack[-1][4], None)) is None:
                u, y, part, free, _ = stack.pop()
                spin = part.locate_zone(y, lookup(cache, "sphere_conditional", u, lam))
                for w in free:
                    del lam[w]
                if not stack:
                    return spin
                lam[u] = spin
    finally:
        stats.total_calls += calls
        stats.indecision_events += undecided
        if max_depth > stats.max_depth:
            stats.max_depth = max_depth


def outcome(draw, seed):
    """What a window draw at ``seed`` gave: its spins, stats and draws, or
    the error it raised; a budget trip also gives the vertex and depth it
    was entering, which its message may cut short."""
    rng = RandomSource(seed)
    try:
        spins, stats = draw(rng)
    except SsmsError as err:
        return type(err), str(err), getattr(err, "vertex", None), getattr(err, "depth", None)
    return spins, stats, rng.counter


# Low enough that the divergent cells trip quickly.  A trip names the vertex
# and depth it was entering, so equal trips mean equal walks.
BUDGET = 400

SYSTEMS = {
    "hardcore(0.3)": hardcore(0.3),
    "hardcore(1)": hardcore(1.0),
    "ising(1.2)": ising(1.2),
    "ising(1.5)": ising(1.5),
    "coloring(4)": coloring(4),
    "three-spin": THREE_SPIN,
}
ALL = tuple(SYSTEMS)
Z2, GRID, C5 = Lattice(2), grid_graph(3, 3), cycle_graph(5)
LINE, TREE = LineGraph(Lattice(2)), RegularTree(3)
# Graph, radius, window and the systems drawn there.  Every tree vertex is
# its own ball class, so a divergent coloring walk at radius 2 builds a
# frame of several MB per call; colorings run on the tree at radius 1 only.
GRAPHS = {
    "z2-ell2": (Z2, 2, Z2.box((0, 0), (3, 3)), ALL),
    "grid3x3-ell1": (GRID, 1, GRID.vertices(), ALL),
    "c5-ell2": (C5, 2, C5.vertices(), ALL),
    "line:z2-ell1": (LINE, 1, [((0, 0), (0, 1)), ((0, 0), (1, 0)), ((0, 1), (1, 1))], ALL),
    "tree:3-ell1": (TREE, 1, [(), (0,), (1,), (0, 0)], ALL),
    "tree:3-ell2": (TREE, 2, [(), (0,), (1,), (0, 0)], tuple(s for s in ALL if s != "coloring(4)")),
    # No class fits the enumeration cap: every run raises TooLargeError.
    "z2-ell4": (Z2, 4, [(0, 0)], ("hardcore(0.3)",)),
}
# On a finite graph the capped rows read the oracle at depth 2 and, with
# h = 0, at every top-level call.
GATE = [
    (g, s, h, trace)
    for g, (graph, _, _, systems) in GRAPHS.items()
    for s in systems
    for h, trace in (
        ((None, False), (1, True), (0, False))
        if graph.is_finite()
        else ((None, False), (None, True))
    )
]


@pytest.mark.parametrize("graph_id,system_id,h,trace", GATE, ids=str)
def test_shortcut_equals_the_engine_without_it(graph_id, system_id, h, trace):
    graph, ell, window, _ = GRAPHS[graph_id]
    system = SYSTEMS[system_id]
    sampler = WindowSampler(system, graph, ell, budget=BUDGET)
    cache = MarginalCache(system, graph, ell)

    def reference(rng):
        lam, out = {}, {}
        stats = RecursionStats(trace=[] if trace else None)
        for v in window:
            lam[v] = out[v] = reference_run(cache, lam, v, rng, stats, BUDGET, h)
        return out, stats

    for seed in range(6):
        want = outcome(reference, seed)
        got = outcome(lambda rng: sampler.sample_window(window, rng, trace=trace, h=h), seed)
        if len(want) == 3:
            assert (got[0].as_dict(), *got[1:]) == want
        else:
            assert got == want
        if graph_id == "z2-ell4":
            assert want[0] is TooLargeError


# Divergent runs that trip the budget: an uncapped coloring walk on Z^2,
# and a capped one on the 3x3 grid that trips entering the oracle's depth.
# At a budget of 1 the first child of any undecided top-level call trips,
# after the window's decided ones (seed 3 trips at the second vertex).
# (system, graph, radius, window, depth cap, budget)
TRIPS = {
    "coloring(6)-z2-ell1": (coloring(6), Z2, 1, Z2.box((0, 0), (3, 3)), None, BUDGET),
    "coloring(4)-grid3x3-ell1-h4": (coloring(4), GRID, 1, GRID.vertices(), 4, 40),
    "hardcore(1)-z2-ell2-budget1": (hardcore(1.0), Z2, 2, Z2.box((0, 0), (3, 3)), None, 1),
}


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("case", TRIPS)
def test_budget_trips_equal_the_reference(case, trace):
    # The engine keeps the entered call's depth and the top waiting call's
    # iterator in locals; a trip must still report the reference's message,
    # fields and counts, and the call that trips is counted without raising
    # the maximum depth.
    system, graph, ell, window, h, budget = TRIPS[case]
    cache = MarginalCache(system, graph, ell)
    engine = MarginalCache(system, graph, ell)

    def trip(run, rng):
        stats = RecursionStats(trace=[] if trace else None)
        with pytest.raises(BudgetExhaustedError) as err:
            run(rng, stats)
        e = err.value
        return str(e), e.budget, e.top, e.vertex, e.depth, stats, rng.counter

    def reference(rng, stats):
        lam = {}
        for v in window:
            lam[v] = reference_run(cache, lam, v, rng, stats, budget, h)

    for seed in range(4):
        want = trip(reference, RandomSource(seed))
        got = trip(
            lambda rng, stats: _run(engine, {}, window, rng, stats, budget, h), RandomSource(seed)
        )
        assert got == want
        *_, depth, stats, _ = got
        assert stats.total_calls > budget
        if trace:
            assert stats.max_depth == max(d for _, d, _ in stats.trace)
        if h is not None:
            assert depth == h + 1


def test_an_empty_window_leaves_the_stats_at_zero():
    rng = RandomSource(1)
    stats = RecursionStats()
    assert _run(MarginalCache(hardcore(0.3), Z2, 2), {}, [], rng, stats, BUDGET) == {}
    assert stats == RecursionStats() and rng.counter == 0
    spins, stats = WindowSampler(hardcore(0.3), Z2, 2).sample_window([], 1, trace=True)
    assert len(spins) == 0 and stats == RecursionStats(trace=[])


def test_the_gate_takes_the_shortcut_and_the_lookup(monkeypatch):
    # On the gate's own first Z^2 window, the shortcut assigns most calls
    # and the lookup still serves the rest.  The engine reads hits off the
    # cache's table itself, so a lookup is counted where every looked-up
    # call goes next: locating its variate in the partition.
    sampler = WindowSampler(hardcore(0.3), Z2, 2)
    lookups = []
    locate = IntervalPartition.locate
    monkeypatch.setattr(
        IntervalPartition, "locate", lambda part, y: lookups.append(y) or locate(part, y)
    )
    _, stats = sampler.sample_window(Z2.box((0, 0), (3, 3)), 0)
    assert 0 < len(lookups) < stats.total_calls / 2


def test_bound_values():
    # hard-core: unoccupied with probability 1/(1+lambda) when every
    # neighbour is empty, the least a conditional can give spin 1
    assert MarginalCache(hardcore(0.3), Z2, 2).p1_bound((5, -3)) == pytest.approx(
        1 / 1.3 - NEG_TOL, abs=1e-15
    )
    # Ising: spin 1 against four neighbours of spin 2
    assert MarginalCache(ising(1.2), Z2, 3).p1_bound((0, 0)) == pytest.approx(
        1 / (1 + 1.2**4) - NEG_TOL, abs=1e-15
    )
    assert MarginalCache(THREE_SPIN, GRID, 1).p1_bound(5) > 0.0
    # a coloring's spin 1 cannot sit next to spin 1
    assert MarginalCache(coloring(4), Z2, 2).p1_bound((0, 0)) == 0.0
    # a miss past the enumeration cap: the lookup must still raise
    assert MarginalCache(hardcore(0.3), Z2, 4).p1_bound((0, 0)) == 0.0
    # one bound per ball class, not per vertex
    cache = MarginalCache(hardcore(0.3), Z2, 2)
    for v in Z2.box((0, 0), (4, 4)):
        cache.p1_bound(v)
    assert len(cache._frames) == 1 and len(cache._entries) == 1


@pytest.mark.parametrize("graph,ell,systems", CASES.values(), ids=CASES.keys())
@PROPERTY
@given(data=st.data())
def test_bound_is_below_every_p1(graph, ell, systems, data):
    system = data.draw(st.sampled_from(systems))
    v = _vertex(data, graph)
    cache = MarginalCache(system, graph, ell)
    bound = cache.p1_bound(v)
    for lam in _contexts(data, system, graph, v, ell):
        assert bound <= lookup(cache, "min_intervals", v, lam).cum[0]
        if graph.is_finite() and system.q ** (len(graph.vertices()) - len(lam)) <= ENUM_CAP:
            assert bound <= lookup(cache, "whole_graph_marginal", v, lam).cum[0]


def test_an_infeasible_fixed_context_raises_before_any_draw():
    # Two adjacent occupied vertices.  p_v^1 >= 0.769 at the origin, so a
    # shortcut taken before any lookup would return a spin for most seeds.
    sampler = WindowSampler(hardcore(0.3), Z2, 2)
    fixed = {(1, 0): 2, (1, 1): 2}
    for seed in range(40):
        rng = RandomSource(seed)
        with pytest.raises(InfeasibleContextError, match=r"\(1,0\) and \(1,1\)"):
            sampler.sample_window([(0, 0)], rng, fixed)
        assert rng.counter == 0
    # A field of 0 is infeasible too; an underflowing product is not.
    no_two = SpinSystem(2, [1.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(InfeasibleContextError, match="field is 0"):
        WindowSampler(no_two, Z2, 1).sample_window([(0, 0)], 1, {(5, 5): 2})
    far = {(2 * i, 9): 2 for i in range(800)}
    spins, _ = WindowSampler(hardcore(0.3), Z2, 1).sample_window([(0, 0)], 1, far)
    assert spins.spin((0, 0)) in (1, 2)


def test_a_spin_one_cannot_sit_by_keeps_the_lookup():
    # Spin 2 fits next to nothing, so {(1, 0): 2} has positive weight on its
    # own yet no spin of the origin extends it.  The radius-1 minimum is 1
    # (spin 2 never occurs around a feasible neighbourhood), but spin 1 is
    # not free to sit next to every spin, so the bound is 0 and every run
    # raises as the lookup does.
    loner = SpinSystem(2, [1.0, 1.0], [[1.0, 0.0], [0.0, 0.0]])
    sampler = WindowSampler(loner, Z2, 1)
    assert sampler._cache.p1_bound((0, 0)) == 0.0
    for seed in range(40):
        with pytest.raises(InfeasibleContextError):
            sampler.sample_window([(0, 0)], seed, {(1, 0): 2})


FRAME_GRAPHS = {
    "z1": (Lattice(1), [(0,)]),
    "z2": (Lattice(2), [(0, 0)]),
    "z3": (Lattice(3), [(0, 0, 0)]),
    "tree:3": (RegularTree(3), [(), (0,), (2, 1), (1, 0, 1)]),
    "line:z2": (LineGraph(Lattice(2)), [((0, 0), (0, 1)), ((0, 0), (1, 0))]),
    "grid4x5": (grid_graph(4, 5), grid_graph(4, 5).vertices()),
    "c5": (cycle_graph(5), cycle_graph(5).vertices()),
}


def reference_p1_bound(system, graph, v, widest):
    """The class bound as it was computed on a ``FiniteGraph`` frame: the
    radius-1 min marginal of spin 1 with no context, on a support compiled
    from the graph."""
    if not (system.b[0] > 0.0 and (system.A[0] > 0.0).all()) or system.q**widest > ENUM_CAP:
        return 0.0
    near = graph.neighbors(v)
    support = Support(system, graph, (v, *near), Factors(system))
    label = support.label
    empty = (None,) * (len(near) + 2)
    p = _ball_min_marginals(support, label[v], [label[w] for w in near], (label[v],), empty)
    return max(p[1] - NEG_TOL, 0.0)


def compiled(support):
    """What a compiled support's misses read: its labels, label lists and
    flags."""
    return (
        support.vertices,
        support.adjacent_labels,
        support.later_labels,
        support.monotone,
        support.underflows,
    )


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("name", FRAME_GRAPHS)
def test_frames_compile_as_on_a_finite_graph(name, ell):
    # Ball frames and public queries compile their balls in one function
    # (``marginals._compile_ball``), with no FiniteGraph.  A frame must give
    # the Support and class bound that a frame built through FiniteGraph on
    # the same labels and edges gives, and a public query at any vertex of
    # its class must compile the frame's support, labels and digits.
    graph, vertices = FRAME_GRAPHS[name]
    for system in (hardcore(0.3), ising(1.5), THREE_SPIN):
        cache = MarginalCache(system, graph, ell)
        for v in vertices:
            ball_parts(cache, v)
            frame = cache._frames[graph.ball_class(v)]
            label = {w: i for i, w in enumerate(frame.ball, 1)}
            edges = {
                (min(i, label[u]), max(i, label[u]))
                for w, i in label.items()
                for u in graph.neighbors(w)
                if u in label
            }
            labelled = FiniteGraph(len(frame.ball), sorted(edges))
            want = Support(system, labelled, labelled.vertices())
            assert compiled(frame.support) == compiled(want)
            ball, *query = _ball_query(system, graph, {}, v, ell)
            assert compiled(ball) == compiled(frame.support)
            empty = (0,) * (len(frame.ball) + 1)
            assert query == [frame.v, frame.sphere, frame.interior, empty]
            widest = len(frame.interior) if want.monotone else len(frame.ball)
            assert frame.p1_bound == reference_p1_bound(system, labelled, frame.v, widest)
