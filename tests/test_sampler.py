"""Recursive sampler: randomness, interval logic, traces, and exactness."""

import math
import re
import tracemalloc
from bisect import bisect_right
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cache_keys import lookup

from ssms import (
    FiniteGraph,
    IntervalPartition,
    Lattice,
    LineGraph,
    RandomSource,
    RecursionStats,
    RegularTree,
    WindowSampler,
    coloring,
    cycle_graph,
    grid_graph,
    hardcore,
    ising,
    min_marginals,
    partition_function,
    path_graph,
)
from ssms.bruteforce import Factors
from ssms.errors import (
    BudgetExhaustedError,
    ConfigError,
    FiniteOnlyError,
    InfeasibleBoundaryError,
    InvalidProbabilitiesError,
    InvalidVertexError,
    ModelParameterError,
    NotSeparatingError,
)
from ssms.marginals import NEG_TOL
from ssms import sampler as sampler_module
from ssms.sampler import _BALLS_CAP, MarginalCache

# First four variates of the stream seeded with 42, frozen as a regression
# pin after checking them against an outside implementation of the same
# generator.
SEED42_DOUBLES = [
    0.7415648787718233,
    0.1599103928769201,
    0.27860113025513866,
    0.34419071652363753,
]


class FakeRng:
    """Scripted variate source for exercising specific recursion paths."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.counter = 0

    def next_double(self):
        self.counter += 1
        return self.draws.pop(0)


def test_random_source_reference_sequence():
    rng = RandomSource(42)
    got = [rng.next_double() for _ in range(4)]
    assert got == SEED42_DOUBLES
    assert rng.counter == 4


def test_random_source_is_deterministic_and_in_range():
    a = RandomSource(12345)
    b = RandomSource(12345)
    for _ in range(1000):
        x = a.next_double()
        assert x == b.next_double()
        assert 0.0 <= x < 1.0


def test_interval_partition_degenerate_spin():
    # all mass on spin 1: every variate lands there, the zone is empty
    part = IntervalPartition([0.0, 1.0, 0.0])
    assert part.locate(0.0) == 1
    assert part.locate(0.999999) == 1
    assert part.zone_start == 1.0


def test_exact_marginal_leaves_no_zone():
    # The running sum 1/6 + 4/6 + 1/6 ends an ulp below 1; with p^0 = 0 the
    # top variates belong to the last spin of positive mass, not to a zone.
    part = IntervalPartition([0.0, 1 / 6, 4 / 6, 1 / 6])
    assert part.locate(math.nextafter(1.0, 0.0)) == 3
    assert part.zone_start == 1.0
    part = IntervalPartition([0.0, 1 / 6, 5 / 6, 0.0])
    assert part.locate(math.nextafter(1.0, 0.0)) == 2


def test_interval_partition_with_zone():
    # worst-case vector for the middle of a three-vertex path at activity 1
    part = IntervalPartition([0.5, 0.5, 0.0])
    assert part.locate(0.25) == 1
    assert part.locate(0.499999) == 1
    assert part.locate(0.5) == 0
    assert part.locate(0.75) == 0
    assert part.q == 2
    assert part.p == (0.5, 0.5, 0.0)


def test_interval_partition_quarters():
    part = IntervalPartition([0.0, 0.25, 0.25, 0.25, 0.25])
    assert part.locate(0.0) == 1
    assert part.locate(0.25) == 2
    assert part.locate(0.74) == 3
    assert part.locate(0.75) == 4
    assert part.locate(0.999) == 4


def test_interval_partition_validation():
    with pytest.raises(InvalidProbabilitiesError):
        IntervalPartition([0.5, 0.4])          # mass missing
    with pytest.raises(InvalidProbabilitiesError):
        IntervalPartition([-0.2, 0.6, 0.6])    # negative entry
    part = IntervalPartition([0.0, 1.0])
    with pytest.raises(InvalidProbabilitiesError):
        part.locate(1.0)
    with pytest.raises(InvalidProbabilitiesError):
        part.locate(-0.1)


def reference_partition(p):
    """``(p, cum)`` of an IntervalPartition as it was built before its
    checks and edges shared one pass: convert, scan the range twice, sum,
    clamp, then the running sums and the zero-zone edge rule."""
    p = [float(x) for x in p]
    if any(x < -1e-12 for x in p) or any(x > 1.0 + 1e-12 for x in p):
        raise InvalidProbabilitiesError(f"interval masses outside [0,1]: {p}")
    total = sum(p)
    if abs(total - 1.0) > NEG_TOL:
        raise InvalidProbabilitiesError(f"interval masses sum to {total}, not 1")
    p = [max(x, 0.0) for x in p]
    cum = []
    acc = 0.0
    for x in p[1:]:
        acc += x
        cum.append(acc)
    if p[0] == 0.0:
        last = max(i for i, x in enumerate(p[1:]) if x > 0.0)
        cum[last:] = [1.0] * (len(cum) - last)
    return tuple(p), cum


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_pass_partition_equals_the_reference(data):
    # Normalized masses with exact zeros, roundoff just below 0, masses past
    # the range and sums off by more than the tolerance: the same edges, or
    # the same error with the same message.
    q = data.draw(st.integers(1, 6))
    weights = [data.draw(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 3.0)) for _ in range(q)]
    total = sum(weights) or 1.0
    p = [0.0] + [w / total for w in weights]
    if data.draw(st.booleans()):
        p[0] = data.draw(st.floats(0.0, 1.0))
        p[1:] = [x * (1.0 - p[0]) for x in p[1:]]
    for i in range(len(p)):
        p[i] += data.draw(st.sampled_from([0.0, 0.0, -5e-13, -2e-12, 1e-10, 0.5]))
    source = data.draw(st.sampled_from([list, tuple, np.array]))(p)
    try:
        want = reference_partition(source)
    except InvalidProbabilitiesError as exc:
        with pytest.raises(InvalidProbabilitiesError, match="^" + re.escape(str(exc)) + "$"):
            IntervalPartition(source)
        return
    part = IntervalPartition(source)
    assert (part.p, part.cum) == want
    assert all(type(x) is float for x in part.p + tuple(part.cum))


def test_zone_subdivision():
    part = IntervalPartition([0.5, 0.5, 0.0])
    # resolved marginal (1/2, 1/2): all zone mass goes to spin 2
    half = IntervalPartition([0.0, 0.5, 0.5])
    assert part.split_zone([0.5, 0.5]) == [0.5, 1.0]
    assert part.locate_zone(0.5, half) == 2
    assert part.locate_zone(0.75, half) == 2
    # resolved marginal (1, 0): all zone mass goes to spin 1
    first = IntervalPartition([0.0, 1.0, 0.0])
    assert part.locate_zone(0.75, first) == 1
    # the zone is closed on the right
    assert part.locate_zone(1.0, first) == 1


def test_immediate_hit_costs_one_call():
    sampler = WindowSampler(hardcore(1.0), path_graph(3), 1)
    spins, stats = sampler.sample_window([2], FakeRng([0.25]))
    assert spins.spin(2) == 1
    assert stats.total_calls == 1
    assert stats.max_depth == 1
    assert stats.indecision_events == 0


def test_zone_resolution_trace():
    # 0.75 lands in the indecision zone of the middle vertex, both ends
    # resolve unoccupied on 0.25, and the subdivided zone then yields
    # occupation; the sphere spins themselves are discarded
    spins, stats = WindowSampler(hardcore(1.0), path_graph(3), 1).sample_window(
        [2], FakeRng([0.75, 0.25, 0.25]), trace=True
    )
    assert spins.as_dict() == {2: 2}
    assert stats.total_calls == 3
    assert stats.max_depth == 2
    assert stats.indecision_events == 1
    assert stats.trace == [(2, 1, True), (1, 2, False), (3, 2, False)]


def test_mutual_recursion_trace():
    # vertex 3 falls into its own zone while resolving vertex 2, so the
    # engine descends to vertex 2 again one level deeper; the occupied
    # neighbor then forces vertex 2 unoccupied at the top
    spins, stats = WindowSampler(hardcore(1.0), path_graph(3), 1).sample_window(
        [2], FakeRng([0.75, 0.25, 0.9, 0.25]), trace=True
    )
    assert spins.as_dict() == {2: 1}
    assert stats.total_calls == 4
    assert stats.max_depth == 3
    assert stats.indecision_events == 2
    assert stats.trace == [
        (2, 1, True), (1, 2, False), (3, 2, True), (2, 3, False),
    ]


def test_isolated_vertex_has_no_zone():
    sampler = WindowSampler(hardcore(1.0), FiniteGraph(1, []), 1)
    spins, stats = sampler.sample_window([1], FakeRng([0.3]))
    assert spins.spin(1) == 1 and stats.total_calls == 1
    spins, _ = sampler.sample_window([1], FakeRng([0.6]))
    assert spins.spin(1) == 2


def test_one_draw_per_call():
    sampler = WindowSampler(hardcore(1.0), cycle_graph(5), 1)
    for seed in range(30):
        rng = RandomSource(seed)
        _, stats = sampler.sample_window([1], rng)
        assert rng.counter == stats.total_calls

    rng = RandomSource(99)
    _, stats = WindowSampler(hardcore(0.5), grid_graph(3, 3), 1).sample_window(
        [1, 5, 9], rng
    )
    assert rng.counter == stats.total_calls


def test_window_run_is_deterministic():
    g = grid_graph(3, 3)
    window = list(g.vertices())
    spins_a, stats_a = WindowSampler(hardcore(0.5), g, 1).sample_window(window, 31)
    spins_b, stats_b = WindowSampler(hardcore(0.5), g, 1).sample_window(window, 31)
    assert spins_a == spins_b
    assert stats_a == stats_b


def test_budget_is_per_call_and_sharp():
    draws = [0.75, 0.25, 0.9, 0.25]
    _, stats = WindowSampler(hardcore(1.0), path_graph(3), 1, budget=4).sample_window(
        [2], FakeRng(draws)
    )
    assert stats.total_calls == 4
    with pytest.raises(BudgetExhaustedError):
        WindowSampler(hardcore(1.0), path_graph(3), 1, budget=3).sample_window([2], FakeRng(draws))


def test_window_counts_every_call_with_a_fresh_budget_per_vertex():
    # at seed 0 the five vertices take 3, 1, 1, 1 and 1 calls: the window
    # fits a budget of 3 per vertex although its total is 7, and trips at 2,
    # in window vertex 1's run, on entering its sphere vertex 5
    system, g = hardcore(1.0), cycle_graph(5)
    window = list(g.vertices())
    spins, stats = WindowSampler(system, g, 1, budget=3).sample_window(window, 0)
    assert stats.total_calls == 7
    with pytest.raises(
        BudgetExhaustedError,
        match=r"^call budget 2 exhausted for vertex 1: entering vertex 5 at depth 2$",
    ):
        WindowSampler(system, g, 1, budget=2).sample_window(window, 0)

    sampler, rng, fixed, runs = WindowSampler(system, g, 1), RandomSource(0), {}, []
    for v in window:
        one, run = sampler.sample_window([v], rng, fixed)
        fixed[v] = one.spin(v)
        runs.append(run)
    assert [s.total_calls for s in runs] == [3, 1, 1, 1, 1]
    assert dict(spins.items()) == fixed
    assert stats.total_calls == sum(s.total_calls for s in runs)
    assert stats.max_depth == max(s.max_depth for s in runs)
    assert stats.indecision_events == sum(s.indecision_events for s in runs)


def test_budget_trip_carries_its_snapshot_as_fields():
    # the trip above, read back from the exception's fields, not its text
    system, g = hardcore(1.0), cycle_graph(5)
    with pytest.raises(BudgetExhaustedError) as info:
        WindowSampler(system, g, 1, budget=2).sample_window(list(g.vertices()), 0)
    trip = info.value
    assert (trip.budget, trip.top, trip.vertex, trip.depth) == (2, 1, 5, 2)
    assert str(trip) == "call budget 2 exhausted for vertex 1: entering vertex 5 at depth 2"
    lattice = Lattice(2)
    with pytest.raises(BudgetExhaustedError) as info:
        WindowSampler(coloring(6), lattice, 1, budget=50).sample_window([(3, 4)], 7)
    trip = info.value
    assert (trip.budget, trip.top, trip.vertex, trip.depth) == (50, (3, 4), (-47, 4), 51)
    assert str(trip) == (
        "call budget 50 exhausted for vertex (3,4): entering vertex (-47,4) at depth 51"
    )


def test_divergent_lattice_walk_keeps_a_bounded_ball_memo():
    # coloring(6) at radius 1 leaves every call undecided, so the walk runs
    # (0,0), (-1,0), (-2,0), ... and enters a new vertex per call.  The memo
    # of entries is cleared at _BALLS_CAP entries, so it never holds the whole
    # walk.
    sampler = WindowSampler(coloring(6), Lattice(2), 1, budget=3 * 10**4)
    with pytest.raises(
        BudgetExhaustedError,
        match=r"^call budget 30000 exhausted for vertex \(0,0\): "
        r"entering vertex \(-30000,0\) at depth 30001$",
    ):
        sampler.sample_window([(0, 0)], 7)
    assert 0 < len(sampler._cache._entries) <= _BALLS_CAP < 3 * 10**4


# Traced peak per call of the walk below at budget 2*10^4, measured once on
# the engine that held its context in a dict keyed by vertex (789.8 B).
# Interning gives every vertex the walk meets an id and a spin slot, so the
# walk may cost more per call, but not past a quarter more.
DICT_ENGINE_BYTES_PER_CALL = 790


def test_divergent_lattice_walk_interns_in_bounded_memory_per_call():
    budget = 2 * 10**4
    sampler = WindowSampler(coloring(6), Lattice(2), 1, budget=budget)
    tracemalloc.start()
    try:
        with pytest.raises(
            BudgetExhaustedError,
            match=r"^call budget 20000 exhausted for vertex \(0,0\): "
            r"entering vertex \(-20000,0\) at depth 20001$",
        ):
            sampler.sample_window([(0, 0)], 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / budget <= 1.25 * DICT_ENGINE_BYTES_PER_CALL


def test_every_window_leaves_the_spin_list_empty():
    # coloring(2) on the path 1..7 at radius 2.  Vertex 4's first lookup
    # leaves it undecided, and the fixed ends then force its sphere {2, 6}.
    # Under {1: 1, 7: 1} both take spin 2 and 4 resolves to 2.  With no
    # fixed end every call is undecided, so the walk trips the budget.
    # Under {1: 1, 7: 2} no interior fits the sphere's spins, so 4's sphere
    # conditional raises while 4 still waits on the stack.  A capped window
    # (h=0) reads the whole-graph oracle, which interns every vertex of the
    # path and reads their spins off the list.  After each window every
    # slot is 0 again, and a probe window draws as on a fresh sampler.
    system, path = coloring(2), path_graph(7)
    sampler = WindowSampler(system, path, 2, budget=50)
    spins = sampler._cache._ids.spins

    def probe(sampler):
        rng = RandomSource(3)
        got, stats = sampler.sample_window([4], rng, {1: 1, 7: 1})
        return got.as_dict(), stats, rng.counter

    want = probe(WindowSampler(system, path, 2, budget=50))
    assert want == ({4: 2}, RecursionStats(3, 2, 1), 3)
    windows = (
        ({1: 1, 7: 1}, None, None),
        ({}, None, BudgetExhaustedError),
        ({1: 1, 7: 2}, None, InfeasibleBoundaryError),
        ({1: 1, 7: 1}, 0, None),
    )
    for fixed, h, error in windows:
        if error is None:
            got, _ = sampler.sample_window([4], 5, fixed, h=h)
            assert got.as_dict() == {4: 2}
        else:
            with pytest.raises(error):
                sampler.sample_window([4], 5, fixed, h=h)
        assert spins and not any(spins)
        assert probe(sampler) == want
        assert not any(spins)


def test_a_capped_table_of_partitions_draws_as_an_uncapped_one():
    # Clearing the table drops partitions that later calls make again, as
    # new objects, so their zone edges are split anew, to the same values.
    z2 = Lattice(2)
    box = z2.box((0, 0), (6, 6))

    def run(sampler, after=lambda: None):
        seeds, out = RandomSource(1), []
        for _ in range(3):
            rng = RandomSource(seeds.next_uint64())
            got, stats = sampler.sample_window(box, rng)
            out.append((got.as_dict(), stats, rng.counter))
            after()
        return out

    uncapped = WindowSampler(hardcore(0.3), z2, 2)
    want = run(uncapped)
    assert len(uncapped._cache._parts) > 8
    sampler = WindowSampler(hardcore(0.3), z2, 2)
    sizes = []
    with mock.patch.object(sampler_module, "_PARTS_CAP", 8):
        got = run(sampler, lambda: sizes.append(len(sampler._cache._parts)))
    assert got == want
    assert 0 < max(sizes) <= 8


def test_a_cold_window_builds_one_factor_table_and_no_finite_graph():
    # A fresh sampler's frame reserves its widest miss, so every narrower
    # miss copies its rows from that one table, and the frame compiles its
    # label adjacency without building a validating FiniteGraph.
    with (
        mock.patch.object(Factors, "_table", autospec=True, side_effect=Factors._table) as table,
        mock.patch.object(
            FiniteGraph, "__init__", autospec=True, side_effect=FiniteGraph.__init__
        ) as finite,
    ):
        z2 = Lattice(2)
        sampler = WindowSampler(hardcore(0.3), z2, 2)
        sampler.sample_window(z2.box((0, 0), (8, 8)), 1)
    assert table.call_count == 1
    assert finite.call_count == 0
    # The misses did need narrower tables: free counts 1 (the p1 bound) to 5.
    assert len(sampler._cache._factors._axes) > 1


def test_a_cold_window_reads_each_ball_neighbor_list_once():
    # The window's one frame is a Z^2 ball of radius 2: 13 vertices.  The
    # breadth-first search reads the 5 interior vertices' neighbor lists and
    # hands them to the compile step, which reads only the 8 sphere
    # vertices' lists.
    with mock.patch.object(
        Lattice, "_neighbors", autospec=True, side_effect=Lattice._neighbors
    ) as reads:
        z2 = Lattice(2)
        sampler = WindowSampler(hardcore(0.3), z2, 2)
        sampler.sample_window(z2.box((0, 0), (8, 8)), 1)
    (frame,) = sampler._cache._frames.values()
    assert len(frame.ball) == 13
    assert sorted(call.args[1] for call in reads.call_args_list) == list(frame.ball)


def test_divergent_tree_run_trips_in_bounded_memory():
    # Every tree vertex is its own ball class, so this walk builds a ball
    # frame per call, each enumerating up to 4^10 cells.  The frames share
    # one set of factors, so the field tensors are built once per free
    # count, not once per frame (about 250 MB traced when they were not).
    sampler = WindowSampler(coloring(4), RegularTree(3), 2, budget=100)
    entered = "(0,0,0,0,0,0,0,0,0,0,1,1,0,0,0,0,1,0,0,0,1,1" + ",0" * 17 + ",1,0,0)"
    tracemalloc.start()
    try:
        with pytest.raises(
            BudgetExhaustedError,
            match="^" + re.escape(
                f"call budget 100 exhausted for vertex (): entering vertex {entered} at depth 72"
            ) + "$",
        ):
            sampler.sample_window([(), (0,), (1,), (0, 0)], 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_a_deep_tree_trip_names_its_vertex_in_bounded_text():
    # The same walk at budget 200 enters a 66-coordinate vertex; the message
    # cuts it to its ends and count, and the fields keep it whole.
    sampler = WindowSampler(coloring(4), RegularTree(3), 2, budget=200)
    with pytest.raises(BudgetExhaustedError) as info:
        sampler.sample_window([(), (0,), (1,), (0, 0)], 0)
    trip = info.value
    assert (trip.budget, trip.top, trip.depth, len(trip.vertex)) == (200, (), 140, 66)
    ends = ",".join(map(str, trip.vertex[:8])) + ",...," + ",".join(map(str, trip.vertex[-8:]))
    assert str(trip) == (
        f"call budget 200 exhausted for vertex (): entering vertex ({ends}; 66 coordinates) "
        "at depth 140"
    )
    assert len(str(trip)) < 200


def test_success_is_budget_invariant():
    # a run that finishes within a small budget returns the same spin and
    # statistics under any larger budget
    system, g = hardcore(1.0), cycle_graph(5)
    for seed in range(40):
        big, big_stats = WindowSampler(system, g, 1, budget=10**6).sample_window([1], seed)
        budget = big_stats.total_calls
        small, small_stats = WindowSampler(system, g, 1, budget=budget).sample_window([1], seed)
        assert small == big
        assert small_stats == big_stats


def test_cache_does_not_change_the_stream():
    # One sampler reused across seeds draws from a warm cache and shared ball
    # frames; a fresh sampler per seed computes every marginal anew.
    z2 = Lattice(2)
    window = z2.box((0, 0), (3, 3))
    reused = WindowSampler(hardcore(0.3), z2, 2)
    for seed in (1, 5, 11):
        sa, ra = reused.sample_window(window, seed)
        sb, rb = WindowSampler(hardcore(0.3), z2, 2).sample_window(window, seed)
        assert sa == sb
        assert ra == rb


def test_line_graph_edge_orientations_do_not_share_cache_entries():
    # Fix every vertex the two balls share, one of them occupied, so that the
    # context reads the same from a horizontal and a vertical edge at the
    # origin while their marginals differ; only the direction tells them apart.
    g = LineGraph(Lattice(2))
    system = hardcore(1.0)
    across, up = ((0, 0), (1, 0)), ((0, 0), (0, 1))
    shared = set(g.ball(across, 2)) & set(g.ball(up, 2)) - {across, up}
    ctx = {w: 1 for w in shared}
    ctx[((0, 1), (1, 1))] = 2
    cache = MarginalCache(system, g, 2)
    warm = lookup(cache, "min_intervals", across, ctx).p
    assert list(warm) == list(min_marginals(system, g, ctx, across, 2))
    got = lookup(cache, "min_intervals", up, ctx).p
    want = min_marginals(system, g, ctx, up, 2)
    assert list(want) != list(warm)
    assert list(got) == list(want)


def test_sphere_conditional_names_an_unassigned_sphere_vertex():
    z2 = Lattice(2)
    v = (3, -2)
    sphere = z2.sphere(v, 2)
    missing = sphere[5]
    lam = {w: 1 for w in z2.ball(v, 2) if w not in (v, missing)}
    cache = MarginalCache(hardcore(0.3), z2, 2)
    with pytest.raises(NotSeparatingError) as err:
        lookup(cache, "sphere_conditional", v, lam)
    assert z2.format_vertex(missing) in str(err.value)


@pytest.mark.parametrize("graph", [Lattice(2), LineGraph(Lattice(2))], ids=["z2", "line:z2"])
def test_sphere_conditional_errors_at_a_translated_vertex(graph):
    # The origin's lookup builds the class frame; v's ball and sphere are
    # then translated from it, and its cond miss runs on the frame's
    # compiled support.  A free sphere vertex and an infeasible ball context
    # must still be reported.
    origin = (0, 0) if graph.kind == "lattice" else ((0, 0), (1, 0))
    v = (3, -2) if graph.kind == "lattice" else ((3, -2), (4, -2))
    cache = MarginalCache(hardcore(0.3), graph, 2)
    lookup(cache, "sphere_conditional", origin, {w: 1 for w in graph.sphere(origin, 2)})
    sphere = graph.sphere(v, 2)
    outer = sphere[0]
    inner = next(w for w in graph.neighbors(outer) if w in graph.ball(v, 1))
    lam = {w: 1 for w in sphere}
    with pytest.raises(NotSeparatingError) as err:
        lookup(cache, "sphere_conditional", v, {w: s for w, s in lam.items() if w != outer})
    assert graph.format_vertex(outer) in str(err.value)
    # An occupied sphere vertex next to an occupied interior vertex.
    with pytest.raises(InfeasibleBoundaryError):
        lookup(cache, "sphere_conditional", v, {**lam, outer: 2, inner: 2})
    assert len(cache._frames) == 1


def test_bounded_frontier_uses_exact_oracle():
    # with no depth allowance at all the first call consults the exact
    # conditional: the middle of a three-vertex path is occupied in one of
    # the five independent sets
    z = partition_function(hardcore(1.0), path_graph(3))
    assert z == pytest.approx(5.0)
    sampler = WindowSampler(hardcore(1.0), path_graph(3), 1)
    spins, stats = sampler.sample_window([2], FakeRng([0.1]), h=0)
    assert spins.spin(2) == 1
    assert stats.total_calls == 1
    spins, _ = sampler.sample_window([2], FakeRng([0.85]), h=0)
    assert spins.spin(2) == 2


# Recorded engine streams: (spin, total_calls, max_depth, indecision_events)
# of WindowSampler(system, graph, 1).sample_window([v], RandomSource(seed), h=h)
# for seeds 0..9.
# A run with max_depth > h reached the frontier and consulted the oracle.
BOUNDED_CASES = {
    "path3": (hardcore(1.0), path_graph(3), 2),
    "cycle5-coloring": (coloring(4), cycle_graph(5), 1),
    "cycle5-ising": (ising(1.5), cycle_graph(5), 1),
}
BOUNDED_STREAMS = {
    ("path3", 0): [(2, 1, 1, 0)] + [(1, 1, 1, 0)] * 9,
    ("path3", 1): [
        (2, 3, 2, 1), (1, 3, 2, 1), (1, 3, 2, 1), (1, 1, 1, 0), (1, 1, 1, 0),
        (1, 1, 1, 0), (2, 3, 2, 1), (1, 1, 1, 0), (1, 3, 2, 1), (1, 3, 2, 1),
    ],
    ("path3", 2): [
        (2, 3, 2, 1), (2, 4, 3, 2), (1, 5, 3, 3), (1, 1, 1, 0), (1, 1, 1, 0),
        (1, 1, 1, 0), (2, 3, 2, 1), (1, 1, 1, 0), (1, 5, 3, 3), (1, 5, 3, 3),
    ],
    ("cycle5-coloring", 0): [(s, 1, 1, 0) for s in (4, 3, 3, 1, 2, 2, 3, 2, 3, 3)],
    ("cycle5-coloring", 1): [(s, 3, 2, 1) for s in (4, 2, 2, 1, 2, 2, 4, 2, 2, 3)],
    ("cycle5-coloring", 2): [(s, 7, 3, 3) for s in (4, 4, 3, 1, 3, 2, 4, 2, 4, 4)],
    ("cycle5-ising", 0): [(s, 1, 1, 0) for s in (2, 2, 2, 1, 1, 1, 2, 1, 2, 2)],
    ("cycle5-ising", 1): [
        (1, 3, 2, 1), (2, 1, 1, 0), (2, 1, 1, 0), (1, 1, 1, 0), (2, 1, 1, 0),
        (2, 1, 1, 0), (1, 3, 2, 1), (2, 1, 1, 0), (2, 3, 2, 1), (1, 3, 2, 1),
    ],
    ("cycle5-ising", 2): [
        (2, 3, 2, 1), (2, 1, 1, 0), (2, 1, 1, 0), (1, 1, 1, 0), (2, 1, 1, 0),
        (2, 1, 1, 0), (1, 3, 2, 1), (2, 1, 1, 0), (1, 5, 3, 2), (1, 5, 3, 2),
    ],
}


@pytest.mark.parametrize("case,h", BOUNDED_STREAMS, ids=[f"{c}-h{h}" for c, h in BOUNDED_STREAMS])
def test_bounded_runs_follow_the_recorded_stream(case, h):
    system, graph, v = BOUNDED_CASES[case]
    sampler = WindowSampler(system, graph, 1)
    got = []
    for seed in range(10):
        rng = RandomSource(seed)
        spins, stats = sampler.sample_window([v], rng, h=h)
        assert rng.counter == stats.total_calls
        got.append((spins.spin(v), stats.total_calls, stats.max_depth, stats.indecision_events))
    assert got == BOUNDED_STREAMS[case, h]
    assert any(depth > h for _, _, depth, _ in got)


def test_traced_run_follows_the_recorded_stream():
    rng = RandomSource(0)
    spins, stats = WindowSampler(coloring(4), cycle_graph(5), 1).sample_window(
        [1], rng, trace=True, h=2
    )
    assert (spins.spin(1), stats.total_calls, stats.max_depth, stats.indecision_events) == (4, 7, 3, 3)
    assert rng.counter == 7
    assert stats.trace == [
        (1, 1, True), (2, 2, True), (1, 3, False), (3, 3, False),
        (5, 2, True), (1, 3, False), (4, 3, False),
    ]


def test_lattice_window_follows_the_recorded_stream():
    z2 = Lattice(2)
    window = z2.box((0, 0), (5, 5))
    rng = RandomSource(1)
    spins, stats = WindowSampler(ising(1.2), z2, 1).sample_window(window, rng)
    assert "".join(str(spins.spin(w)) for w in window) == "2122122122112222122222211"
    assert (stats.total_calls, stats.max_depth, stats.indecision_events) == (127, 9, 33)
    assert rng.counter == 127


def test_calls_grow_linearly_with_the_window():
    # The paper's run time is linear in the window's size: ising(1.2) at
    # radius 3 on Z^2 (alpha 0.503) stays within 1.1 calls per vertex from
    # a 4x4 box to a 32x32 one, and no run goes deeper than 2.
    z2 = Lattice(2)
    got = []
    for side in (4, 8, 16, 32):
        window = z2.box((0, 0), (side, side))
        _, stats = WindowSampler(ising(1.2), z2, 3).sample_window(window, 1)
        assert stats.total_calls <= 1.1 * len(window)
        got.append((stats.total_calls, stats.max_depth))
    assert got == [(16, 1), (70, 2), (274, 2), (1091, 2)]


def test_bounded_needs_finite_graph():
    z2 = Lattice(2)
    for window in ([(0, 0)], z2.box((0, 0), (2, 2))):
        with pytest.raises(FiniteOnlyError):
            WindowSampler(hardcore(0.3), z2, 1).sample_window(window, 7, h=3)
    for h in (-1, 1.5):
        with pytest.raises(ModelParameterError, match="depth bound"):
            WindowSampler(hardcore(1.0), path_graph(3), 1).sample_window([2], 7, h=h)


def test_bounded_agrees_with_unbounded_on_shallow_runs():
    # one vertex, and a whole-graph window whose cap applies to each
    # vertex's run in turn
    h = 6
    for graph, window in ((path_graph(3), [2]), (cycle_graph(5), [1, 2, 3, 4, 5])):
        sampler = WindowSampler(hardcore(1.0), graph, 1)
        agreements = 0
        for seed in range(200):
            spins, stats = sampler.sample_window(window, seed)
            capped, capped_stats = sampler.sample_window(window, seed, h=h)
            if stats.max_depth <= h:
                assert capped == spins
                assert capped_stats == stats
                agreements += 1
        assert agreements >= 150


def test_window_validation():
    g = path_graph(3)
    sampler = WindowSampler(hardcore(1.0), g, 1)
    with pytest.raises(ConfigError):
        sampler.sample_window([1, 1], 7)
    with pytest.raises(ModelParameterError, match="already assigned"):
        sampler.sample_window([1, 2], 7, fixed={2: 1})
    with pytest.raises(InvalidVertexError):
        sampler.sample_window([1, 9], 7)
    # an unhashable vertex is named before the distinctness check hashes it
    with pytest.raises(InvalidVertexError, match=r"\[0, 0\]"):
        WindowSampler(hardcore(0.3), Lattice(2), 1).sample_window([[0, 0]], 1)
    for ell in (0, 1.5, True):
        with pytest.raises(ModelParameterError, match="radius"):
            WindowSampler(hardcore(1.0), g, ell)
    for budget in (0, 1.5, True):
        with pytest.raises(ModelParameterError, match="budget"):
            WindowSampler(hardcore(1.0), g, 1, budget=budget)


def test_conditioning_is_respected():
    # an occupied end pins its neighbor empty; the far end stays free
    sampler = WindowSampler(hardcore(1.0), path_graph(3), 1)
    for seed in range(25):
        spins, _ = sampler.sample_window([2], seed, {1: 2})
        assert spins.spin(2) == 1
    seen = set()
    for seed in range(40):
        spins, _ = sampler.sample_window([3], seed, {1: 2})
        seen.add(spins.spin(3))
    assert seen == {1, 2}


def test_sampled_colorings_are_proper():
    g = cycle_graph(5)
    sampler = WindowSampler(coloring(4), g, 2)
    for seed in range(50):
        spins, _ = sampler.sample_window(list(g.vertices()), seed)
        for v in g.vertices():
            for w in g.neighbors(v):
                assert spins.spin(v) != spins.spin(w)


def test_window_joint_distribution_is_uniform_over_independent_sets():
    # at activity 1 every independent set of the path has equal weight, so
    # the sampled joint law over all three vertices must be uniform on the
    # five independent sets
    g = path_graph(3)
    sampler = WindowSampler(hardcore(1.0), g, 1)
    counts = {}
    n = 20_000
    for seed in range(n):
        spins, _ = sampler.sample_window([1, 2, 3], seed)
        key = (spins.spin(1), spins.spin(2), spins.spin(3))
        counts[key] = counts.get(key, 0) + 1
    legal = {
        (1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2), (2, 1, 2),
    }
    assert set(counts) == legal
    observed = [counts[k] for k in sorted(legal)]
    _, pvalue = scipy.stats.chisquare(observed)
    assert pvalue > 1e-3


def test_conditional_occupation_frequency():
    # end vertex of the path with the far end occupied: the middle is
    # forced empty and the law of vertex 3 is a fair coin
    sampler = WindowSampler(hardcore(1.0), path_graph(3), 1)
    hits = 0
    n = 4000
    for seed in range(n):
        spins, _ = sampler.sample_window([3], seed, {1: 2})
        hits += spins.spin(3) == 2
    assert abs(hits / n - 0.5) < 4 * 0.5 / n**0.5


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_zone_split_maps_every_variate_to_a_live_spin(data):
    # p as min_marginals builds it: spin masses, and the leftover zone p^0,
    # exactly 0 for an exact marginal (no free sphere vertex); mu is a
    # resolved marginal with mu_i >= p^i, spreading the zone's mass over the
    # spins by drawn weights.
    q = data.draw(st.integers(2, 5))
    zone = data.draw(st.integers(0, 4))
    masses = data.draw(
        st.lists(st.integers(0, 4), min_size=q, max_size=q).filter(lambda m: zone or any(m))
    )
    total = sum(masses) + zone
    spin_p = [m / total for m in masses]
    p = [max(1.0 - sum(spin_p), 0.0) if zone else 0.0] + spin_p
    part = IntervalPartition(p)
    ys = [data.draw(st.floats(0.0, 1.0, exclude_max=True)) for _ in range(8)]
    ys += [0.0, part.zone_start, math.nextafter(1.0, 0.0)] + part.cum
    if not zone:
        for y in ys:
            if 0.0 <= y < 1.0:
                assert p[part.locate(y)] > 0.0
        return

    spread = data.draw(st.lists(st.integers(0, 3), min_size=q, max_size=q).filter(any))
    mu = [pi + p[0] * w / sum(spread) for pi, w in zip(spin_p, spread)]
    edges = part.split_zone(mu)
    assert all(a <= b for a, b in zip([part.zone_start] + edges, edges))
    assert edges[-1] == pytest.approx(1.0, abs=NEG_TOL)
    live = {j + 1 for j in range(q) if mu[j] - p[j + 1] > 0.0}
    for y in ys + edges:
        if not 0.0 <= y < 1.0:
            continue
        if y < part.zone_start:
            assert part.locate(y) != 0
        else:
            assert part.locate(y) == 0
            assert part.locate_zone(y, IntervalPartition([0.0, *mu])) in live


def unmemoized_locate_zone(part, y, mu):
    """``IntervalPartition.locate_zone`` as it was before the split was
    memoized: the zone is split under ``mu`` on every call."""
    edges = part.split_zone(mu)
    idx = bisect_right(edges, y)
    if idx >= part.q:
        for j in range(part.q - 1, -1, -1):
            if mu[j] - part.p[j + 1] > 0.0:
                return j + 1
        raise AssertionError("indecision zone has no positive subinterval")
    return idx + 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_memoized_zone_split_equals_the_unmemoized_split(data):
    # One min partition resolved under several conditionals, in a drawn
    # interleaved order and twice over: a split kept for one conditional
    # must never answer for another.
    q = data.draw(st.integers(2, 5))
    zone = data.draw(st.integers(1, 4))
    masses = data.draw(st.lists(st.integers(0, 4), min_size=q, max_size=q))
    total = sum(masses) + zone
    spin_p = [m / total for m in masses]
    part = IntervalPartition([max(1.0 - sum(spin_p), 0.0)] + spin_p)
    spreads = data.draw(
        st.lists(
            st.lists(st.integers(0, 3), min_size=q, max_size=q).filter(any),
            min_size=2, max_size=4, unique_by=tuple,
        )
    )
    conds = []
    for spread in spreads:
        mu = [pi + part.p[0] * w / sum(spread) for pi, w in zip(spin_p, spread)]
        conds.append(IntervalPartition([0.0, *mu]))
    calls = []
    for cond in conds:
        edges = part.split_zone(cond.p[1:])
        # Interior points, every edge, and y at or past the last edge.
        ys = [part.zone_start, math.nextafter(edges[-1], 2.0), 1.0] + edges
        ys += [data.draw(st.floats(part.zone_start, 1.0)) for _ in range(4)]
        calls += [(cond, y) for y in ys]
    order = data.draw(st.permutations(range(len(calls))))
    for _ in range(2):
        for i in order:
            cond, y = calls[i]
            assert part.locate_zone(y, cond) == unmemoized_locate_zone(part, y, cond.p[1:])
