"""The depth-capped sampler's exact output law, computed, not sampled.

One call at v under the context lam, with min partition p, returns spin i
with probability

    p^i + sum over tau of Q(tau | lam) * (mu_i(lam, tau) - p^i),

where tau runs over the assignments of v's free sphere, Q is their law as
the child calls draw them in order, each under the spins drawn before it,
and mu is v's conditional once its sphere takes tau.  A variate below the
class bound on p^1 gives spin 1 with no lookup, which leaves the law as
it is.  With the depth cap h a call entered at depth h + 1 reads the
whole-graph oracle, so the recursion is finite.  ``CappedLaw`` evaluates
it with the cache's own numbers (``min_intervals``, ``sphere_conditional``,
``whole_graph_marginal`` and the zone's subintervals from
``IntervalPartition.split_zone``), memoized on (v, context, depth).

By induction on depth the law is the Gibbs conditional.  The check holds
it to ``conditional_marginal`` on the whole graph at 1e-12, for every
window vertex under every reachable prefix of the window, on each
terminating cell of the acceptance matrix; a chi-square test at 100k
samples resolves errors of about 1e-2.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cache_keys import THREE_SPIN, _feasible_assignment, ball_parts, lookup

from ssms import coloring, conditional_marginal, grid_graph, hardcore, ising
from ssms.sampler import IntervalPartition, MarginalCache
from ssms.verify import NONTERMINATING_CELLS, acceptance_matrix

CELLS = [cell for cell in acceptance_matrix() if cell.label not in NONTERMINATING_CELLS]


class CappedLaw:
    """Exact law of a capped sampler's call, from the cache's numbers."""

    def __init__(self, cache, h):
        self.cache = cache
        self.oracle_depth = h + 1
        self.memo = {}

    def __call__(self, v, lam, depth):
        """Probability of each spin (a list of q) for a call at ``v``
        entered at ``depth`` under the context ``lam``."""
        key = (v, frozenset(lam.items()), depth)
        law = self.memo.get(key)
        if law is None:
            law = self.memo[key] = self._law(v, lam, depth)
        return law

    def _law(self, v, lam, depth):
        cache = self.cache
        if depth == self.oracle_depth:
            return list(lookup(cache, "whole_graph_marginal", v, lam).p[1:])
        part = lookup(cache, "min_intervals", v, lam)
        law = list(part.p[1:])
        if part.p[0] == 0.0:
            return law
        sphere = ball_parts(cache, v)[0]
        free = [w for w in sphere if w not in lam]
        for tau, weight in self._boundaries(free, lam, depth + 1):
            cond = lookup(cache, "sphere_conditional", v, {**lam, **tau})
            start = part.zone_start
            for i, edge in enumerate(part.split_zone(cond.p[1:])):
                law[i] += weight * (edge - start)
                start = edge
        return law

    def _boundaries(self, free, lam, depth):
        """(tau, Q(tau | lam)) for each assignment of ``free`` of positive
        probability, the child calls entered at ``depth`` in order."""
        if not free:
            yield {}, 1.0
            return
        w, rest = free[0], free[1:]
        for spin, p in enumerate(self(w, lam, depth), 1):
            if p > 0.0:
                for tau, weight in self._boundaries(rest, {**lam, w: spin}, depth):
                    yield {w: spin, **tau}, p * weight


def worst_window_error(cell, h):
    """Largest gap between the capped law and ``conditional_marginal`` over
    every window vertex and reachable prefix, and the number of pairs."""
    graph = cell.graph
    vertices = list(graph.vertices())
    law = CappedLaw(MarginalCache(cell.system, graph, cell.ell), h)
    worst = 0.0
    checked = 0
    prefixes = [{}]
    for v in vertices:
        grown = []
        for lam in prefixes:
            exact = conditional_marginal(cell.system, graph, v, lam, vertices)
            got = law(v, lam, 1)
            worst = max(worst, max(abs(a - b) for a, b in zip(got, exact)))
            checked += 1
            grown += [{**lam, v: i} for i, m in enumerate(exact, 1) if m > 0.0]
        prefixes = grown
    return worst, checked


@pytest.mark.parametrize("h", [0, 1, 2, 3])
@pytest.mark.parametrize("cell", CELLS, ids=[cell.label for cell in CELLS])
def test_capped_law_is_the_gibbs_conditional(cell, h):
    worst, checked = worst_window_error(cell, h)
    assert checked >= len(cell.graph.vertices())
    assert worst <= 1e-12


def test_the_gate_sees_a_moved_zone_edge(monkeypatch):
    # One zone edge moved by 1e-6 is far below what chi-square resolves at
    # 100k samples; the exact law shows it.
    split_zone = IntervalPartition.split_zone

    def moved(self, mu):
        edges = split_zone(self, mu)
        return [edges[0] + 1e-6, *edges[1:]]

    monkeypatch.setattr(IntervalPartition, "split_zone", moved)
    cell = next(c for c in CELLS if c.label == "hardcore(lambda=1)|grid3|ell=1")
    worst, _ = worst_window_error(cell, 1)
    assert worst > 1e-7


# The finite case of tests/test_cache_keys.py, under drawn fixed contexts.
GRID = grid_graph(4, 4)
GRID_SYSTEMS = (hardcore(1.0), ising(1.5), coloring(5), THREE_SPIN)


@pytest.mark.parametrize("ell", [1, 2])
@pytest.mark.parametrize("system", GRID_SYSTEMS, ids=[system.label for system in GRID_SYSTEMS])
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_capped_law_holds_under_drawn_contexts(system, ell, data):
    # A feasible context fixes all but at most 8 vertices of the grid, and
    # a window of two free vertices is sampled under it.
    h = data.draw(st.integers(0, 2))
    vertices = list(GRID.vertices())
    full = _feasible_assignment(data, system, GRID, vertices)
    free = data.draw(st.lists(st.sampled_from(vertices), min_size=2, max_size=8, unique=True))
    law = CappedLaw(MarginalCache(system, GRID, ell), h)
    prefixes = [{w: s for w, s in full.items() if w not in free}]
    for v in free[:2]:
        grown = []
        for lam in prefixes:
            exact = conditional_marginal(system, GRID, v, lam, vertices)
            got = law(v, lam, 1)
            assert max(abs(a - b) for a, b in zip(got, exact)) <= 1e-12
            grown += [{**lam, v: i} for i, m in enumerate(exact, 1) if m > 0.0]
        prefixes = grown
