"""Conditional and worst-case ball marginals.

A conditional marginal enumerates all free assignments of a separating
support.  The worst-case ("minimum") marginals of a vertex v at radius ell
are

    p_v^i = min over feasible tau on sphere(v, ell) \\ Lambda of
            P[ sigma_v = i | context, tau ],

and the leftover mass p_v^0 = 1 - sum_i p_v^i is the zone of indecision
that drives the sampler's recursion.

In general the minimum ranges over every feasible boundary tau, enumerated
together with the ball's interior.  A monotone two-spin system (see
``Support.monotone``) needs only the two extremal boundaries: "every free
sphere vertex spin 1" and "every free sphere vertex spin 2", except that
where A has a zero diagonal entry A_ss, a free sphere vertex next to a fixed
vertex of spin s takes the other spin.  The least and greatest feasible
boundaries are among these two (on a repulsive system, in the order that
flips the spins of one side of the bipartite ball; the sphere lies on one
side), and P[sigma_v = 2 | tau] is monotone in tau over the feasible
boundaries (Holley's inequality; Propp and Wilson's extremal states), so
each spin's minimum and the widest gap between two boundaries both sit at
the extremes.  The free interior is enumerated once, with the fixed
vertices.  The two extremes differ only in their boundary factors: the
fields of the pinned sphere spins and their interactions with the interior
and with each other.  Each extreme appends its own to the interior's
factors and both products are taken together, so a miss enumerates the
free interior rather than sphere and interior together.

With no free sphere vertex the one boundary is the context itself, so the
min marginals are v's exact conditional with p_v^0 = 0, the package's one
exact conditional: the sampler's sphere conditional, and, with an empty
sphere and the whole support as interior, ``conditional_marginal`` and the
depth-capped oracle.  Each reports an infeasible context as
``InfeasibleBoundaryError`` (``_no_extension``).

A miss is one pass (``_ball_rows``).  It takes the context already
restricted to the ball and in ball order: the cache reads it that way off
the frame's labels, and ``_ball_query`` orders a public query's context
once.  It splits the ball into free sphere, free interior and fixed spins
and hands them to one enumeration (``bruteforce.weight_rows``), which walks
the edges once and, on the extremal path, builds both extremes' factors in
the same loop and gathers both products at once.  The walk visits
``[v] + free interior + fixed`` on the extremal path and ``free sphere +
free interior + fixed`` otherwise.  ``min_marginals``,
``mixing_rate_estimate``, ``conditional_marginal``, the cache's min and
sphere lookups, the depth-capped oracle and the sampler's p_v^1 bound all
run this pass.
"""

import numpy as np

from .bruteforce import Support, weight_rows
from .errors import (
    InfeasibleBoundaryError,
    InfeasibleContextError,
    InternalError,
    ModelParameterError,
    NotSeparatingError,
    check_count,
)
from .spinsys import _distinct, checked_context

# Probabilities this far below zero are treated as roundoff; anything worse
# indicates a real defect and is escalated.
NEG_TOL = 1e-9
# A min miss with fewer than FLOAT_TAIL_Q spins and at most FLOAT_TAIL_ROWS
# boundary rows finishes in Python floats; numpy sums fewer than 8 terms left
# to right, and past 4 rows its per-call overhead is cheaper than a loop.
FLOAT_TAIL_Q = 8
FLOAT_TAIL_ROWS = 4


def conditional_marginal(system, graph, v, fixed, support):
    """Distribution of the spin at ``v`` given ``fixed``, by enumeration.

    ``support`` must contain v, every fixed vertex, and enough free vertices
    that no free vertex has a neighbor outside the support: conditioning on
    the full boundary of the free region screens off the rest of the graph.

    Returns a length-q vector; entry i-1 is the probability of spin i.
    """
    spins = checked_context(system, graph, fixed)
    support = list(support)
    support_set = _distinct(support)
    graph.check_vertex(v)
    if v not in support_set:
        raise NotSeparatingError(f"target vertex {graph.format_vertex(v)} not in support")
    if v in spins:
        raise ModelParameterError(f"target vertex {graph.format_vertex(v)} is already fixed")
    if not set(spins) <= support_set:
        raise NotSeparatingError("fixed vertices must lie inside the support")
    for u in support:
        graph.check_vertex(u)
        if u in spins:
            continue
        for w in graph._neighbors(u):
            if w not in support_set:
                raise NotSeparatingError(
                    f"free vertex {graph.format_vertex(u)} has neighbor "
                    f"{graph.format_vertex(w)} outside the support"
                )
    # The miss of a ball with an empty sphere and the support as its
    # interior: the context is its one boundary, and p_v^0 = 0.
    fixed = {w: spins[w] for w in support if w in spins}
    try:
        p = _ball_min_marginals(Support(system, graph, support), v, (), support, fixed)
    except InfeasibleContextError:
        raise _no_extension() from None
    return np.array(p[1:])


def _no_extension():
    """The error an exact conditional (no free sphere vertex) raises in
    place of its miss's ``InfeasibleContextError``: the one boundary left,
    the context itself, has no positive-weight extension."""
    return InfeasibleBoundaryError("fixed context admits no positive-weight extension")


def _ball_query(system, graph, fixed, v, ell):
    """Validate a public radius-ell query at v and return the arguments of
    its miss (``_ball_rows``): ``(ball, v, sphere, interior, fixed)``, with
    ``ball`` the ``Support`` compiled on v's sphere and interior and
    ``fixed`` the context restricted to the ball, in ball order."""
    spins = checked_context(system, graph, fixed)
    check_count(ell, 1, "radius")
    graph.check_vertex(v)
    if v in spins:
        raise ModelParameterError(f"target vertex {graph.format_vertex(v)} is already fixed")
    sphere, interior = graph.sphere_and_interior(v, ell)
    fixed = {w: spins[w] for w in sorted(sphere + interior) if w in spins}
    return Support(system, graph, sphere + interior), v, sphere, interior, fixed


def _ball_rows(ball, v, sphere, interior, fixed):
    """Unnormalized marginals of v, one row per boundary scanned, and the
    number of free sphere vertices: one miss on the ball.

    ``ball`` is the compiled ``Support`` on sphere and interior and
    ``fixed`` the context restricted to the ball, in ball order, leaving v
    free.  A monotone ball with a free sphere vertex scans its two extremal
    boundaries: it enumerates v and the free interior once, walking
    ``[v] + free interior + fixed``, and each extreme adds its boundary
    factors (``weight_rows``).  Any other ball scans every free sphere
    assignment, lexicographically (canonical vertex order, spins
    ascending), in one enumeration walking ``free sphere + free interior +
    fixed``.  A row of zero total weight is an infeasible boundary.
    """
    q = ball.system.q
    sphere_free = [w for w in sphere if w not in fixed]
    s = len(sphere_free)
    if s and ball.monotone:
        # v first among the free vertices, so its axis leads.
        free = [v] + [w for w in interior if w != v and w not in fixed]
        W = weight_rows(ball, free, free + list(fixed), fixed, sphere_free)
        return W.reshape(2, q, -1).sum(axis=2), s
    free = sphere_free + [w for w in interior if w not in fixed]
    W = weight_rows(ball, free, free + list(fixed), fixed).reshape((q,) * len(free))
    jv = free.index(v)
    drop = tuple(j for j in range(s, len(free)) if j != jv)
    M = W.sum(axis=drop) if drop else W
    return M.reshape(q**s, q), s


def _feasible_rows(M):
    """The rows of M with positive total, each divided by its total."""
    totals = M.sum(axis=1)
    feasible = totals > 0.0
    if not feasible.any():
        raise InfeasibleContextError(
            "context admits no feasible boundary assignment on the sphere"
        )
    return M[feasible] / totals[feasible, None]


def min_marginals(system, graph, fixed, v, ell):
    """Worst-case spin probabilities of ``v`` over all feasible sphere boundaries.

    Returns a vector of length q+1: entry i (1-based) is p_v^i and entry 0 is
    the zone of indecision p_v^0 = 1 - sum_i p_v^i.  With an empty free
    sphere the conditional marginal is exact and p_v^0 is identically 0.

    A monotone two-spin system on the ball (attractive, or repulsive on a
    bipartite ball; see ``Support.monotone``) reads only the two extremal
    boundaries, where each spin's minimum is attained (module docstring),
    so on Z^2 radius 3 takes one 2^13-cell enumeration of the interior
    rather than one over 2^25 cells.  Every other system enumerates every
    boundary together with the interior.  Either path raises
    ``TooLargeError`` past ``ENUM_CAP``.
    """
    return np.array(_ball_min_marginals(*_ball_query(system, graph, fixed, v, ell)))


def _ball_min_marginals(ball, v, sphere, interior, fixed):
    """``min_marginals`` as a list of Python floats from one miss on the
    ball (``_ball_rows``, which takes the same arguments).

    With fewer than FLOAT_TAIL_Q spins and at most FLOAT_TAIL_ROWS boundary
    rows, as on every extremal miss, the rows are normalized and the minima
    and the zone taken in Python floats.  numpy sums fewer than 8 terms
    left to right, as the loops here do, so the floats are the bits of
    numpy's tail, without its per-call overhead.  Otherwise numpy takes the
    tail: from 8 spins on its sums are pairwise, and over many rows it is
    the faster.  With no free sphere vertex the one row is v's exact
    conditional, and a sum more than NEG_TOL from 1 raises ``InternalError``.
    """
    M, s = _ball_rows(ball, v, sphere, interior, fixed)
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
        # The weights are nonnegative, so no entry undershoots; drift in the
        # sum beyond tolerance would mean the arithmetic itself is broken.
        drift = abs(total - 1.0)
        if drift > NEG_TOL:
            raise InternalError(f"marginal normalization drifted by {drift}")
        return [0.0, *p]
    rest = 1.0 - total
    if rest < -NEG_TOL:
        raise InternalError(f"zone of indecision computed as {rest}")
    return [max(rest, 0.0), *p]


def mixing_rate_estimate(system, graph, v, ell, fixed=None):
    """Largest TV distance between v's marginals under any two feasible boundaries.

    This is the empirical decay-of-correlation rate at radius ell for the
    probe context; a single feasible boundary gives a rate of 0.  On a
    monotone system the widest gap lies between the two extremal boundaries,
    so only those are scanned, as in ``min_marginals``.
    """
    mu = _feasible_rows(_ball_rows(*_ball_query(system, graph, fixed, v, ell))[0])
    if mu.shape[0] == 1:
        return 0.0
    # TV(a, b) is the largest gap in probability a and b give a common spin
    # subset, so the pairwise maximum is the widest per-subset range; that
    # scan is linear in the number of boundaries instead of quadratic.
    worst = 0.0
    q = system.q
    for mask in range(1, (1 << q) - 1):
        members = [i for i in range(q) if mask >> i & 1]
        sums = mu[:, members].sum(axis=1)
        worst = max(worst, float(sums.max() - sums.min()))
    return worst


def default_probes(graph):
    """Probe vertices for empirical rate estimation.

    Finite graphs probe every vertex; the lattice, tree, and
    line-graph-of-lattice realizations are vertex transitive (or probed at a
    canonical vertex), so a single origin probe suffices.
    """
    if graph.is_finite():
        return graph.vertices()
    kind = graph.kind
    if kind == "lattice":
        return ((0,) * graph.dim,)
    if kind == "tree":
        return ((),)
    if kind == "line":
        base_probe = default_probes(graph.base)[0]
        first = graph.base.neighbors(base_probe)[0]
        e = (base_probe, first) if base_probe < first else (first, base_probe)
        return (e,)
    raise ModelParameterError(f"no default probes for graph kind {kind!r}")


def estimate_mixing_rate(system, graph, ells, probes=None):
    """Empirical decay rates ``{ell: f}`` in ascending ell: the worst
    probe-vertex rate at each radius, with no context."""
    ells = sorted({check_count(ell, 1, "radius") for ell in ells})
    if not ells:
        raise ModelParameterError("need at least one radius")
    probes = default_probes(graph) if probes is None else tuple(probes)
    if not probes:
        raise ModelParameterError("empty probe list")
    return {
        ell: max(mixing_rate_estimate(system, graph, v, ell) for v in probes)
        for ell in ells
    }
