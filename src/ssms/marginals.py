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
min marginals are v's exact conditional with p_v^0 = 0.  The fixed
vertices are then taken in ball order, as ``conditional_marginal`` takes
them on the sorted ball, so the two enumerations multiply the same factors
in the same order and agree bit for bit.  The sampler's cache relies on
this: its sphere conditional is the min-marginal entry of the same context.
"""

import numpy as np

from .bruteforce import Support, weight_factors, weight_tensor
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


def _normalized(weights):
    total = weights.sum()
    if total <= 0.0:
        return None
    mu = weights / total
    # Weights are nonnegative so entries cannot undershoot; renormalization
    # drift beyond tolerance would mean the arithmetic itself is broken.
    drift = abs(float(mu.sum()) - 1.0)
    if drift > NEG_TOL:
        raise InternalError(f"marginal normalization drifted by {drift}")
    return mu


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
    return _conditional_on_support(Support(system, graph, support), support, v, spins)


def _conditional_on_support(compiled, support, v, spins):
    """``conditional_marginal`` once its arguments are checked: v's
    marginal by enumeration of the compiled support, whose vertices
    ``support`` lists in the order the enumeration takes them."""
    free, W = weight_tensor(compiled, support, spins)
    jv = free.index(v)
    axes = tuple(j for j in range(len(free)) if j != jv)
    totals = W.sum(axis=axes) if axes else W
    mu = _normalized(totals)
    if mu is None:
        raise InfeasibleBoundaryError("fixed context admits no positive-weight extension")
    return mu


def _ball_query(system, graph, fixed, v, ell):
    """Validate a public radius-ell query at v and return the arguments of
    its boundary scan: ``(ball, v, sphere, interior, spins)``, with ``ball``
    the ``Support`` compiled on v's sphere and interior."""
    spins = checked_context(system, graph, fixed)
    check_count(ell, 1, "radius")
    graph.check_vertex(v)
    if v in spins:
        raise ModelParameterError(f"target vertex {graph.format_vertex(v)} is already fixed")
    sphere, interior = graph.sphere_and_interior(v, ell)
    return Support(system, graph, sphere + interior), v, sphere, interior, spins


def _extremal_boundaries(ball, sphere_free, fixed):
    """The two extremal assignments of the free sphere vertices of a monotone
    ``ball``: all spin 1 and all spin 2, except that spin s with A_ss = 0
    yields to the other spin next to a fixed vertex of spin s."""
    A = ball._A
    adjacent = ball.adjacent
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
    """Unnormalized marginal of v under each extremal boundary, as the two
    rows of a (2, q) array.

    The weight on the ball minus the free sphere vertices is one list of
    factors.  Each extreme then appends only its boundary factors: A's row
    on each free interior neighbour of a pinned sphere spin (skipped when
    all ones), and a scalar for the field of each pinned sphere spin and
    for each fixed or pinned sphere neighbour.  Both products are taken at
    once (``Factors.products``).  The scalar continues the enumeration's
    own, so where A holds only 0s and 1s the rows equal a whole-ball
    enumeration per extreme bit for bit.
    """
    q = ball.system.q
    # v first among the free vertices, so its axis leads.
    inner = [v] + [w for w in interior_free if w != v] + list(fixed)
    free, factors, inner_scalar = weight_factors(ball, inner, fixed)
    pos = {w: j for j, w in enumerate(free)}
    _, _, rows, _ = ball.factors.axes(len(free))
    b = ball._b
    A = ball._A
    adjacent = ball.adjacent
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
                    # Both ends are free sphere vertices: one factor per edge.
                    scalar *= A[x - 1][tau[u] - 1]
        tails.append(tail)
        scalars.append([scalar])
    W = ball.factors.products(len(free), factors, tails)
    # x * 1.0 == x, so an extreme with no scalar loses no bit here.
    W *= scalars
    return W.reshape(2, q, -1).sum(axis=2)


def _boundary_rows(ball, v, sphere, interior, spins):
    """Unnormalized marginals of v, one row per boundary scanned, and the
    number of free sphere vertices.

    ``ball`` is the compiled ``Support`` on sphere and interior.  A monotone
    ball with a free sphere vertex scans its two extremal boundaries; any
    other scans every free sphere assignment, lexicographically (canonical
    vertex order, spins ascending).  A row of zero total weight is an
    infeasible boundary.
    """
    q = ball.system.q
    sphere_free = [w for w in sphere if w not in spins]
    interior_free = [w for w in interior if w not in spins]
    fixed = {w: spins[w] for w in sorted([*sphere, *interior]) if w in spins}
    s = len(sphere_free)
    if s and ball.monotone:
        return _extremal_rows(ball, v, interior_free, fixed, sphere_free), s
    support = sphere_free + interior_free + list(fixed)
    free, W = weight_tensor(ball, support, fixed)
    jv = free.index(v)
    keep = tuple(range(s)) + (jv,)
    drop = tuple(j for j in range(len(free)) if j not in keep)
    M = W.sum(axis=drop) if drop else W
    return M.reshape(q**s, q), s


def _sphere_grouped_marginals(ball, v, sphere, interior, spins):
    """Matrix of conditional marginals of v, one row per feasible boundary
    scanned (``_boundary_rows``), and the number of free sphere vertices."""
    M, s = _boundary_rows(ball, v, sphere, interior, spins)
    return _feasible_rows(M), s


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
    return np.array(_min_marginals_on_ball(*_ball_query(system, graph, fixed, v, ell)))


def _min_marginals_on_ball(ball, v, sphere, interior, spins):
    """``min_marginals`` as a list of Python floats, for a caller that
    already holds v's sphere and ball interior, the ``Support`` compiled on
    them, and a validated context ``spins`` that leaves v free.

    With fewer than FLOAT_TAIL_Q spins and at most FLOAT_TAIL_ROWS boundary
    rows, as on every extremal miss, the rows are normalized and the minima
    and the zone taken in Python floats.  numpy sums fewer than 8 terms
    left to right, as the loops here do, so the floats are the bits of
    numpy's tail, without its per-call overhead.  Otherwise numpy takes the
    tail: from 8 spins on its sums are pairwise, and over many rows it is
    the faster.
    """
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


def mixing_rate_estimate(system, graph, v, ell, fixed=None):
    """Largest TV distance between v's marginals under any two feasible boundaries.

    This is the empirical decay-of-correlation rate at radius ell for the
    probe context; a single feasible boundary gives a rate of 0.  On a
    monotone system the widest gap lies between the two extremal boundaries,
    so only those are scanned, as in ``min_marginals``.
    """
    mu, _ = _sphere_grouped_marginals(*_ball_query(system, graph, fixed, v, ell))
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
