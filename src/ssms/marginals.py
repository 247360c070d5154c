"""Conditional and worst-case ball marginals.

Everything here is exhaustive: a conditional marginal enumerates all free
assignments of a separating support, and the worst-case ("minimum") marginals
additionally range over every feasible boundary assignment of a sphere.  The
minimum marginals of a vertex v at radius ell are

    p_v^i = min over feasible tau on sphere(v, ell) \\ Lambda of
            P[ sigma_v = i | context, tau ],

and the leftover mass p_v^0 = 1 - sum_i p_v^i is the zone of indecision that
drives the sampler's recursion.
"""

import csv
import io

import numpy as np

from .bruteforce import Support, weight_tensor
from .errors import (
    DimensionMismatchError,
    InfeasibleBoundaryError,
    InfeasibleContextError,
    InternalError,
    MissingRateError,
    ModelParameterError,
    NotSeparatingError,
)
from .spinsys import as_spin_dict, _check_spins

# Probabilities this far below zero are treated as roundoff; anything worse
# indicates a real defect and is escalated.
NEG_TOL = 1e-9


def tv_distance(a, b):
    """Total variation distance between two distributions on the same q spins."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionMismatchError(
            f"distributions must share one dimension, got {a.shape} vs {b.shape}"
        )
    return 0.5 * float(np.abs(a - b).sum())


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
    spins = as_spin_dict(fixed)
    _check_spins(system, spins)
    support = list(support)
    support_set = set(support)
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
        for w in graph.neighbors(u):
            if w not in support_set:
                raise NotSeparatingError(
                    f"free vertex {graph.format_vertex(u)} has neighbor "
                    f"{graph.format_vertex(w)} outside the support"
                )
    free, W = weight_tensor(Support(system, graph, support), support, spins)
    jv = free.index(v)
    axes = tuple(j for j in range(len(free)) if j != jv)
    totals = W.sum(axis=axes) if axes else W
    mu = _normalized(totals)
    if mu is None:
        raise InfeasibleBoundaryError("fixed context admits no positive-weight extension")
    return mu


def _ball_parts(graph, v, ell, spins):
    """Support pieces for a radius-ell ball computation around v."""
    if ell < 1:
        raise ModelParameterError(f"radius must be >= 1, got {ell}")
    graph.check_vertex(v)
    if v in spins:
        raise ModelParameterError(f"target vertex {graph.format_vertex(v)} is already fixed")
    return graph.sphere_and_interior(v, ell)


def _sphere_grouped_marginals(ball, v, sphere, interior, spins):
    """Matrix of conditional marginals of v, one row per free sphere assignment.

    ``ball`` is the compiled ``Support`` on sphere and interior.  Free sphere
    vertices are enumerated lexicographically (canonical vertex order, spins
    ascending); rows with zero total weight are infeasible and returned
    masked out.
    """
    q = ball.system.q
    sphere_free = [w for w in sphere if w not in spins]
    interior_free = [w for w in interior if w not in spins]
    fixed = {w: spins[w] for w in list(sphere) + list(interior) if w in spins}
    support = sphere_free + interior_free + list(fixed)
    free, W = weight_tensor(ball, support, fixed)
    s = len(sphere_free)
    jv = free.index(v)
    keep = tuple(range(s)) + (jv,)
    drop = tuple(j for j in range(len(free)) if j not in keep)
    M = W.sum(axis=drop) if drop else W
    M = M.reshape(q**s, q)
    totals = M.sum(axis=1)
    feasible = totals > 0.0
    if not feasible.any():
        raise InfeasibleContextError(
            "context admits no feasible boundary assignment on the sphere"
        )
    mu = M[feasible] / totals[feasible, None]
    return mu, s


def min_marginals(system, graph, fixed, v, ell):
    """Worst-case spin probabilities of ``v`` over all feasible sphere boundaries.

    Returns a vector of length q+1: entry i (1-based) is p_v^i and entry 0 is
    the zone of indecision p_v^0 = 1 - sum_i p_v^i.  With an empty free
    sphere the conditional marginal is exact and p_v^0 is identically 0.
    """
    spins = as_spin_dict(fixed)
    _check_spins(system, spins)
    sphere, interior = _ball_parts(graph, v, ell, spins)
    ball = Support(system, graph, sphere + interior)
    return _min_marginals_on_ball(ball, v, sphere, interior, spins)


def _min_marginals_on_ball(ball, v, sphere, interior, spins):
    """``min_marginals`` for a caller that already holds v's sphere and ball
    interior, the ``Support`` compiled on them, and a validated context
    ``spins`` that leaves v free."""
    mu, s = _sphere_grouped_marginals(ball, v, sphere, interior, spins)
    p = mu.min(axis=0)
    out = np.empty(ball.system.q + 1)
    out[1:] = p
    if s == 0:
        out[0] = 0.0
    else:
        rest = 1.0 - float(p.sum())
        if rest < -NEG_TOL:
            raise InternalError(f"zone of indecision computed as {rest}")
        out[0] = max(rest, 0.0)
    return out


def mixing_rate_estimate(system, graph, v, ell, fixed=None):
    """Largest TV distance between v's marginals under any two feasible boundaries.

    This is the empirical decay-of-correlation rate at radius ell for the
    probe context; one or zero free sphere vertices give a rate of 0.
    """
    spins = as_spin_dict(fixed)
    _check_spins(system, spins)
    sphere, interior = _ball_parts(graph, v, ell, spins)
    ball = Support(system, graph, sphere + interior)
    mu, _ = _sphere_grouped_marginals(ball, v, sphere, interior, spins)
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


class MixingRate:
    """Table of decay rates f(ell) with a provenance tag.

    Provenance is ``empirical`` when produced by probing marginals here, or
    ``user-supplied`` when imported from outside.
    """

    def __init__(self, values, provenance):
        if provenance not in ("empirical", "user-supplied"):
            raise ModelParameterError(f"unknown provenance {provenance!r}")
        vals = {}
        for ell, f in dict(values).items():
            ell = int(ell)
            f = float(f)
            if ell < 1 or f < 0:
                raise ModelParameterError(f"bad mixing-rate row ({ell}, {f})")
            vals[ell] = f
        self.values = dict(sorted(vals.items()))
        self.provenance = provenance

    def __getitem__(self, ell):
        try:
            return self.values[ell]
        except KeyError:
            raise MissingRateError(f"no mixing rate recorded for radius {ell}") from None

    def __contains__(self, ell):
        return ell in self.values

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["ell", "f"])
        for ell, f in self.values.items():
            writer.writerow([ell, repr(f)])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text, provenance="user-supplied"):
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["ell", "f"]:
            raise ModelParameterError("mixing-rate CSV must start with header 'ell,f'")
        values = {}
        for row in rows[1:]:
            if not row:
                continue
            if len(row) != 2:
                raise ModelParameterError(f"bad mixing-rate CSV row {row!r}")
            values[int(row[0])] = float(row[1])
        return cls(values, provenance)


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


def estimate_mixing_rate(system, graph, ells, probes=None, fixed=None):
    """Empirical MixingRate table: worst probe-vertex rate at each radius."""
    ells = sorted(set(int(e) for e in ells))
    if not ells or ells[0] < 1:
        raise ModelParameterError(f"need radii >= 1, got {ells}")
    if probes is None:
        probes = default_probes(graph)
    values = {}
    for ell in ells:
        values[ell] = max(
            mixing_rate_estimate(system, graph, v, ell, fixed) for v in probes
        )
    return MixingRate(values, "empirical")
