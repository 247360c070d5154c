"""Recursive perfect sampler driven by worst-case ball marginals.

One spin is drawn per call from a single uniform variate y.  The unit
interval is split into spin intervals I_1..I_q of lengths p_v^1..p_v^q (the
worst-case marginals at radius ell) and a trailing zone of indecision
I_0 = [1 - p_v^0, 1].  If y lands in a spin interval the spin is assigned
outright; otherwise the sphere vertices are sampled recursively in canonical
order, the now-fully-conditioned marginal mu is computed, and I_0 is
subdivided into J_1..J_q with lengths mu_i - p_v^i to resolve v.  Sphere
spins sampled along the way are discarded: a call's only lasting effect is
the spin of its own vertex.

The recursion is run on an explicit work stack, so deep excursions do not
hit the interpreter's call-depth limit.  Only undecided calls wait on the
stack: a call whose variate lands in a spin interval hands its spin straight
to the call waiting on it.  A guard aborts any top-level call whose
recursion exceeds the call budget, since the recursion is not guaranteed to
terminate when the zone of indecision is too wide.
"""

import json
import os
import time
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, field

from .bruteforce import Support
from .errors import (
    BudgetExhaustedError,
    ConfigError,
    FiniteOnlyError,
    InfeasibleBoundaryError,
    InfeasibleContextError,
    InternalError,
    InvalidProbabilitiesError,
    ModelParameterError,
    NotSeparatingError,
)
from .graph import FiniteGraph
from .marginals import NEG_TOL, _min_marginals_on_ball, conditional_marginal
from .spinsys import PartialConfiguration, as_spin_dict, _check_spins

DEFAULT_BUDGET = 10**7
BUDGET_ENV_VAR = "SSMS_BUDGET"


def budget_from_env(default=DEFAULT_BUDGET):
    """Call budget per top-level vertex, overridable via SSMS_BUDGET."""
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ConfigError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


class RandomSource:
    """splitmix64 stream mapped to [0, 1) doubles.

    The state advances by the golden-gamma increment and is finalized by the
    standard two-round xor-multiply mix; the top 53 bits of each output word
    are divided by 2^53, giving the usual uniform double grid.  The counter
    records how many doubles have been consumed.
    """

    _MASK = (1 << 64) - 1

    def __init__(self, seed):
        self.seed = int(seed) & self._MASK
        self._state = self.seed
        self.counter = 0

    def next_uint64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def next_double(self):
        self.counter += 1
        return (self.next_uint64() >> 11) * (2.0**-53)


class IntervalPartition:
    """Left-packed half-open spin intervals plus the closed indecision zone.

    I_i = [c_{i-1}, c_i) with c_i the running sum of p^1..p^i, and
    I_0 = [c_q, 1].  ``locate`` maps a variate to its spin, or to 0 for the
    zone of indecision.  With p^0 = 0 (an exact marginal) there is no zone:
    the running sum can end an ulp short of 1, so the edges from the last
    spin of positive mass on are set to 1 and that spin owns the remainder.

    A partition is immutable, so the zone's split under a resolved
    conditional partition is computed once per conditional: ``locate_zone``
    keeps the edges of each conditional it has been given, keyed by that
    conditional, in a table made on the first zone resolution.
    """

    __slots__ = ("p", "cum", "q", "_splits")

    def __init__(self, p):
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
        self.p = tuple(p)
        self.cum = cum
        self.q = len(cum)
        self._splits = None

    @property
    def zone_start(self):
        return self.cum[-1]

    def locate(self, y):
        """Spin index owning y, or 0 when y falls in the indecision zone."""
        if not 0.0 <= y < 1.0:
            raise InvalidProbabilitiesError(f"variate must lie in [0,1), got {y}")
        idx = bisect_right(self.cum, y)
        if idx >= self.q:
            return 0
        return idx + 1

    def split_zone(self, mu):
        """Subinterval edges J_1..J_q of the indecision zone given the resolved
        marginal ``mu``; lengths are mu_i - p^i, clamped at roundoff scale."""
        rho = [float(m) - pi for m, pi in zip(mu, self.p[1:])]
        bad = min(rho)
        if bad < -NEG_TOL:
            raise InternalError(
                f"resolved marginal fell below the worst-case floor by {-bad}"
            )
        edges = []
        acc = self.zone_start
        for r in rho:
            acc += max(r, 0.0)
            edges.append(acc)
        return edges

    def locate_zone(self, y, cond):
        """Spin owning y within the indecision zone (closed right endpoint),
        given the resolved conditional partition ``cond``."""
        splits = self._splits
        if splits is None:
            splits = self._splits = {}
        edges = splits.get(cond)
        if edges is None:
            edges = splits[cond] = self.split_zone(cond.p[1:])
        idx = bisect_right(edges, y)
        if idx >= self.q:
            # Roundoff can leave y marginally past the last edge; the zone's
            # right endpoint is closed, so absorb into the last live spin.
            mu = cond.p
            for j in range(self.q, 0, -1):
                if mu[j] - self.p[j] > 0.0:
                    return j
            raise InternalError("indecision zone has no positive subinterval")
        return idx + 1


@dataclass
class RecursionStats:
    """Counters for one top-level call, or summed over a window's calls."""

    total_calls: int = 0
    max_depth: int = 0
    indecision_events: int = 0
    trace: list = None


@dataclass
class RunReport:
    """Window-run summary: sampled spins plus recursion statistics.

    ``window`` holds the graph's vertices; ``format_vertex`` renders them as
    text when the report is serialized.
    """

    seed: int
    model: str
    radius: int
    window: list
    spins: PartialConfiguration
    total_calls: int
    max_depth: int
    indecision_events: int
    wall_time_ms: float
    format_vertex: object = field(repr=False, compare=False)

    def to_json(self, deterministic=False):
        """Serialize; ``deterministic`` nulls the wall time so identical
        configurations yield byte-identical documents."""
        doc = {
            "seed": self.seed,
            "model": self.model,
            "radius": self.radius,
            "window": [self.format_vertex(v) for v in self.window],
            "total_calls": self.total_calls,
            "max_depth": self.max_depth,
            "indecision_events": self.indecision_events,
            "wall_time_ms": None if deterministic else self.wall_time_ms,
        }
        return json.dumps(doc, indent=2) + "\n"


_BallFrame = namedtuple("_BallFrame", "origin ball v sphere interior support")


def _on_frame(ball, lam):
    """The context on the sorted ``ball``, keyed by frame labels 1..n."""
    return {i: lam[w] for i, w in enumerate(ball, 1) if w in lam}


class MarginalCache:
    """Pure memoization of ball marginals for one (system, graph, radius).

    The cache is one table of ``IntervalPartition``s.  A vertex's worst-case
    partition is its min marginal p_v; once its whole sphere is assigned,
    the same lookup gives the exact conditional with p_v^0 = 0, so the
    sphere conditional is that entry itself.  Entries are shared and never
    change, so a min partition splits its zone under a given conditional
    entry once and keeps the edges (``IntervalPartition.locate_zone``).
    The bounded sampler's whole-graph oracle stores its exact marginal in
    the same table as a partition with no zone.

    The key of a lookup at v is ``(cls, code)``: ``cls`` is the graph's
    ``ball_class(v)`` and ``code`` reads the context restricted to v's
    radius-ell ball as an integer in base q+1 over the sorted ball, with
    digit 0 for an unassigned vertex.  Vertices of one class have balls that
    are translates in the same order, so on Z^d and its line graphs
    translated contexts share one entry; a line-graph edge's class is its
    direction, so edges of different orientations never do.

    A class's first vertex, its representative, has its ball found by
    breadth-first search; every later vertex of the class gets the
    representative's sorted ball translated onto it (``graph.translate``)
    and its sphere read off the frame's sphere labels.

    A miss is enumerated on the class's ball frame: the ball's induced
    subgraph as a ``FiniteGraph`` with the i-th sorted ball vertex labelled
    i, built once per class together with its compiled enumeration
    ``Support``, so a miss neither walks the graph, compiles a support nor
    re-validates frame labels.  Relabelling keeps the ball order and the
    sorted neighbor lists, so the enumeration multiplies the same factors
    in the same order as on the graph itself and the marginals are
    bit-identical.  Cached values are deterministic functions of their
    keys, so lookups never change sampling behavior, only speed.
    """

    def __init__(self, system, graph, ell):
        self.system = system
        self.graph = graph
        self.ell = ell
        self._balls = {}
        self._frames = {}
        self._parts = {}
        self._radix = system.q + 1

    def ball_parts(self, v):
        """(sphere, sorted ball, ball class) of v, computed once.

        Only a class's first vertex runs a breadth-first search; every later
        one translates the representative's ball and reads its sphere off
        the frame's sphere labels.
        """
        parts = self._balls.get(v)
        if parts is None:
            cls = self.graph.ball_class(v)
            frame = self._frames.get(cls)
            if frame is None:
                sphere, interior = self.graph.sphere_and_interior(v, self.ell)
                frame = self._frames[cls] = self._frame(v, sphere, interior)
                ball = frame.ball
            else:
                ball = self.graph.translate(frame.ball, frame.origin, v)
                sphere = tuple(ball[i - 1] for i in frame.sphere)
            parts = (sphere, ball, cls)
            self._balls[v] = parts
        return parts

    def _frame(self, v, sphere, interior):
        ball = tuple(sorted(interior + sphere))
        label = {w: i for i, w in enumerate(ball, 1)}
        edges = [
            (i, j)
            for w, i in label.items()
            for u in self.graph._neighbors(w)
            if (j := label.get(u, 0)) > i
        ]
        graph = FiniteGraph(len(ball), edges)
        return _BallFrame(
            v,
            ball,
            label[v],
            tuple(label[w] for w in sphere),
            tuple(label[w] for w in interior),
            Support(self.system, graph, label.values()),
        )

    def min_intervals(self, v, lam):
        """IntervalPartition of v's min marginals under the context ``lam``."""
        parts = self._balls.get(v)
        if parts is None:
            parts = self.ball_parts(v)
        _, ball, cls = parts
        radix = self._radix
        get = lam.get
        code = 0
        for w in ball:
            code = code * radix + get(w, 0)
        key = (cls, code)
        part = self._parts.get(key)
        if part is None:
            frame = self._frames[cls]
            p = _min_marginals_on_ball(
                frame.support, frame.v, frame.sphere, frame.interior, _on_frame(ball, lam)
            )
            part = self._parts[key] = IntervalPartition(p.tolist())
        return part

    def sphere_conditional(self, v, lam):
        """Marginal of v once its whole sphere (and maybe more) is assigned:
        its min-marginal partition, whose zone is then empty."""
        # On the frame every ball vertex's neighbors lie in the ball, so only
        # this check keeps a free sphere vertex from going unnoticed.
        for w in self.ball_parts(v)[0]:
            if w not in lam:
                fmt = self.graph.format_vertex
                raise NotSeparatingError(f"sphere vertex {fmt(w)} of {fmt(v)} is unassigned")
        try:
            return self.min_intervals(v, lam)
        except InfeasibleContextError:
            raise InfeasibleBoundaryError(
                "fixed context admits no positive-weight extension"
            ) from None

    def whole_graph_marginal(self, v, lam):
        """Exact marginal of v on a finite graph (oracle for bounded runs),
        as an IntervalPartition with no zone."""
        key = ("oracle", v, tuple(sorted(lam.items())))
        part = self._parts.get(key)
        if part is None:
            mu = conditional_marginal(self.system, self.graph, v, lam, self.graph.vertices())
            part = self._parts[key] = IntervalPartition([0.0, *mu])
        return part


def _run(cache, lam, v, rng, stats, budget, h=None):
    """Iterative engine for one top-level call; ``lam`` is restored on exit.

    ``h`` is the remaining depth allowance of the bounded variant (None for
    the unbounded sampler): a call entered with h == 0 reads the exact
    whole-graph oracle, whose partition has no zone, instead of v's min
    marginals, so it never recurses.

    Only an undecided call waits on the stack, as ``(v, depth, h, y, part,
    free sphere, iterator over the free sphere)``.  Each child leaves just
    its own spin in ``lam``, so once the iterator is spent the free sphere is
    exactly what the call deletes after resolving its zone.  Counts are kept
    in locals, so the budget applies to this call alone, and are added to
    ``stats`` on exit.  A budget trip names the top-level vertex, then the
    call being entered and its depth.
    """
    trace = stats.trace
    calls = max_depth = undecided = 0
    depth = 1
    stack = []
    top = v
    try:
        while True:
            calls += 1
            if calls > budget:
                fmt = cache.graph.format_vertex
                raise BudgetExhaustedError(
                    f"call budget {budget} exhausted for vertex {fmt(top)}: "
                    f"entering vertex {fmt(v)} at depth {depth}"
                )
            if depth > max_depth:
                max_depth = depth
            if h == 0:
                part = cache.whole_graph_marginal(v, lam)
            else:
                part = cache.min_intervals(v, lam)
            y = rng.next_double()
            spin = part.locate(y)
            if trace is not None:
                trace.append((v, depth, spin == 0))
            if spin == 0:
                undecided += 1
                free = [w for w in cache.ball_parts(v)[0] if w not in lam]
                stack.append((v, depth, h, y, part, free, iter(free)))
            elif stack:
                lam[v] = spin
            else:
                return spin
            # Enter the top call's next free sphere vertex, resolving every
            # call whose free sphere is now fully assigned on the way.
            while (v := next(stack[-1][6], None)) is None:
                u, _, _, y, part, free, _ = stack.pop()
                spin = part.locate_zone(y, cache.sphere_conditional(u, lam))
                for w in free:
                    del lam[w]
                if not stack:
                    return spin
                lam[u] = spin
            _, depth, h = stack[-1][:3]
            depth += 1
            if h is not None:
                h -= 1
    finally:
        stats.total_calls += calls
        stats.indecision_events += undecided
        if max_depth > stats.max_depth:
            stats.max_depth = max_depth


def _prepare_context(system, graph, fixed):
    spins = as_spin_dict(fixed)
    _check_spins(system, spins)
    for w in spins:
        graph.check_vertex(w)
    return spins


class WindowSampler:
    """Reusable sampling context: one marginal cache, many seeded runs."""

    def __init__(self, system, graph, ell, budget=None):
        if ell < 1:
            raise ModelParameterError(f"radius must be >= 1, got {ell}")
        self.system = system
        self.graph = graph
        self.ell = ell
        self.budget = budget_from_env() if budget is None else int(budget)
        if self.budget < 1:
            raise ModelParameterError(f"budget must be positive, got {budget}")
        self._cache = MarginalCache(system, graph, ell)

    def sample_spin(self, v, seed_or_rng, fixed=None, trace=False, h=None):
        """One spin for ``v`` under ``fixed``; returns (spin, stats).

        With a depth allowance ``h`` the run follows the unbounded one draw
        for draw until a call is entered with no allowance left; that call
        samples from the exact whole-graph conditional instead of recursing,
        so ``h`` needs a finite graph.
        """
        if h is not None:
            if not self.graph.is_finite():
                raise FiniteOnlyError("bounded sampling requires a finite graph")
            if h < 0:
                raise ModelParameterError(f"depth bound must be >= 0, got {h}")
        lam = _prepare_context(self.system, self.graph, fixed)
        self.graph.check_vertex(v)
        if v in lam:
            raise ModelParameterError(
                f"vertex {self.graph.format_vertex(v)} is already assigned"
            )
        rng = seed_or_rng if hasattr(seed_or_rng, "next_double") else RandomSource(seed_or_rng)
        stats = RecursionStats(trace=[] if trace else None)
        spin = _run(self._cache, lam, v, rng, stats, self.budget, h=h)
        return spin, stats

    def sample_window(self, window, seed_or_rng, fixed=None):
        """Sample every window vertex in order; returns (spins, RunReport).

        Window spins persist as conditioning for later vertices; each
        top-level vertex gets a fresh call budget.
        """
        window = list(window)
        for v in window:
            self.graph.check_vertex(v)
        if len(set(window)) != len(window):
            raise ConfigError("window vertices must be distinct")
        lam = _prepare_context(self.system, self.graph, fixed)
        for v in window:
            if v in lam:
                raise ConfigError(
                    f"window vertex {self.graph.format_vertex(v)} is already fixed"
                )
        rng = seed_or_rng if hasattr(seed_or_rng, "next_double") else RandomSource(seed_or_rng)
        total = RecursionStats()
        t0 = time.perf_counter()
        out = {}
        for v in window:
            spin = _run(self._cache, lam, v, rng, total, self.budget)
            lam[v] = spin
            out[v] = spin
        wall_ms = (time.perf_counter() - t0) * 1000.0
        spins = PartialConfiguration(out)
        report = RunReport(
            seed=getattr(rng, "seed", -1),
            model=self.system.label,
            radius=self.ell,
            window=window,
            spins=spins,
            total_calls=total.total_calls,
            max_depth=total.max_depth,
            indecision_events=total.indecision_events,
            wall_time_ms=wall_ms,
            format_vertex=self.graph.format_vertex,
        )
        return spins, report


def ssms(system, graph, fixed, v, ell, seed_or_rng, budget=None, trace=False, h=None):
    """Draw the spin of ``v`` exactly from its conditional distribution.

    Returns ``(config, stats)`` where config extends ``fixed`` by the single
    assignment at ``v``; any sphere spins sampled along the way are discarded.
    A depth allowance ``h`` (finite graphs only) caps the recursion; see
    ``WindowSampler.sample_spin``.
    """
    sampler = WindowSampler(system, graph, ell, budget=budget)
    spin, stats = sampler.sample_spin(v, seed_or_rng, fixed, trace=trace, h=h)
    base = fixed if isinstance(fixed, PartialConfiguration) else PartialConfiguration(
        as_spin_dict(fixed)
    )
    return base.with_spin(v, spin), stats


def sample_window(system, graph, window, ell, seed_or_rng, budget=None, fixed=None):
    """One-shot window sample; see WindowSampler.sample_window."""
    sampler = WindowSampler(system, graph, ell, budget=budget)
    return sampler.sample_window(window, seed_or_rng, fixed)
