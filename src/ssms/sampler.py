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

A call draws y first.  Below a lower bound on p_v^1 that holds under
every context (one per ball class, kept in v's ball-memo entry or read off
its class's frame), y lies in I_1 whatever the context, so the spin is 1
with no lookup.  Only a larger y looks up v's partition, which is built on
a miss; the spins, counts and draws are the same as when every call looks
up first.  The depth-capped sampler's oracle call takes no shortcut.  A
fixed context of weight 0 on its own fields and edges is rejected before
the first draw: a shortcut could otherwise return a spin where the lookup
it skips would raise.

``WindowSampler.sample_window`` is the one way to draw: one top-level call
per window vertex, in order, each drawn spin conditioning the next.  It
checks the whole window in one pass (``LocalGraph.check_vertices``), and the
engine (``_run``) runs the whole window in one loop.

The recursion is run on an explicit work stack, so deep excursions do not
hit the interpreter's call-depth limit.  Only undecided calls wait on the
stack: a call whose variate lands in a spin interval hands its spin straight
to the call waiting on it.  A guard aborts any top-level call whose
recursion exceeds the call budget, since the recursion is not guaranteed to
terminate when the zone of indecision is too wide.

The variates come from ``RandomSource``, a splitmix64 stream whose words
are computed in numpy blocks; any object with a ``next_double`` method can
stand in for it.
"""

from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .bruteforce import Factors, Support
from .errors import (
    BudgetExhaustedError,
    ConfigError,
    FiniteOnlyError,
    InfeasibleContextError,
    InternalError,
    InvalidProbabilitiesError,
    ModelParameterError,
    NotSeparatingError,
    check_count,
    is_integer,
)
from .marginals import NEG_TOL, _ball_min_marginals, _no_extension
from .spinsys import PartialConfiguration, check_positive_weight, checked_context

DEFAULT_BUDGET = 10**7
# The ball memo is cleared when it holds this many entries, so a divergent
# walk that visits ever new vertices holds bounded memory.  A warm 20x20
# lattice sampler at radius 2 holds about a thousand.
_BALLS_CAP = 2**14

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK_MIN = 32
_BLOCK_MAX = 4096
# n * gamma modulo 2^64 for n = 1..4096: word n of a block is mixed from
# the stream's offset plus entry n - 1.
_GAMMA_STEPS = np.arange(1, _BLOCK_MAX + 1, dtype=np.uint64) * np.uint64(_GAMMA)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S27, _S30, _S31 = np.uint64(27), np.uint64(30), np.uint64(31)


class RandomSource:
    """splitmix64 stream mapped to [0, 1) doubles.

    Word n of the stream (n = 1, 2, ...) is the standard two-round
    xor-multiply mix of ``seed + n * gamma`` modulo 2^64, gamma the golden
    increment.  That is what advancing the state by gamma and mixing each
    state gives, so the words are computed in numpy blocks: 32 first, each
    later block twice the last, up to 4,096.  ``next_uint64`` and
    ``next_double`` both take the next word of the one buffer; a double is
    the top 53 bits of its word divided by 2^53, the usual uniform grid.
    The counter records how many doubles have been consumed.

    The seed must be an integer; its low 64 bits seed the stream, so -1
    seeds the same stream as 2^64 - 1.
    """

    __slots__ = ("seed", "counter", "_words", "_pos", "_drawn")

    def __init__(self, seed):
        if not is_integer(seed):
            raise ModelParameterError(f"seed must be an integer, got {seed!r}")
        self.seed = seed & _MASK64
        self.counter = 0
        self._words = []
        self._pos = 0
        self._drawn = 0

    def _refill(self):
        drawn = self._drawn
        # 32, 64, 128, ... words: each block doubles the last, up to 4,096.
        size = min(drawn + _BLOCK_MIN, _BLOCK_MAX)
        z = _GAMMA_STEPS[:size] + np.uint64((self.seed + drawn * _GAMMA) & _MASK64)
        z ^= z >> _S30
        z *= _MIX1
        z ^= z >> _S27
        z *= _MIX2
        z ^= z >> _S31
        self._words = z.tolist()
        self._drawn = drawn + size
        self._pos = 0

    def next_uint64(self):
        i = self._pos
        if i == len(self._words):
            self._refill()
            i = 0
        self._pos = i + 1
        return self._words[i]

    def next_double(self):
        # next_uint64 inlined: one draw per engine call.
        i = self._pos
        if i == len(self._words):
            self._refill()
            i = 0
        self._pos = i + 1
        self.counter += 1
        return (self._words[i] >> 11) * 2.0**-53


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
        # One pass checks the range, clamps roundoff below 0 and sums the
        # edges; ``last`` ends on the edge of the last spin of positive mass.
        masses = []
        cum = []
        acc = 0.0
        last = 0
        for x in p:
            if x < -1e-12 or x > 1.0 + 1e-12:
                raise InvalidProbabilitiesError(f"interval masses outside [0,1]: {p}")
            if x < 0.0:
                x = 0.0
            if masses:
                if x > 0.0:
                    last = len(cum)
                acc += x
                cum.append(acc)
            masses.append(x)
        total = sum(p)
        if abs(total - 1.0) > NEG_TOL:
            raise InvalidProbabilitiesError(f"interval masses sum to {total}, not 1")
        if masses[0] == 0.0:
            cum[last:] = [1.0] * (len(cum) - last)
        self.p = tuple(masses)
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
    """Counters summed over a window's top-level calls; a traced window also
    lists every call as (vertex, depth, undecided) in order."""

    total_calls: int = 0
    max_depth: int = 0
    indecision_events: int = 0
    trace: list = None


_BallFrame = namedtuple(
    "_BallFrame", "origin ball v sphere interior support p1_bound sphere_of"
)


class MarginalCache:
    """Pure memoization of ball marginals for one (system, graph, radius).

    A call that has drawn its variate compares it with v's class bound on
    p_v^1 first: one float per ball class, kept on the class's frame and in
    the fourth field of each of the class's ball-memo entries
    (``ball_parts``), so a vertex with an entry reads it there and any other
    asks ``p1_bound(v)``, which makes an entry only for a class's first
    vertex.  Entries stay lazy: a call the bound settles never needs v's
    ball.  Only a variate at or above the bound looks up v's partition.

    The cache is one table of ``IntervalPartition``s.  A vertex's worst-case
    partition is its min marginal p_v; once its whole sphere is assigned,
    the same lookup gives the exact conditional with p_v^0 = 0, so the
    sphere conditional is that entry itself.  Entries are shared and never
    change, so a min partition splits its zone under a given conditional
    entry once and keeps the edges (``IntervalPartition.locate_zone``).
    The bounded sampler's whole-graph oracle stores its exact marginal, the
    miss ``conditional_marginal`` runs on the whole graph, in the same table
    as a partition with no zone; the whole graph's support is compiled on
    its first miss and enumerated with no re-validation, on factors of its
    own.

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
    and its sphere picked out of that by the frame's ``itemgetter`` of the
    sphere's positions.

    A miss is enumerated on the class's ball frame: the ball's sorted
    vertices, the i-th labelled i, with their induced edges.  Once per class
    the frame reads each ball vertex's neighbours off the graph as labels
    and compiles that adjacency straight into its enumeration ``Support``
    (``Support.from_adjacency``): edges the graph already gave are not
    validated again, and the p1-bound miss runs on the same labels, lists
    and monotone flag, restricted to v and its neighbours
    (``Support.restrict``).  So a miss neither walks the graph nor compiles
    a support.  Hits keep the integer key; a miss reads the context once
    more, as the digit tuple ``(None, *map(lam.get, ball))`` indexed by
    label, and runs as one pass over the frame's label lists
    (``marginals._ball_rows``).  All frames share one ``Factors``, and
    each frame reserves its widest miss in it when it is built
    (``Factors.reserve``), so one factor table, read as a view by every
    narrower free count, serves every miss up to the cut-over, not one
    table per free count or per class (on a tree every vertex is a class).
    Relabelling keeps the ball order and the sorted neighbor lists, so the
    enumeration multiplies the same factors in the same order as on the
    graph itself and the marginals are bit-identical.
    Cached values are deterministic functions of their keys, so lookups
    never change sampling behavior, only speed.
    """

    def __init__(self, system, graph, ell):
        self.system = system
        self.graph = graph
        self.ell = ell
        self._balls = {}
        self._frames = {}
        self._parts = {}
        self._radix = system.q + 1
        self._factors = Factors(system)
        # The whole graph's compiled support and vertex order, for the
        # bounded sampler's oracle; compiled on its first miss.
        self._oracle = None

    def ball_parts(self, v):
        """(sphere, sorted ball, ball class, class p1 bound) of v: v's entry
        in the ball memo, made on first use.

        Only a class's first vertex runs a breadth-first search; every later
        one translates the representative's ball and picks its sphere out
        of it (``_BallFrame.sphere_of``).  The memo is pure, so it is cleared
        whenever it reaches ``_BALLS_CAP`` entries.
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
                sphere = frame.sphere_of(ball)
            parts = (sphere, ball, cls, frame.p1_bound)
            balls = self._balls
            if len(balls) >= _BALLS_CAP:
                balls.clear()
            balls[v] = parts
        return parts

    def _frame(self, v, sphere, interior):
        ball = tuple(sorted(interior + sphere))
        label = {w: i for i, w in enumerate(ball, 1)}
        # The graph's neighbor lists are sorted and the labels keep the
        # ball's order, so each label's list comes out sorted.
        neighbors = self.graph._neighbors
        adjacent = [tuple([label[u] for u in neighbors(w) if u in label]) for w in ball]
        support = Support.from_adjacency(self.system, adjacent, self._factors)
        # The empty context frees the most vertices: the interior on a
        # monotone ball (the extremal path), the whole ball otherwise.
        widest = len(interior) if support.monotone else len(ball)
        self._factors.reserve(widest)
        positions = [label[w] - 1 for w in sphere]
        if len(positions) > 1:
            sphere_of = itemgetter(*positions)
        else:
            # itemgetter needs a position and returns a bare item for one.
            def sphere_of(ball):
                return tuple([ball[i] for i in positions])

        sphere = tuple(label[w] for w in sphere)
        interior = tuple(label[w] for w in interior)
        bound = _p1_bound(support, label[v], widest)
        return _BallFrame(v, ball, label[v], sphere, interior, support, bound, sphere_of)

    def p1_bound(self, v):
        """Lower bound on p_v^1 under every context, shared by v's ball
        class (``_p1_bound``).  Only a class's first vertex gets a memo
        entry here; any other reads its class's frame."""
        frame = self._frames.get(self.graph.ball_class(v))
        if frame is None:
            return self.ball_parts(v)[3]
        return frame.p1_bound

    def min_intervals(self, v, lam):
        """IntervalPartition of v's min marginals under the context ``lam``."""
        parts = self._balls.get(v)
        if parts is None:
            parts = self.ball_parts(v)
        _, ball, cls, _ = parts
        radix = self._radix
        get = lam.get
        code = 0
        for w in ball:
            code = code * radix + get(w, 0)
        key = (cls, code)
        part = self._parts.get(key)
        if part is None:
            frame = self._frames[cls]
            # The context read once as digits by frame label (label i is
            # ball[i - 1]; slot 0 is empty).
            digits = (None, *map(get, ball))
            p = _ball_min_marginals(frame.support, frame.v, frame.sphere, frame.interior, digits)
            part = self._parts[key] = IntervalPartition(p)
        return part

    def sphere_conditional(self, v, lam):
        """Marginal of v once its whole sphere (and maybe more) is assigned:
        its min-marginal partition, whose zone is then empty."""
        # On the frame every ball vertex's neighbors lie in the ball, so only
        # this check keeps a free sphere vertex from going unnoticed.
        parts = self._balls.get(v)
        if parts is None:
            parts = self.ball_parts(v)
        for w in parts[0]:
            if w not in lam:
                fmt = self.graph.format_vertex
                raise NotSeparatingError(f"sphere vertex {fmt(w)} of {fmt(v)} is unassigned")
        try:
            return self.min_intervals(v, lam)
        except InfeasibleContextError:
            raise _no_extension() from None

    def whole_graph_marginal(self, v, lam):
        """Exact marginal of v on a finite graph (oracle for bounded runs),
        as an IntervalPartition with no zone."""
        key = ("oracle", v, tuple(sorted(lam.items())))
        part = self._parts.get(key)
        if part is None:
            if self._oracle is None:
                vertices = list(self.graph.vertices())
                self._oracle = (Support(self.system, self.graph, vertices), vertices)
            compiled, vertices = self._oracle
            # One-shot factors per miss, as conditional_marginal builds them:
            # no whole-graph field tensor outlives its miss.
            compiled.factors = Factors(self.system)
            fixed = {w: lam[w] for w in vertices if w in lam}
            try:
                p = _ball_min_marginals(compiled, v, (), vertices, fixed)
            except InfeasibleContextError:
                raise _no_extension() from None
            part = self._parts[key] = IntervalPartition(p)
        return part


def _p1_bound(support, v, widest):
    """Lower bound on p_v^1 under every context, for the label v of a ball
    frame with compiled ``support``, whose widest miss frees ``widest``
    vertices; 0.0 where no shortcut is safe.

    By the Markov property, v's conditional under any context and boundary
    is a mixture, over feasible configurations of v's neighbours, of its
    conditional given them.  So p_v^1 is never below the least of those: the
    radius-1 min marginal with no context, a miss on the support induced by
    v and its neighbours.  NEG_TOL below it covers the roundoff of both
    enumerations.

    The bound is 0 unless spin 1 has a positive field and a positive
    interaction with every spin (``WindowSampler.sample_window`` says why)
    and the widest miss on the ball fits (``Support.fits``), so that the
    lookup a shortcut skips could raise neither ``InfeasibleContextError``
    nor ``TooLargeError``.
    """
    system = support.system
    if not (system.b[0] > 0.0 and (system.A[0] > 0.0).all()) or not support.fits(widest):
        return 0.0
    near = support.adjacent_labels[v]
    # The frame's own label lists and flags, restricted to v and its
    # neighbours, under the empty context as digits.
    empty = [None] * len(support.adjacent_labels)
    p = _ball_min_marginals(support.restrict((v, *near)), v, near, (v,), empty)
    return max(p[1] - NEG_TOL, 0.0)


def _run(cache, lam, window, rng, stats, budget, h=None):
    """Iterative engine for a whole window: one top-level call per window
    vertex, in order.  Returns the window's spins as a dict; each is left
    in ``lam`` as well, to condition the later calls, and nothing else is.

    Only an undecided call waits on the stack, as ``(v, y, part, free
    sphere, iterator over the free sphere)``.  Every waiting call is the
    parent of the entry above it, so the call being entered has depth
    ``len(stack) + 1``; that depth and the top waiting call's iterator are
    kept in locals, changed only on a push or a pop.  Each child leaves
    just its own spin in ``lam``, so once the iterator is spent the free
    sphere is exactly what the call deletes after resolving its zone.  The
    stack is empty between top-level calls.

    ``h`` caps the depth of the bounded variant (None for the unbounded
    sampler): a call entered at depth h + 1 reads the exact whole-graph
    oracle, whose partition has no zone, instead of v's min marginals, so
    it never recurses.  Whether the oracle's enumeration fits the cap
    depends on the context, so that call takes no ``p1_bound`` shortcut.

    A call reads v's ball-memo entry once: its fourth field is the class
    bound on p_v^1, and an undecided call takes its free sphere from it.  A
    vertex with no entry yet gets the bound from ``cache.p1_bound``, and its
    lookup, if it makes one, makes the entry.

    Counts are kept in locals and added to ``stats`` on exit.  Each window
    vertex gets a fresh ``budget`` of calls; a trip names that vertex, then
    the call being entered and its depth, in its message and as fields.  A
    call that trips is counted but does not raise the maximum depth.
    """
    trace = stats.trace
    balls = cache._balls
    p1_bound = cache.p1_bound
    min_intervals = cache.min_intervals
    draw = rng.next_double
    oracle_depth = 0 if h is None else h + 1
    calls = max_depth = undecided = 0
    stack = []
    out = {}
    if not window:
        return out
    top = v = window[0]
    limit = budget
    # The depth of the call being entered, len(stack) + 1, and the top
    # waiting call's iterator, read only while the stack is not empty.
    depth = 1
    children = None
    try:
        while True:
            calls += 1
            if calls > limit:
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
            y = draw()
            if depth == oracle_depth:
                part = cache.whole_graph_marginal(v, lam)
                spin = part.locate(y)
            else:
                # One read of v's memo entry gives its class bound; a vertex
                # with no entry yet reads the bound off its class's frame.
                entry = balls.get(v)
                if 0.0 <= y < (p1_bound(v) if entry is None else entry[3]):
                    spin = 1
                else:
                    part = min_intervals(v, lam)
                    spin = part.locate(y)
            if trace is not None:
                trace.append((v, depth, spin == 0))
            if spin == 0:
                # Only a lookup leaves a call undecided (the oracle's
                # partition has no zone), and it made v's entry if missing.
                undecided += 1
                free = [w for w in (entry or balls[v])[0] if w not in lam]
                children = iter(free)
                stack.append((v, y, part, free, children))
                depth += 1
            elif stack:
                lam[v] = spin
            # Enter the top call's next free sphere vertex, resolving every
            # call whose free sphere is now fully assigned on the way.
            while stack and (v := next(children, None)) is None:
                v, y, part, free, _ = stack.pop()
                depth -= 1
                spin = part.locate_zone(y, cache.sphere_conditional(v, lam))
                for w in free:
                    del lam[w]
                if stack:
                    lam[v] = spin
                    children = stack[-1][4]
            if not stack:
                # v was the top-level call: its spin conditions the rest of
                # the window, whose next vertex starts with a fresh budget.
                lam[v] = out[v] = spin
                if len(out) == len(window):
                    return out
                top = v = window[len(out)]
                limit = calls + budget
    finally:
        stats.total_calls += calls
        stats.indecision_events += undecided
        if max_depth > stats.max_depth:
            stats.max_depth = max_depth


class WindowSampler:
    """Reusable sampling context: one marginal cache, many seeded windows,
    each window vertex's run capped at ``budget`` calls (None: DEFAULT_BUDGET)."""

    def __init__(self, system, graph, ell, budget=None):
        self.system = system
        self.graph = graph
        self.ell = check_count(ell, 1, "radius")
        self.budget = DEFAULT_BUDGET if budget is None else check_count(budget, 1, "budget")
        self._cache = MarginalCache(system, graph, ell)

    def sample_window(self, window, seed_or_rng, fixed=None, trace=False, h=None):
        """Sample every window vertex in order under ``fixed``; returns
        (spins, stats), with ``stats`` the window's RecursionStats, traced
        with ``trace``.

        ``seed_or_rng`` is an integer seed of a ``RandomSource`` or any
        object with a ``next_double`` method.  One engine loop (``_run``)
        draws the whole window.  Window spins persist as conditioning for
        later vertices; each window vertex gets a fresh call budget.  With
        a depth cap ``h`` each vertex's run follows the uncapped one draw
        for draw until a call is entered at depth h + 1; that call samples
        from the exact whole-graph conditional instead of recursing, so
        ``h`` needs a finite graph.

        A ``fixed`` context with a field or edge factor of 0 raises
        ``InfeasibleContextError`` before any draw.  That check is all the
        shortcut needs: a class bound is positive only where spin 1 has a
        positive field and interaction with every spin, so any free vertex
        can take spin 1 whatever its neighbours hold.  A context of positive
        weight then extends to every ball, every spin the engine adds keeps
        its weight positive, and no lookup a shortcut skips could have found
        the context infeasible.
        """
        if h is not None:
            if not self.graph.is_finite():
                raise FiniteOnlyError("bounded sampling requires a finite graph")
            check_count(h, 0, "depth bound")
        window = list(window)
        self.graph.check_vertices(window)
        if len(set(window)) != len(window):
            raise ConfigError("window vertices must be distinct")
        lam = checked_context(self.system, self.graph, fixed)
        check_positive_weight(self.system, self.graph, lam)
        if lam:
            for v in window:
                if v in lam:
                    raise ModelParameterError(
                        f"vertex {self.graph.format_vertex(v)} is already assigned"
                    )
        rng = seed_or_rng if hasattr(seed_or_rng, "next_double") else RandomSource(seed_or_rng)
        stats = RecursionStats(trace=[] if trace else None)
        out = _run(self._cache, lam, window, rng, stats, self.budget, h)
        # The engine's own spins: nothing to validate.
        return PartialConfiguration._wrap(out), stats
