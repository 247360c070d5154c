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
every context (one per ball class, kept in v's memo entry or read off
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
engine (``_run``) runs the whole window in one loop over its vertices.

The engine works on integer vertex ids, which the marginal cache hands out
as it meets vertices.  Its context is one list of spins indexed by id, 0
for unassigned, and a lookup's key is v's ball class with the spins of v's
sorted ball, read from that list by one ``itemgetter`` call.  Vertices go
in and come out by name: the window, the fixed context, the returned
spins, the trace and a budget trip's report.

The recursion is run on an explicit work stack, so deep excursions do not
hit the interpreter's call-depth limit.  Only undecided calls wait on the
stack: a call whose variate lands in a spin interval hands its spin straight
to the call waiting on it, and a top-level call so decided never touches
the stack.  All calls, top-level or not, run one block of code.  The engine
builds each lookup's key from v's memo entry and reads the cache's table
itself, so a hit, of a min partition or of a sphere conditional, runs no
cache method; a miss hands the key to the cache.  A guard aborts any top-level call whose
recursion exceeds the call budget, since the recursion is not guaranteed to
terminate when the zone of indecision is too wide.

The variates come from ``RandomSource``, a splitmix64 stream whose words,
and the doubles made from them, are computed in numpy blocks.  Its
``next_double`` is the C-level step of an iterator over those doubles, so
the engine binds it once and a draw runs no Python frame; ``counter``
counts the doubles drawn.  Any object with a ``next_double`` method can
stand in for it.
"""

from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass
from itertools import chain, filterfalse
from operator import itemgetter, length_hint

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
from .marginals import (
    NEG_TOL,
    _ball_min_marginals,
    _compile_ball,
    _exact_conditional,
    _no_extension,
)
from .spinsys import PartialConfiguration, check_positive_weight, checked_context

DEFAULT_BUDGET = 10**7
# The ball memo is cleared when it holds this many entries, so a divergent
# walk that visits ever new vertices holds bounded memory, and the intern
# table, between windows, once it holds this many vertices.  A warm 20x20
# lattice sampler at radius 2 holds about a thousand of each.
_BALLS_CAP = 2**14
# The table of partitions is cleared when it holds this many, so a sampler
# that meets ever new contexts holds bounded memory.  A warm 20x20 lattice
# sampler at radius 2 holds about 3,300 after 8,000 windows.
_PARTS_CAP = 2**15

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BLOCK_MIN = 32
_BLOCK_MAX = 4096
# n * gamma modulo 2^64 for n = 1..4096: word n of a block is mixed from
# the stream's offset plus entry n - 1.
_GAMMA_STEPS = np.arange(1, _BLOCK_MAX + 1, dtype=np.uint64) * np.uint64(_GAMMA)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = np.uint64(11), np.uint64(27), np.uint64(30), np.uint64(31)


class _Blocks:
    """A stream's block state: the words made so far, the last block's
    ``uint64`` words, the iterator over that block's doubles, and the words
    taken by ``next_uint64``.  It holds no reference to its ``RandomSource``,
    so no reference cycle runs through the block generator."""

    __slots__ = ("made", "words", "doubles", "taken")

    def __init__(self):
        self.made = 0
        self.words = None
        self.doubles = iter(())
        self.taken = 0


def _blocks(seed, state):
    """Iterators over the stream's doubles, one per block: 32 words first,
    each later block twice the last, up to 4,096.  ``state`` is set to each
    block before its first double is read."""
    while True:
        made = state.made
        size = min(made + _BLOCK_MIN, _BLOCK_MAX)
        z = _GAMMA_STEPS[:size] + np.uint64((seed + made * _GAMMA) & _MASK64)
        z ^= z >> _S30
        z *= _MIX1
        z ^= z >> _S27
        z *= _MIX2
        z ^= z >> _S31
        state.made = made + size
        state.words = z
        # A 53-bit integer times 2^-53 is exact in float64, so these are the
        # scalar (w >> 11) * 2.0**-53 bit for bit.
        state.doubles = iter(np.multiply(z >> _S11, 2.0**-53).tolist())
        yield state.doubles


class RandomSource:
    """splitmix64 stream mapped to [0, 1) doubles.

    Word n of the stream (n = 1, 2, ...) is the standard two-round
    xor-multiply mix of ``seed + n * gamma`` modulo 2^64, gamma the golden
    increment.  That is what advancing the state by gamma and mixing each
    state gives, so the words are computed in numpy blocks: 32 first, each
    later block twice the last, up to 4,096.  A double is the top 53 bits
    of its word divided by 2^53, the usual uniform grid; each block's
    doubles are computed with its words.

    ``next_double`` is an attribute, not a method: the C-level ``__next__``
    of one iterator chained over the blocks' doubles, so a draw runs no
    Python frame.  ``next_uint64`` advances the same iterator and returns
    the word at that position, so the two share one stream.  ``counter``
    is the number of doubles drawn: words made, less those left in the
    current block, less those ``next_uint64`` took.

    The seed must be an integer; its low 64 bits seed the stream, so -1
    seeds the same stream as 2^64 - 1.
    """

    __slots__ = ("seed", "next_double", "_state")

    def __init__(self, seed):
        if not is_integer(seed):
            raise ModelParameterError(f"seed must be an integer, got {seed!r}")
        self.seed = seed & _MASK64
        self._state = _Blocks()
        self.next_double = chain.from_iterable(_blocks(self.seed, self._state)).__next__

    @property
    def counter(self):
        state = self._state
        return state.made - length_hint(state.doubles) - state.taken

    def next_uint64(self):
        self.next_double()
        state = self._state
        state.taken += 1
        words = state.words
        return words.item(len(words) - length_hint(state.doubles) - 1)


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


class _Ids(dict):
    """Dense integer ids of vertices, in the order they were first looked up.

    ``vertices[i]`` is the vertex of id i and ``spins[i]`` its spin in the
    engine's context, 0 while unassigned.  Looking up a new vertex gives it
    the next id and grows both lists by one slot, so a ball's ids are read
    at C level, as ``tuple(map(ids.__getitem__, ball))``.
    """

    __slots__ = ("vertices", "spins")

    def __init__(self):
        super().__init__()
        self.vertices = []
        self.spins = []

    def __missing__(self, v):
        i = self[v] = len(self.vertices)
        self.vertices.append(v)
        self.spins.append(0)
        return i


def _picker(positions):
    """``itemgetter(*positions)``, returning a tuple for any number of
    positions: itemgetter needs a position and returns a bare item for one."""
    if len(positions) > 1:
        return itemgetter(*positions)

    def pick(seq):
        return tuple([seq[i] for i in positions])

    return pick


class MarginalCache:
    """Pure memoization of ball marginals for one (system, graph, radius).

    The cache gives each vertex it meets a dense integer id (``_Ids``), and
    the engine holds its context as one list of spins indexed by id, 0 where
    unassigned.  Lookups take an id and that list.  A vertex's memo entry
    (``entry``) holds its sphere as ids, an ``itemgetter`` of the ids of its
    sorted radius-ell ball, its ball class and the class's bound on p_v^1.
    The memo is pure, so it is cleared whenever it reaches ``_BALLS_CAP``
    entries; the intern table is cleared only between windows, once it
    holds as many vertices (``window_ids``), since a window's spins are held
    by id.

    A call that has drawn its variate compares it with v's class bound on
    p_v^1 first: one float per ball class, kept on the class's frame and in
    the fourth field of each of the class's memo entries, so a vertex with
    an entry reads it there and any other asks ``p1_bound(v)``, which makes
    an entry only for a class's first vertex.  Entries stay lazy: a call the
    bound settles never needs v's ball.  Only a variate at or above the
    bound looks up v's partition.

    The cache is one table of ``IntervalPartition``s.  A vertex's worst-case
    partition is its min marginal p_v; once its whole sphere is assigned,
    the same lookup gives the exact conditional with p_v^0 = 0, so the
    sphere conditional is that entry itself.  Entries are shared and never
    change, so a min partition splits its zone under a given conditional
    entry once and keeps the edges (``IntervalPartition.locate_zone``).
    The engine reads hits off the table (``_parts``) itself and hands a
    miss's key to ``min_intervals`` or ``sphere_conditional``.  The bounded
    sampler's whole-graph oracle is ``conditional_marginal``'s miss on a
    whole-graph ``Support`` compiled once, read off the same spin list and
    stored in the same table as a partition with no zone.  The table is
    pure as well and is cleared when it reaches ``_PARTS_CAP`` entries; a
    partition made again after a clear is a new object, so a min partition
    splits its zone under it anew, to the same edges.

    The key of a lookup at v is ``(cls, spins)``: ``cls`` is the graph's
    ``ball_class(v)`` and ``spins`` the tuple v's getter reads off the spin
    list, the context restricted to v's sorted ball, with 0 for an
    unassigned vertex.  Keys hold spins, not ids, so they outlive the intern
    table.  Vertices of one class have balls that are translates in the
    same order, so on Z^d and its line graphs translated contexts share one
    entry; a line-graph edge's class is its direction, so edges of
    different orientations never do.

    A class's first vertex, its representative, has its ball found by
    breadth-first search when its frame is built; every later vertex of the
    class gets the representative's sorted ball translated onto it
    (``graph.translate``).  Every vertex of the class, the representative
    too, picks its sphere out of its ball's ids by the frame's
    ``itemgetter`` of the sphere's positions.

    A miss is enumerated on the class's ball frame: the ball's sorted
    vertices, the i-th labelled i, with their induced edges, labelled and
    compiled once per class as every public ball query compiles its ball
    (``marginals._compile_ball``), and the p1-bound miss on the frame's
    labels and lists induced on v and its neighbours (``_p1_bound``), so a
    miss never walks the graph.  A miss reads its digits straight from the
    key, as ``(0, *spins)`` indexed by label, and runs as one pass over the
    frame's label lists (``marginals._ball_rows``).  All frames share one
    ``Factors``, and each frame reserves its widest miss in it when it is
    built (``Factors.reserve``), so one factor table, read as a view by
    every narrower free count, serves every miss up to the cut-over, not
    one table per free count or per class (on a tree every vertex is a
    class).  Relabelling keeps the ball order and the sorted
    neighbor lists, so the enumeration multiplies the same factors in the
    same order as on the graph itself and the marginals are bit-identical.
    Cached values are deterministic functions of their keys, so lookups
    never change sampling behavior, only speed.
    """

    def __init__(self, system, graph, ell):
        self.system = system
        self.graph = graph
        self.ell = ell
        self._ids = _Ids()
        self._entries = {}
        self._frames = {}
        self._parts = {}
        self._factors = Factors(system)
        # The depth-capped oracle's whole-graph support (``whole_graph_marginal``).
        self._oracle = None

    def window_ids(self):
        """The intern table for a new window, cleared first, with the memo
        entries that hold its ids, once it holds ``_BALLS_CAP`` vertices.
        The engine calls it between windows, when no spin is held by id."""
        if len(self._ids) >= _BALLS_CAP:
            self._ids = _Ids()
            self._entries = {}
        return self._ids

    def entry(self, i):
        """(sphere ids, getter of the sorted ball's spins, ball class, class
        p1 bound) of the vertex of id i: its memo entry, made on first use.

        Only a class's first vertex runs a breadth-first search, to build
        its frame; every later one translates the representative's ball.
        Each interns its ball and picks its sphere out of the ball's ids
        (``_BallFrame.sphere_of``).
        """
        entries = self._entries
        entry = entries.get(i)
        if entry is None:
            ids = self._ids
            v = ids.vertices[i]
            cls = self.graph.ball_class(v)
            frame = self._frames.get(cls)
            if frame is None:
                frame = self._frames[cls] = self._frame(v)
                ball = frame.ball
            else:
                ball = self.graph.translate(frame.ball, frame.origin, v)
            ball_ids = tuple(map(ids.__getitem__, ball))
            entry = (frame.sphere_of(ball_ids), _picker(ball_ids), cls, frame.p1_bound)
            if len(entries) >= _BALLS_CAP:
                entries.clear()
            entries[i] = entry
        return entry

    def _frame(self, origin):
        ball, support, v, sphere, interior = _compile_ball(
            self.system, self.graph, origin, self.ell, self._factors
        )
        # The empty context frees the most vertices: the interior on a
        # monotone ball (the extremal path), the whole ball otherwise.
        widest = len(interior) if support.monotone else len(ball)
        self._factors.reserve(widest)
        sphere_of = _picker([i - 1 for i in sphere])
        bound = _p1_bound(support, v, widest)
        return _BallFrame(origin, ball, v, sphere, interior, support, bound, sphere_of)

    def p1_bound(self, v):
        """Lower bound on p_v^1 under every context, shared by v's ball
        class (``_p1_bound``).  Only a class's first vertex gets a memo
        entry here; any other reads its class's frame."""
        frame = self._frames.get(self.graph.ball_class(v))
        if frame is None:
            return self.entry(self._ids[v])[3]
        return frame.p1_bound

    def min_intervals(self, i, spins, key=None):
        """IntervalPartition of the min marginals of the vertex of id i
        under the context ``spins``, the spin of each id (0: unassigned).
        The engine reads hits off the table itself and passes the key it
        built, ``(ball class, ball spins)``, on a miss."""
        if key is None:
            entry = self.entry(i)
            key = (entry[2], entry[1](spins))
        part = self._parts.get(key)
        if part is None:
            frame = self._frames[key[0]]
            # The ball's spins are its digits by frame label (label i is the
            # ball's i-th vertex; slot 0 is empty).
            digits = (0, *key[1])
            p = _ball_min_marginals(frame.support, frame.v, frame.sphere, frame.interior, digits)
            part = self._store(key, IntervalPartition(p))
        return part

    def sphere_conditional(self, i, spins, key=None):
        """Marginal of the vertex of id i once its whole sphere (and maybe
        more) is assigned: its min-marginal partition, whose zone is then
        empty.  ``key`` is as for ``min_intervals``."""
        # On the frame every ball vertex's neighbors lie in the ball, so only
        # this check keeps a free sphere vertex from going unnoticed.
        sphere = self.entry(i)[0]
        if not all(map(spins.__getitem__, sphere)):
            vertices = self._ids.vertices
            w = vertices[next(w for w in sphere if not spins[w])]
            fmt = self.graph.format_vertex
            raise NotSeparatingError(
                f"sphere vertex {fmt(w)} of {fmt(vertices[i])} is unassigned"
            )
        try:
            return self.min_intervals(i, spins, key)
        except InfeasibleContextError:
            raise _no_extension() from None

    def whole_graph_marginal(self, i, spins):
        """Exact marginal of the vertex of id i on a finite graph (oracle
        for bounded runs) under ``spins`` as for ``min_intervals``, as an
        IntervalPartition with no zone: ``conditional_marginal``'s miss
        (``marginals._exact_conditional``) on a whole-graph ``Support`` with
        factors of its own, compiled on the first call.  Its digits are the
        spins of the graph's vertices, interned as met; its key names v."""
        oracle = self._oracle
        if oracle is None:
            oracle = self._oracle = Support(self.system, self.graph, self.graph.vertices())
        ids = self._ids
        v = ids.vertices[i]
        digits = (0, *[spins[ids[w]] for w in oracle.vertices])
        key = ("oracle", v, digits)
        part = self._parts.get(key)
        if part is None:
            p = _exact_conditional(oracle, oracle.label[v], digits)
            part = self._store(key, IntervalPartition(p))
        return part

    def _store(self, key, part):
        parts = self._parts
        if len(parts) >= _PARTS_CAP:
            parts.clear()
        parts[key] = part
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
    # The support induced on v and its neighbours, on the frame's labels
    # and factors, under the empty context as digits.
    members = {v, *near}
    adjacent = [
        tuple([w for w in nb if w in members]) if u in members else ()
        for u, nb in enumerate(support.adjacent_labels[1:], 1)
    ]
    induced = Support.from_adjacency(system, adjacent, support.factors)
    p = _ball_min_marginals(induced, v, near, (v,), [0] * len(support.adjacent_labels))
    return max(p[1] - NEG_TOL, 0.0)


def _run(cache, lam, window, rng, stats, budget, h=None):
    """Iterative engine for a whole window: one top-level call per window
    vertex, in order, under the fixed context ``lam`` (keyed by vertex).
    Returns the window's spins as a dict keyed by vertex.

    The engine works on ids (``MarginalCache.window_ids``): it interns the
    fixed context and the window, writes the fixed spins into the cache's
    spin list, and keeps every spin it assigns there, so each window spin
    conditions the later calls.  Its ``finally`` zeroes every slot the
    window wrote (the fixed context, the window, and the free spheres of the
    calls still waiting), so a window that raises part-way leaves the list
    as it found it, all 0.

    The window loop enters each top-level call in place, through the one
    block of code every call runs (budget, depth, draw, oracle, shortcut or
    lookup, trace); a decided one leaves at once.  Only an undecided call
    waits on the stack, as ``(v, y, part, free sphere, iterator over the
    free sphere)``, v and the sphere as ids.  Every waiting call is the
    parent of the entry above it, so the call being entered has depth
    ``len(stack) + 1``; that depth and the top waiting call's iterator are
    kept in locals, changed only on a push or a pop.  Each child leaves
    just its own spin in the list, so once the iterator is spent the free
    sphere is exactly what the call zeroes after resolving its zone.  A
    call leaves the stack only after its conditional returns, so one that
    raises is still there for the ``finally`` to zero its free sphere.  The
    stack is empty between top-level calls.

    ``h`` caps the depth of the bounded variant (None for the unbounded
    sampler): a call entered at depth h + 1 reads the exact whole-graph
    oracle (``cache.whole_graph_marginal``) off the same spin list instead
    of v's min marginals; its partition has no zone, so it never recurses.
    Whether the oracle's enumeration fits the cap depends on the context,
    so that call takes no ``p1_bound`` shortcut.

    A call reads v's memo entry once: its fourth field is the class bound on
    p_v^1, and an undecided call takes its free sphere from it.  A vertex
    with no entry yet gets the bound from ``cache.p1_bound``, and its
    lookup, if it makes one, makes the entry (``cache.entry``).  A lookup,
    and a resolving call's sphere conditional once its sphere is assigned,
    reads the cache's table under the key it builds from the entry; a miss
    hands the key to ``min_intervals`` or ``sphere_conditional``.

    Counts are kept in locals and added to ``stats`` on exit; the trace, a
    budget trip and the returned spins name vertices, not ids.  Each window
    vertex gets a fresh ``budget`` of calls; a trip names that vertex, then
    the call being entered and its depth, in its message and as fields.  A
    call that trips is counted but does not raise the maximum depth.
    """
    if not window:
        return {}
    trace = stats.trace
    ids = cache.window_ids()
    spins, vertices = ids.spins, ids.vertices
    entries, parts = cache._entries, cache._parts
    entry_of = cache.entry
    p1_bound = cache.p1_bound
    min_intervals = cache.min_intervals
    sphere_conditional = cache.sphere_conditional
    draw = rng.next_double
    oracle_depth = 0 if h is None else h + 1
    calls = max_depth = undecided = 0
    stack = []
    fixed = list(map(ids.__getitem__, lam))
    tops = list(map(ids.__getitem__, window))
    # The depth of the call being entered, len(stack) + 1, and the top
    # waiting call's iterator, read only while the stack is not empty.
    depth = 1
    children = None
    try:
        for i, s in zip(fixed, lam.values()):
            spins[i] = s
        for top in tops:
            # Each window vertex starts with a fresh budget.
            v = top
            limit = calls + budget
            while True:
                calls += 1
                if calls > limit:
                    fmt = cache.graph.format_bounded
                    raise BudgetExhaustedError(
                        f"call budget {budget} exhausted for vertex {fmt(vertices[top])}: "
                        f"entering vertex {fmt(vertices[v])} at depth {depth}",
                        budget=budget,
                        top=vertices[top],
                        vertex=vertices[v],
                        depth=depth,
                    )
                if depth > max_depth:
                    max_depth = depth
                y = draw()
                if depth == oracle_depth:
                    part = cache.whole_graph_marginal(v, spins)
                    spin = part.locate(y)
                else:
                    # One read of v's memo entry gives its class bound; a
                    # vertex with no entry yet reads the bound off its
                    # class's frame.  A hit is read off the table here; a
                    # miss hands its key to the cache.
                    entry = entries.get(v)
                    if 0.0 <= y < (p1_bound(vertices[v]) if entry is None else entry[3]):
                        spin = 1
                    else:
                        if entry is None:
                            entry = entry_of(v)
                        key = (entry[2], entry[1](spins))
                        part = parts.get(key) or min_intervals(v, spins, key)
                        spin = part.locate(y)
                if trace is not None:
                    trace.append((vertices[v], depth, spin == 0))
                if spin:
                    if not stack:
                        # A decided top-level call never touches the stack.
                        break
                    spins[v] = spin
                else:
                    # Only a lookup leaves a call undecided (the oracle's
                    # partition has no zone), so ``entry`` is v's.
                    undecided += 1
                    free = list(filterfalse(spins.__getitem__, entry[0]))
                    children = iter(free)
                    stack.append((v, y, part, free, children))
                    depth += 1
                # Enter the top call's next free sphere vertex, resolving every
                # call whose free sphere is now fully assigned on the way.  A
                # call leaves the stack only once its conditional is read and
                # its free sphere zeroed.
                while (v := next(children, None)) is None:
                    v, y, part, free, _ = stack[-1]
                    # The memo may have been cleared since v's lookup.
                    entry = entries.get(v) or entry_of(v)
                    key = (entry[2], entry[1](spins))
                    cond = parts.get(key) if all(map(spins.__getitem__, entry[0])) else None
                    if cond is None:
                        # A miss, or a free sphere vertex, which raises.
                        cond = sphere_conditional(v, spins, key)
                    spin = part.locate_zone(y, cond)
                    for w in free:
                        spins[w] = 0
                    stack.pop()
                    depth -= 1
                    if not stack:
                        break
                    spins[v] = spin
                    children = stack[-1][4]
                if not stack:
                    break
            # The top-level call's spin conditions the rest of the window.
            spins[top] = spin
        return dict(zip(window, map(spins.__getitem__, tops)))
    finally:
        for i in chain(fixed, tops, *[waiting[3] for waiting in stack]):
            spins[i] = 0
        stats.total_calls += calls
        stats.indecision_events += undecided
        if max_depth > stats.max_depth:
            stats.max_depth = max_depth


class WindowSampler:
    """Reusable sampling context: one marginal cache, many seeded windows,
    each window vertex's run capped at ``budget`` calls (None: DEFAULT_BUDGET).

    One sampler runs one window at a time: the engine holds a window's
    spins in its cache's spin list, indexed by vertex id, and zeroes them
    when the window ends, whether it returns or raises.
    """

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
