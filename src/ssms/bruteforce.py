"""Vectorized exhaustive enumeration of spin assignments on small supports.

The joint weight over a support is a dense tensor with one axis of length q
per free vertex, the cell-wise product of the field and interaction
factors.  Enumeration refuses more than q^k = 2^22 assignments.

Enumeration is split in two.  ``Support`` compiles what does not depend on
the fixed spins: each vertex's neighbours inside the support and whether
the Gibbs measure on it is monotone.  ``weight_rows`` then takes one
fixed/free pattern and edge-walk order, on the whole compiled support or on
any part of it: it enumerates the subgraph induced by the vertices it is
given and reads no edge leaving them.  A caller that enumerates one support
many times (a ball frame of the sampler's marginal cache) compiles it once;
every other caller compiles a one-shot support.  A radius-ell ball reads its
induced neighbour lists off the graph as labels once and compiles them
directly (``Support.from_adjacency``, called by
``marginals._compile_ball``).  ``weight_tensor`` is
``weight_rows`` walking a support in its own order, shaped as a tensor.

The factors themselves depend only on the system and the free count k:
the field product, row s of A on axis j, and A across axes j1 < j2.
``Factors`` holds them for every k and any number of supports share one
(the marginal cache shares one across its ball frames).  Up to GATHER_CAP
cells it expands every factor to all q^k cells as one row of a table, and
a product gathers its rows by id in one flat ``take`` and multiplies them
in one call.  It builds one such table, for the widest free count asked
for, and every narrower k reads it as a view (``Factors``).  Past the
cut-over each factor is an array shaped to broadcast, multiplied into a
copy of the field in turn.  Either way an enumeration walks its edges
once, keeping one code per walked vertex (its axis, or its pinned spin),
skips the interaction rows that are all ones, and multiplies the rest
cell by cell in walk order; since x * 1.0 == x, the weights are
bit-identical to multiplying every factor in turn.  The pinned spins'
fields and their interactions with each other are one scalar, each row's
last factor: on the gathered path, the last slot of the row's block.

A miss of the marginal cache is one call: given the free sphere of a
monotone ball as ``extremes``, ``weight_rows`` also pins it to each of
the two extremal boundaries inside the same pass (see ``marginals``),
appending each extreme's boundary factors to the walk's and gathering
both rows at once.

``Support.monotone`` records whether the Gibbs measure on the support is
monotone, which lets the worst-case marginals read only the two extremal
boundaries (see ``marginals``).  ``Support.fits`` says whether a miss of
a given free count is sure not to raise ``TooLargeError``, and
``Support.underflows`` whether a positive weight on the support can fall
below the smallest normal double; there the support's 0/1 pattern
(``Support.pattern``), whose products cannot underflow, tells which
boundaries are feasible.
"""

import math
import sys

import numpy as np

from .errors import TooLargeError

ENUM_CAP = 2**22
# A Factors gathers the products of at most this many cells from its table.
# Measured on 2 CPUs for q = 2, 3 and 4, an enumeration took 0.4-1.0x the
# time of a broadcast one from 27 to 1,024 cells (within 2 us below that);
# past it a table, one row of q^k doubles per factor (0.5 MB at q = 2 and
# k = 10), grows faster than the time it saves.
GATHER_CAP = 2**10
# The natural logs of the largest and of the smallest normal double.
_LOG_MAX = math.log(sys.float_info.max)
_LOG_TINY = math.log(sys.float_info.min)


class Factors:
    """The factors of ``system``'s weights over k free axes, for any k.

    ``axes(k)`` is ``(table, field, rows, pairs)``: ``field`` is the field
    product, ``rows[s - 1][j]`` row s of A on axis j, and ``pairs[j1, j2]``
    A across axes j1 < j2.  ``rows[s - 1]`` is None when that row is all
    ones: A is symmetric, so the column is too, and a fixed vertex with
    spin s weighs nothing on its neighbours.  Up to GATHER_CAP cells each
    factor is the id of its row in the read-only ``table`` of shape
    (factors, q^k).  Past it ``table`` is None and each factor a read-only
    array shaped to broadcast over ``(q,) * k``.

    A ``Factors`` holds one table, for the widest K free axes asked for
    (``reserve``, or the first ``axes(K)`` past the widest so far): row 0
    all ones, row j the field product over the first j axes, taken left to
    right as the broadcast path takes it, then the rows of A on each axis
    and A across each pair of axes.  Any k <= K reads it as a view, the
    cells whose last K - k digits are 0, which are the k-axis cells in C
    order: the field is row k and every other id is the same, so ``rows``
    and ``pairs`` are the widest table's.  A wider table renumbers the
    rows, so a product reads its ids from ``axes(k)`` after the last
    ``reserve``.
    """

    __slots__ = ("system", "_live", "_axes", "_widest")

    def __init__(self, system):
        self.system = system
        # The spins whose row of A is not all ones.
        self._live = [s for s, row in enumerate(system.A.tolist()) if row != [1.0] * system.q]
        self._axes = {}
        # ``axes(K)`` of the table (``_table``); None before it is built.
        self._widest = None

    def axes(self, k):
        hit = self._axes.get(k)
        if hit is None:
            q = self.system.q
            if q**k <= GATHER_CAP:
                self.reserve(k)
                table, widest, rows, pairs = self._widest
                hit = (table[:, :: q ** (widest - k)], k, rows, pairs)
            else:
                hit = self._arrays(k)
            self._axes[k] = hit
        return hit

    def reserve(self, k):
        """Build the table now for k free axes, or for as many as
        GATHER_CAP allows, unless one at least as wide exists: a ball frame
        reserves its widest miss when it is built, so its narrower misses
        read views of one table."""
        q = self.system.q
        while q**k > GATHER_CAP:
            k -= 1
        if self._widest is None or k > self._widest[1]:
            self._widest = self._table(k)
            # Views of the narrower table would keep it alive.
            self._axes = {j: hit for j, hit in self._axes.items() if hit[0] is None}

    def _table(self, k):
        """``(table, k, rows, pairs)``: the table over all q^k cells of k
        axes, in C order."""
        q = self.system.q
        A = self.system.A
        live = self._live
        cells = q**k
        digits = np.arange(cells) // (q ** np.arange(k - 1, -1, -1))[:, None] % q
        pairs = [(j1, j2) for j1 in range(k) for j2 in range(j1 + 1, k)]
        j1 = [j for j, _ in pairs]
        j2 = [j for _, j in pairs]
        first = 1 + k + len(live) * k
        table = np.empty((first + len(pairs), cells))
        table[0] = 1.0
        np.multiply.accumulate(self.system.b[digits], axis=0, out=table[1 : k + 1])
        table[k + 1 : first] = A[live].take(digits, axis=1).reshape(-1, cells)
        table[first:] = A[digits[j1], digits[j2]].reshape(-1, cells)
        table.flags.writeable = False
        rows = [None] * q
        for i, s in enumerate(live):
            rows[s] = list(range(k + 1 + i * k, k + 1 + (i + 1) * k))
        return table, k, rows, {pair: first + n for n, pair in enumerate(pairs)}

    def _arrays(self, k):
        q = self.system.q
        b = self.system.b
        A = self.system.A

        def on_axis(a, j):
            return a.reshape((1,) * j + (q,) + (1,) * (k - 1 - j))

        field = np.ones((q,) * k)
        for j in range(k):
            field *= on_axis(b, j)
        field.flags.writeable = False
        rows = [None] * q
        for s in self._live:
            rows[s] = [on_axis(A[s], j) for j in range(k)]
        pairs = {}
        for j1 in range(k):
            for j2 in range(j1 + 1, k):
                shape = (1,) * j1 + (q,) + (1,) * (j2 - j1 - 1) + (q,) + (1,) * (k - 1 - j2)
                pairs[j1, j2] = A.reshape(shape)
        return None, field, rows, pairs

    def products(self, k, factors, tails, scalars):
        """Cell-wise products over k free axes, one row per tail, for one
        or two tails, as an array of shape (len(tails), q^k): row i
        multiplies ``factors``, then ``tails[i]``, one factor after another
        in order, and then ``scalars[i]``."""
        table, field, _, _ = self.axes(k)
        if table is not None:
            # One flat gather for every row, each block closed by a slot for
            # its scalar, written just before the one product; a shorter
            # block is padded with the all-ones row (x * 1.0 == x).
            width = len(factors) + max(map(len, tails)) + 1
            ids = []
            for tail in tails:
                ids += factors
                ids += tail
                ids += [0] * (width - len(factors) - len(tail))
            cells = table.take(ids, axis=0).reshape(len(tails), width, -1)
            for i, scalar in enumerate(scalars):
                cells[i, -1] = scalar
            return np.multiply.reduce(cells, axis=1)
        out = np.empty((len(tails),) + field.shape)
        W = out[:1]
        W[...] = factors[0]
        for f in factors[1:]:
            W *= f
        out[1:] = W
        for i, tail in enumerate(tails):
            Wx = out[i : i + 1]
            for f in tail:
                Wx *= f
        out = out.reshape(len(tails), -1)
        out *= np.array(scalars)[:, None]
        return out


class Support:
    """Compiled enumeration of ``system`` on the vertex set ``vertices`` of
    ``graph``, for any fixed/free split and any order of those vertices.
    Its factors come from ``factors``, a ``Factors`` of the same system
    that other supports may share, or from one of its own.
    ``from_adjacency`` compiles one whose induced neighbour lists are
    already known, reading no graph: every radius-ell ball is compiled so
    (``marginals._compile_ball``), as is the p_v^1 bound's support on a
    ball's labels (``sampler._p1_bound``).  The constructor reads the
    graph, for a support labelled in a caller's own order
    (``conditional_marginal``, ``weight_tensor``'s callers).

    An enumeration reads the support in label space: label i is
    ``vertices[i - 1]`` (``label`` maps back), ``adjacent_labels[i]`` lists
    its neighbours' labels in the graph's order and ``later_labels[i]`` those
    that come after it in vertex order; slot 0 is empty, so a context read
    off the vertices as ``(0, *spins)`` (0: unassigned) is indexed by label.
    """

    __slots__ = (
        "system",
        "vertices",
        "label",
        "adjacent_labels",
        "later_labels",
        "monotone",
        "underflows",
        "factors",
        "_b",
        "_A",
        "_pattern",
    )

    def __init__(self, system, graph, vertices, factors=None):
        vertices = tuple(vertices)
        label = {w: i for i, w in enumerate(vertices, 1)}
        # Neighbor lists come sorted, so the filtered ones stay sorted.
        neighbors = graph._neighbors
        adjacent = [tuple([label[w] for w in neighbors(u) if w in label]) for u in vertices]
        self._compile(system, vertices, label, adjacent, factors)

    @classmethod
    def from_adjacency(cls, system, adjacent, factors=None):
        """The support on labels 1..n whose vertices are those labels, where
        ``adjacent[i - 1]`` is the sorted tuple of label i's neighbours."""
        vertices = tuple(range(1, len(adjacent) + 1))
        compiled = cls.__new__(cls)
        compiled._compile(system, vertices, dict(zip(vertices, vertices)), adjacent, factors)
        return compiled

    def _compile(self, system, vertices, label, adjacent, factors):
        self.system = system
        self.vertices = vertices
        self.label = label
        self.adjacent_labels = [(), *adjacent]
        self.later_labels = [()] + [
            tuple([j for j in nb if u < vertices[j - 1]]) for u, nb in zip(vertices, adjacent)
        ]
        self.monotone = _is_monotone(system.A, self.adjacent_labels)
        self.factors = Factors(system) if factors is None else factors
        # Python floats for the scalar factors: the same doubles, cheaper
        # arithmetic.
        self._b = system.b.tolist()
        self._A = system.A.tolist()
        # The least positive cell product: every factor at its least positive
        # entry, and at most 1.
        low_b = min([x for x in self._b if x > 0.0], default=1.0)
        low_A = min([x for row in self._A for x in row if x > 0.0], default=1.0)
        self.underflows = (
            len(vertices) * math.log(min(low_b, 1.0)) + self._edges() * math.log(min(low_A, 1.0))
            < _LOG_TINY
        )
        self._pattern = None

    def _edges(self):
        return sum(map(len, self.later_labels))

    def pattern(self):
        """This support's labels and adjacency with every positive field and
        interaction entry set to 1, on factors of its own: a cell's product
        there is exactly 1 where its weight is positive and 0 where it is
        zero, in any walk order, and no product or sum of such cells can
        underflow.  It keeps this support's monotone flag, so a miss on it
        scans the same boundaries.  Made on first use."""
        if self._pattern is None:
            system = self.system
            ones = type(system)(system.q, system.b > 0.0, system.A > 0.0, system.label)
            self._pattern = Support.from_adjacency(ones, self.adjacent_labels[1:])
            self._pattern.monotone = self.monotone
        return self._pattern

    def fits(self, k):
        """Whether no miss on this support that frees at most k vertices
        can raise ``TooLargeError``: q^k cells are within ENUM_CAP and no
        weight on the support can overflow or underflow a double.  No
        partial product or sum of a miss exceeds q^n times the product of
        every field and interaction factor on the support's n vertices and
        m edges, each taken at its largest entry and at least 1; it cannot
        underflow unless ``underflows`` says so."""
        q = self.system.q
        if q**k > ENUM_CAP or self.underflows:
            return False
        per_vertex = math.log(max(*self._b, 1.0)) + math.log(q)
        per_edge = math.log(max(*map(max, self._A), 1.0))
        return len(self.vertices) * per_vertex + self._edges() * per_edge <= _LOG_MAX


def _is_monotone(A, adjacent):
    """Whether the Gibbs measure with interaction ``A`` on the graph
    ``adjacent`` is monotone.

    Attractive A (q = 2, A11 * A22 >= A12^2) with no zero entry is monotone
    on any graph.  Repulsive A (A11 * A22 <= A12^2) with at most one zero
    entry, on the diagonal, is monotone on a bipartite graph: flipping the
    spins of one side makes it attractive.
    """
    if A.shape != (2, 2):
        return False
    a11, a12, a22 = A[0, 0], A[0, 1], A[1, 1]
    if a11 > 0 and a12 > 0 and a22 > 0 and a11 * a22 >= a12 * a12:
        return True
    if not (a12 > 0 and max(a11, a22) > 0 and a11 * a22 <= a12 * a12):
        return False
    # Two-colour every component of the support's induced graph, whose
    # label lists ``adjacent`` start with an empty slot 0.
    side = [None] * len(adjacent)
    for root in range(1, len(adjacent)):
        if side[root] is not None:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for w in adjacent[u]:
                if side[w] is None:
                    side[w] = 1 - side[u]
                    stack.append(w)
                elif side[w] == side[u]:
                    return False
    return True


def weight_tensor(compiled, support, fixed):
    """Joint weights of all free-spin assignments on ``support``.

    ``support`` lists any of the compiled support's vertices, in any order.
    Returns ``(free, W)`` where ``free`` lists the unassigned support vertices
    in support order and ``W`` has shape ``(q,) * len(free)``;
    ``W[s_1-1, ..., s_k-1]`` is the weight of the induced configuration on
    G[support], with ``fixed`` vertices pinned; fixed spins and edges outside
    ``support`` are not read.  Interactions between two fixed vertices enter
    as a scalar factor, so an infeasible pinned pair zeroes the whole tensor.
    """
    label = compiled.label
    walk = [label[v] for v in support]
    digits = [0] * len(compiled.adjacent_labels)
    free = []
    for v, u in zip(support, walk):
        s = fixed.get(v)
        if s is None:
            free.append(v)
        else:
            digits[u] = s
    W = weight_rows(compiled, [label[v] for v in free], walk, digits)
    return free, W.reshape((compiled.system.q,) * len(free))


def weight_rows(compiled, free, walk, digits, extremes=None):
    """One enumeration of the free labels ``free``, axes in that order,
    with the spins ``digits`` pinned: an array of shape (1, q^k), the cells
    of one row, or of shape (2, q^k), two rows, with ``extremes``.

    ``digits[i]`` is the spin pinned at label i, or 0; ``walk`` lists
    every free and pinned label once, and ``digits`` pins exactly the
    walk's pinned labels.  Each edge is read from its end earlier in vertex
    order (``Support.later_labels``), in walk order; labels in neither are
    left out, with their edges.  The field and every interaction factor that
    is not all ones are collected in walk order, and the fields of the
    pinned spins, in walk order, and the interactions between two of them
    as one scalar.  ``Factors.products`` takes every row: up to GATHER_CAP
    cells as one block each of one flat gather from the factor table, the
    scalar in its last slot, and one ``np.multiply.reduce``; past it by
    broadcasting, scaled afterwards, which gives the same bits.

    With ``extremes``, a list of labels outside the walk (the free sphere
    of a monotone ball), the result has two rows, one per extremal boundary:
    every label of ``extremes`` spin 1, or every one spin 2, except that a
    spin s with A_ss = 0 yields to the other spin next to a pinned label of
    spin s.  Each extreme appends its own factors to the walk's: A's row on
    each free neighbour of an extreme, and, to its own scalar, the field of
    each extreme and its interaction with each pinned or extreme neighbour,
    one factor per edge.  Both products are taken at once.  Without
    ``extremes`` there is one row.
    """
    q = compiled.system.q
    k = len(free)
    if q**k > ENUM_CAP:
        raise TooLargeError(
            f"enumeration of {q}^{k} assignments exceeds the {ENUM_CAP} cap"
        )
    b = compiled._b
    A = compiled._A
    # One code per label: the spin s >= 1 of a pinned label (its digit),
    # ~j < 0 for the free label on axis j, and 0 off the walk.
    codes = list(digits)
    for j, w in enumerate(free):
        codes[w] = ~j
    scalar = 1.0
    for u in walk:
        s = digits[u]
        if s:
            scalar *= b[s - 1]
    _, field, rows, pairs = compiled.factors.axes(k)
    factors = [field]
    append = factors.append
    later = compiled.later_labels
    for u in walk:
        cu = codes[u]
        if cu > 0:
            Au = A[cu - 1]
            row = rows[cu - 1]
            for w in later[u]:
                cw = codes[w]
                if not cw:
                    continue  # outside the walk
                if cw > 0:
                    scalar *= Au[cw - 1]
                elif row is not None:
                    append(row[~cw])
        else:
            ju = ~cu
            for w in later[u]:
                cw = codes[w]
                if not cw:
                    continue
                if cw > 0:
                    if rows[cw - 1] is not None:
                        append(rows[cw - 1][ju])
                else:
                    # A is symmetric, so the pair factor on axes (j1, j2) is
                    # A itself whichever endpoint comes first; w's axis ~cw
                    # is the later one exactly where cw < cu.
                    append(pairs[ju, ~cw] if cw < cu else pairs[~cw, ju])
    if extremes is None:
        return compiled.factors.products(k, factors, ((),), (scalar,))
    # flip_x: where spin x yields (A_xx = 0), next to a pinned spin x.
    adjacent = compiled.adjacent_labels
    flip1 = flip2 = ()
    if A[0][0] == 0.0:
        flip1 = {w for u in walk if digits[u] == 1 for w in adjacent[u]}
    if A[1][1] == 0.0:
        flip2 = {w for u in walk if digits[u] == 2 for w in adjacent[u]}
    tail1 = []
    tail2 = []
    scalar1 = scalar2 = scalar
    for w in extremes:
        # The index of each extreme's spin at w into b, A and rows.
        s1 = 1 if w in flip1 else 0
        s2 = 0 if w in flip2 else 1
        scalar1 *= b[s1]
        scalar2 *= b[s2]
        A1 = A[s1]
        A2 = A[s2]
        row1 = rows[s1]
        row2 = rows[s2]
        for u in adjacent[w]:
            c = codes[u]
            if not c:
                if u in later[w]:
                    # Both ends pinned by the extreme: one factor per edge.
                    scalar1 *= A1[1 if u in flip1 else 0]
                    scalar2 *= A2[0 if u in flip2 else 1]
            elif c < 0:
                if row1 is not None:
                    tail1.append(row1[~c])
                if row2 is not None:
                    tail2.append(row2[~c])
            else:
                scalar1 *= A1[c - 1]
                scalar2 *= A2[c - 1]
    return compiled.factors.products(k, factors, (tail1, tail2), (scalar1, scalar2))
