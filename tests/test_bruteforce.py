"""Compiled enumeration against the uncompiled reference, bit for bit.

``Support`` compiles a support's edge walk once and reads its factors from
a ``Factors``; ``weight_tensor`` then runs one fixed/free pattern.
``reference_weight_tensor`` below is the enumeration as it was before
compiling: it walks the graph on every call and multiplies every factor
into the tensor in turn.  One compiled support must serve many contexts and
support orders and give the reference's free list and weights exactly, on
either side of the cut-over between gathered and broadcast products.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssms import FiniteGraph, SpinSystem, coloring, hardcore, ising
from ssms import bruteforce
from ssms.bruteforce import ENUM_CAP, Factors, Support, weight_tensor
from ssms.errors import TooLargeError

# Non-unit fields on every spin, an all-ones row for spin 1, and entries
# other than 0 and 1 elsewhere, so a skipped or reordered factor shows in
# the last bits.
THREE_SPIN = SpinSystem(
    3, [0.7, 1.3, 2.1], [[1.0, 1.0, 1.0], [1.0, 0.3, 1.7], [1.0, 1.7, 2.9]], label="three-spin"
)
SYSTEMS = (hardcore(0.7), ising(1.5), coloring(3), THREE_SPIN)

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def reference_weight_tensor(system, graph, support, fixed):
    q = system.q
    free = [v for v in support if v not in fixed]
    k = len(free)
    pos = {v: j for j, v in enumerate(free)}
    b = system.b
    A = system.A

    def on_axis(vec, j):
        return vec.reshape((1,) * j + (q,) + (1,) * (k - 1 - j))

    W = np.ones((q,) * k)
    scalar = 1.0
    for v in support:
        if v in fixed:
            scalar *= b[fixed[v] - 1]
    for j in range(k):
        W *= on_axis(b, j)

    in_support = set(support)
    for u in support:
        for w in graph.neighbors(u):
            if w not in in_support or not u < w:
                continue
            u_fixed, w_fixed = u in fixed, w in fixed
            if u_fixed and w_fixed:
                scalar *= A[fixed[u] - 1, fixed[w] - 1]
            elif u_fixed:
                W *= on_axis(A[fixed[u] - 1, :], pos[w])
            elif w_fixed:
                W *= on_axis(A[:, fixed[w] - 1], pos[u])
            else:
                ju, jw = pos[u], pos[w]
                j1, j2 = (ju, jw) if ju < jw else (jw, ju)
                M = A if ju < jw else A.T
                W *= M.reshape(
                    (1,) * j1 + (q,) + (1,) * (j2 - j1 - 1) + (q,) + (1,) * (k - 1 - j2)
                )
    if scalar != 1.0:
        W = W * scalar
    return free, W


def _bits(W):
    W = np.asarray(W)
    return W.shape, W.dtype, W.tobytes()


def _subset(data, size):
    # One flag per element, so large supports and dense graphs, where the
    # order of the factors shows, are drawn often.
    return [data.draw(st.booleans()) for _ in range(size)]


def check_against_reference(data, shared=False):
    """Draw a graph, a support compiled on part of it (on a shared
    ``Factors``, or one-shot) and eight contexts and orders, and hold
    ``weight_tensor`` to the reference; return the compiled support."""
    system = data.draw(st.sampled_from(SYSTEMS))
    # Labels past 8 make a neighbour list read from a set come out of order.
    n = data.draw(st.integers(1, 11))
    pairs = [(u, w) for u in range(1, n + 1) for w in range(u + 1, n + 1)]
    graph = FiniteGraph(n, [e for e, k in zip(pairs, _subset(data, len(pairs))) if k])
    vertices = [v for v, k in zip(range(1, n + 1), _subset(data, n)) if k][:8]
    compiled = Support(system, graph, vertices, Factors(system, shared=True) if shared else None)
    for _ in range(8):
        support = data.draw(st.permutations(vertices))
        # Fixed spins may also name vertices outside the support, which
        # neither enumeration reads.
        spins = data.draw(st.lists(st.integers(1, system.q), min_size=n, max_size=n))
        fixed = {v: s for v, s, k in zip(range(1, n + 1), spins, _subset(data, n)) if k}
        free, W = weight_tensor(compiled, support, fixed)
        ref_free, ref_W = reference_weight_tensor(system, graph, support, fixed)
        assert free == ref_free
        assert _bits(W) == _bits(ref_W)
    check_memoized_factors(compiled)
    return compiled


def check_memoized_factors(compiled):
    """Every memoized factor is read-only and, spread over all cells, still
    the plain product or the row or pair of A that it names."""
    system = compiled.system
    q = system.q
    factors = compiled.factors
    for k, (table, field, rows, pairs) in factors._axes.items():
        assert (table is None) == (not factors.shared or q**k > bruteforce.GATHER_CAP)

        def cells(f):
            if table is None:
                assert not f.flags.writeable
            return factors.products(k, [f])[0].reshape((q,) * k)

        isolated = FiniteGraph(max(k, 1), [])
        _, plain = reference_weight_tensor(system, isolated, list(range(1, k + 1)), {})
        assert _bits(cells(field)) == _bits(plain)
        for s, row in enumerate(rows):
            assert (row is None) == bool(np.all(system.A[s] == 1.0))
            for j, f in enumerate(row or ()):
                want = system.A[s].reshape((1,) * j + (q,) + (1,) * (k - 1 - j))
                assert _bits(cells(f)) == _bits(np.broadcast_to(want, (q,) * k))
        if table is not None:
            assert not table.flags.writeable
            assert sorted(pairs) == [(j1, j2) for j1 in range(k) for j2 in range(j1 + 1, k)]
        for (j1, j2), f in pairs.items():
            want = system.A.reshape(
                (1,) * j1 + (q,) + (1,) * (j2 - j1 - 1) + (q,) + (1,) * (k - 1 - j2)
            )
            assert _bits(cells(f)) == _bits(np.broadcast_to(want, (q,) * k))


@PROPERTY
@given(data=st.data())
def test_compiled_support_matches_reference(data):
    # A one-shot support: every product broadcast.
    compiled = check_against_reference(data)
    assert all(table is None for table, *_ in compiled.factors._axes.values())


@pytest.mark.parametrize("gather_cap", [bruteforce.GATHER_CAP, ENUM_CAP], ids=["cut-over", "gathered"])
@PROPERTY
@given(data=st.data())
def test_shared_factors_match_reference(gather_cap, data):
    # Shared factors gather up to the cut-over and broadcast past it (q = 3
    # and 8 free vertices make 6,561 cells); then every product gathered.
    with mock.patch.object(bruteforce, "GATHER_CAP", gather_cap):
        check_against_reference(data, shared=True)


def test_enumeration_past_the_cap_raises_before_allocating():
    # 2^23 cells would take 64 MB for the tensor alone, more for a table.
    n = 23
    graph = FiniteGraph(n, [(v, v + 1) for v in range(1, n)])
    system = ising(1.5)
    compiled = Support(system, graph, graph.vertices(), Factors(system, shared=True))
    tracemalloc.start()
    try:
        with pytest.raises(TooLargeError, match=r"2\^23 assignments"):
            weight_tensor(compiled, list(graph.vertices()), {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert compiled.factors._axes == {}


@PROPERTY
@given(data=st.data())
def test_narrowed_tables_equal_fresh_ones(data):
    # A shared Factors builds one full table, for the widest free count
    # asked for so far, and serves every narrower k from its first q^k
    # columns.  Each product on such a table must equal, bit for bit, the
    # same product on a fresh table built for k alone, whatever the order
    # of the requests and whether a width was reserved first.
    q = data.draw(st.sampled_from([2, 3, 4]))
    entry = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.05, 3.0))
    A = np.zeros((q, q))
    for i in range(q):
        for j in range(i, q):
            A[i, j] = A[j, i] = data.draw(entry)
    b = [data.draw(st.floats(0.05, 3.0)) for _ in range(q)]
    system = SpinSystem(q, b, A)
    widths = [k for k in range(11) if q**k <= bruteforce.GATHER_CAP]
    order = data.draw(st.sampled_from(["ascending", "descending", "mixed"]))
    if order == "mixed":
        widths = data.draw(st.permutations(widths))
    elif order == "descending":
        widths = widths[::-1]
    shared = Factors(system, shared=True)
    reserved = data.draw(st.sampled_from([None, *widths]))
    if reserved is not None:
        shared.reserve(reserved)
    for k in widths:
        fresh = Factors(system, shared=True)
        fresh.reserve(k)
        got, want = shared.axes(k), fresh.axes(k)
        assert [ids is None for ids in got[2]] == [ids is None for ids in want[2]]
        assert sorted(got[3]) == sorted(want[3])
        # A factor by name: the field, row s of A on axis j, or A across a
        # pair of axes; each table gives it its own id.
        names = [("field",)]
        names += [("row", s, j) for s, ids in enumerate(want[2]) if ids for j in range(k)]
        names += [("pair", *pair) for pair in want[3]]

        def ids(axes, picked):
            _, field, rows, pairs = axes
            return [
                field if n[0] == "field" else rows[n[1]][n[2]] if n[0] == "row" else pairs[n[1:]]
                for n in picked
            ]

        for _ in range(3):
            factors = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=6))
            tails = data.draw(
                st.lists(st.lists(st.sampled_from(names), max_size=3), min_size=1, max_size=2)
            )
            W = shared.products(k, ids(got, factors), [ids(got, t) for t in tails])
            ref = fresh.products(k, ids(want, factors), [ids(want, t) for t in tails])
            assert _bits(W) == _bits(ref)
    assert len(shared._digits) == max(widths if reserved is None else [reserved, *widths])
