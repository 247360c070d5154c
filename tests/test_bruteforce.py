"""Compiled enumeration against the uncompiled reference, bit for bit.

``Support`` compiles a support's edge walk, its all-ones interaction rows
and its field tensors once; ``weight_tensor`` then runs one fixed/free
pattern.  ``reference_weight_tensor`` below is the enumeration as it was
before compiling: it walks the graph on every call and multiplies every
factor.  One compiled support must serve many contexts and support orders
and give the reference's free list and weights exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ssms import FiniteGraph, SpinSystem, coloring, hardcore, ising
from ssms.bruteforce import Support, weight_tensor

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


@PROPERTY
@given(data=st.data())
def test_compiled_support_matches_reference(data):
    system = data.draw(st.sampled_from(SYSTEMS))
    # Labels past 8 make a neighbour list read from a set come out of order.
    n = data.draw(st.integers(1, 11))
    pairs = [(u, w) for u in range(1, n + 1) for w in range(u + 1, n + 1)]
    graph = FiniteGraph(n, [e for e, k in zip(pairs, _subset(data, len(pairs))) if k])
    vertices = [v for v, k in zip(range(1, n + 1), _subset(data, n)) if k][:8]
    compiled = Support(system, graph, vertices)
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
    # Every memoized field tensor is read-only and still the plain product.
    for k, field in compiled._fields.items():
        assert not field.flags.writeable
        isolated = FiniteGraph(max(k, 1), [])
        _, plain = reference_weight_tensor(system, isolated, list(range(1, k + 1)), {})
        assert _bits(field) == _bits(plain)

