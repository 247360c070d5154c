"""Vectorized exhaustive enumeration of spin assignments on small supports.

The joint weight over a support is materialized as a dense tensor with one
axis of length q per free vertex; field and interaction factors are applied
by broadcasting, so no index arrays are ever built.  Enumeration refuses
more than q^k = 2^22 assignments.

Enumeration is split in two.  ``Support`` compiles what does not depend on
the fixed spins: each vertex's neighbours inside the support and, for each
free count, the field tensor and the interaction factors shaped to
broadcast, with the all-ones rows marked.  ``weight_tensor`` then takes one
fixed/free pattern and support order, on the whole compiled support or on
any part of it: it enumerates the subgraph induced by the vertices it is
given and reads no edge leaving them.  A caller that enumerates one support
many times (a ball frame of the sampler's marginal cache) compiles it once;
every other caller compiles a one-shot support.  A call copies the memoized
field tensor and multiplies only the interaction factors that are not all
ones; since x * 1.0 == x, the weights are bit-identical to multiplying
every factor in turn.  ``scaled_weights`` is the same enumeration with the
pinned spins' scalar factor kept apart, for a caller that goes on to pin
more vertices (the extremal boundaries of ``marginals``).

``Support.monotone`` also records whether the Gibbs measure on the support
is monotone, which lets the worst-case marginals read only the two
extremal boundaries (see ``marginals``).
"""

import numpy as np

from .errors import TooLargeError

ENUM_CAP = 2**22


class Support:
    """Compiled enumeration of ``system`` on the vertex set ``vertices`` of
    ``graph``, for any fixed/free split and any order of those vertices."""

    __slots__ = ("system", "adjacent", "later", "monotone", "_b", "_A", "_fields", "_axes")

    def __init__(self, system, graph, vertices):
        members = set(vertices)
        self.system = system
        # Neighbor lists come sorted, so the filtered ones stay sorted.
        self.adjacent = {
            u: tuple(w for w in graph._neighbors(u) if w in members) for u in members
        }
        self.later = {u: tuple(w for w in nb if u < w) for u, nb in self.adjacent.items()}
        self.monotone = _is_monotone(system.A, self.adjacent)
        # Python floats for the scalar factors: the same doubles, cheaper
        # arithmetic.
        self._b = system.b.tolist()
        self._A = system.A.tolist()
        self._fields = {}
        self._axes = {}

    def field(self, k):
        """Read-only product of the field vector over k free axes."""
        W = self._fields.get(k)
        if W is None:
            q = self.system.q
            b = self.system.b
            W = np.ones((q,) * k)
            for j in range(k):
                W *= b.reshape((1,) * j + (q,) + (1,) * (k - 1 - j))
            W.flags.writeable = False
            self._fields[k] = W
        return W

    def axes(self, k):
        """Interaction factors shaped for k free axes: ``rows[s - 1][j]`` is
        row s of A on axis j, and ``pairs`` maps axes j1 < j2 to A across
        them, filled on first use.

        ``rows[s - 1]`` is None when that row is all ones: A is symmetric,
        so the column is too, and a fixed vertex with spin s weighs nothing
        on its neighbours.
        """
        hit = self._axes.get(k)
        if hit is None:
            q = self.system.q
            rows = [
                None if np.all(a == 1.0)
                else [a.reshape((1,) * j + (q,) + (1,) * (k - 1 - j)) for j in range(k)]
                for a in self.system.A
            ]
            hit = self._axes[k] = (rows, {})
        return hit


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
    # Two-colour every component of the support's induced graph.
    side = {}
    for root in adjacent:
        if root in side:
            continue
        side[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for w in adjacent[u]:
                if w not in side:
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
    free, W, scalar = scaled_weights(compiled, support, fixed)
    if scalar != 1.0:
        W = W * scalar
    return free, W


def scaled_weights(compiled, support, fixed):
    """``weight_tensor`` as ``(free, W, scalar)`` with the weights
    ``scalar * W``: the fields of the pinned spins and the interactions
    between two of them are left in ``scalar``, for a caller that multiplies
    in more factors before scaling."""
    later = compiled.later
    q = compiled.system.q
    b = compiled._b
    A = compiled._A
    scalar = 1.0
    pinned = {}
    pos = {}
    for v in support:
        s = fixed.get(v)
        if s is None:
            pos[v] = len(pos)
        else:
            pinned[v] = s
            scalar *= b[s - 1]
    free = list(pos)
    k = len(free)
    if q**k > ENUM_CAP:
        raise TooLargeError(
            f"enumeration of {q}^{k} assignments exceeds the {ENUM_CAP} cap"
        )
    rows, pairs = compiled.axes(k)
    W = compiled.field(k).copy()

    for u in support:
        su = pinned.get(u)
        for w in later[u]:
            sw = pinned.get(w)
            if sw is None:
                jw = pos.get(w)
                if jw is None:
                    continue  # outside the support
            if su is not None:
                if sw is not None:
                    scalar *= A[su - 1][sw - 1]
                elif rows[su - 1] is not None:
                    W *= rows[su - 1][jw]
            elif sw is not None:
                if rows[sw - 1] is not None:
                    W *= rows[sw - 1][pos[u]]
            else:
                # A is symmetric, so the pair factor on axes (j1, j2) is A
                # itself whichever endpoint comes first.
                ju = pos[u]
                axes = (ju, jw) if ju < jw else (jw, ju)
                P = pairs.get(axes)
                if P is None:
                    j1, j2 = axes
                    P = pairs[axes] = compiled.system.A.reshape(
                        (1,) * j1 + (q,) + (1,) * (j2 - j1 - 1) + (q,) + (1,) * (k - 1 - j2)
                    )
                W *= P
    return free, W, scalar
