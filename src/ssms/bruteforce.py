"""Vectorized exhaustive enumeration of spin assignments on small supports.

The joint weight over a support is materialized as a dense tensor with one
axis of length q per free vertex; field and interaction factors are applied
by broadcasting, so no index arrays are ever built.  Enumeration refuses
more than q^k = 2^22 assignments.

Enumeration is split in two.  ``Support`` compiles what does not depend on
the fixed spins: each vertex's later neighbours inside the support, the
spins whose interaction row is all ones, and the field tensor for each free
count.  ``weight_tensor`` then takes one fixed/free pattern and support
order.  A caller that enumerates one support many times (a ball frame of
the sampler's marginal cache) compiles it once; every other caller compiles
a one-shot support.  A call copies the memoized field tensor and multiplies
only the interaction factors that are not all ones; since x * 1.0 == x,
the weights are bit-identical to multiplying every factor in turn.
"""

import numpy as np

from .errors import TooLargeError

ENUM_CAP = 2**22


class Support:
    """Compiled enumeration of ``system`` on the vertex set ``vertices`` of
    ``graph``, for any fixed/free split and any order of those vertices."""

    __slots__ = ("system", "later", "unit", "_fields")

    def __init__(self, system, graph, vertices):
        members = set(vertices)
        self.system = system
        self.later = {
            u: tuple(sorted(w for w in graph.neighbors(u) if w in members and u < w))
            for u in members
        }
        # Spins s whose row A[s-1, :] is all ones; A is symmetric, so the
        # column is too.  A fixed vertex with such a spin weighs nothing on
        # its neighbours.
        self.unit = frozenset(
            s for s in range(1, system.q + 1) if bool(np.all(system.A[s - 1] == 1.0))
        )
        self._fields = {}

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


def weight_tensor(compiled, support, fixed):
    """Joint weights of all free-spin assignments on ``support``.

    ``support`` lists the compiled support's vertices in any order.  Returns
    ``(free, W)`` where ``free`` lists the unassigned support vertices in
    support order and ``W`` has shape ``(q,) * len(free)``;
    ``W[s_1-1, ..., s_k-1]`` is the weight of the induced configuration on
    G[support], with ``fixed`` vertices pinned.  Interactions between two
    fixed vertices enter as a scalar factor, so an infeasible pinned pair
    zeroes the whole tensor.
    """
    later = compiled.later
    system = compiled.system
    q = system.q
    free = [v for v in support if v not in fixed]
    k = len(free)
    if q**k > ENUM_CAP:
        raise TooLargeError(
            f"enumeration of {q}^{k} assignments exceeds the {ENUM_CAP} cap"
        )
    pos = {v: j for j, v in enumerate(free)}
    b = system.b
    A = system.A
    unit = compiled.unit

    def on_axis(vec, j):
        return vec.reshape((1,) * j + (q,) + (1,) * (k - 1 - j))

    scalar = 1.0
    for v in support:
        if v in fixed:
            scalar *= b[fixed[v] - 1]
    W = compiled.field(k).copy()

    for u in support:
        su = fixed.get(u)
        for w in later[u]:
            sw = fixed.get(w)
            if su is not None:
                if sw is not None:
                    scalar *= A[su - 1, sw - 1]
                elif su not in unit:
                    W *= on_axis(A[su - 1], pos[w])
            elif sw is not None:
                if sw not in unit:
                    W *= on_axis(A[sw - 1], pos[u])
            else:
                # A is symmetric, so the pair factor on axes (j1, j2) is A
                # itself whichever endpoint comes first.
                ju, jw = pos[u], pos[w]
                j1, j2 = (ju, jw) if ju < jw else (jw, ju)
                W *= A.reshape(
                    (1,) * j1 + (q,) + (1,) * (j2 - j1 - 1) + (q,) + (1,) * (k - 1 - j2)
                )
    if scalar != 1.0:
        W = W * scalar
    return free, W
