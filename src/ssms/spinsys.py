"""Spin systems: vertex fields, symmetric pair interactions, and weights.

A system is (q, b, A): q >= 2 spin values 1..q, a field vector b of length q,
and a symmetric nonnegative interaction matrix A.  The weight of a full
configuration sigma on a finite vertex set is

    prod_v b(sigma_v) * prod_{(u,v) in E} A(sigma_u, sigma_v),

with every induced undirected edge counted exactly once.
"""

import math

import numpy as np

from .bruteforce import Support, weight_tensor
from .errors import (
    DegenerateSystemError,
    FiniteOnlyError,
    InfeasibleContextError,
    MissingSpinError,
    ModelParameterError,
    RepeatedVertexError,
    check_count,
    is_integer,
    is_real,
)

# Weights must stay representable in double precision through products over
# desk-scale supports; models with more extreme parameters are rejected.
MAX_LOG_WEIGHT = 200.0


class SpinSystem:
    """Immutable spin system (q, b, A) with spins 1..q."""

    __slots__ = ("q", "b", "A", "label")

    def __init__(self, q, b, A, label="custom"):
        check_count(q, 2, "number of spin values q")
        b = np.asarray(b, dtype=float)
        A = np.asarray(A, dtype=float)
        if b.shape != (q,):
            raise ModelParameterError(f"field vector must have shape ({q},)")
        if A.shape != (q, q):
            raise ModelParameterError(f"interaction matrix must have shape ({q},{q})")
        if np.any(b < 0) or np.any(A < 0):
            raise ModelParameterError("field and interaction entries must be >= 0")
        if not np.array_equal(A, A.T):
            raise ModelParameterError("interaction matrix must be symmetric")
        if not np.any(b > 0):
            raise ModelParameterError("at least one spin must have positive field")
        for x in np.concatenate([b, A.ravel()]):
            if x > 0 and abs(math.log(x)) > MAX_LOG_WEIGHT:
                raise ModelParameterError(
                    f"weight entry {x} outside exp(+/-{MAX_LOG_WEIGHT}) range"
                )
        b.flags.writeable = False
        A.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):
        raise AttributeError("SpinSystem is immutable")

    def __repr__(self):
        return f"SpinSystem(q={self.q}, label={self.label!r})"


def hardcore(lam):
    """Hard-core gas: spin 1 = unoccupied, spin 2 = occupied with activity lam.

    Adjacent occupied vertices are forbidden.
    """
    if not is_real(lam) or not lam > 0:
        raise ModelParameterError(f"hardcore activity must be a positive real, got {lam!r}")
    return SpinSystem(
        2,
        [1.0, float(lam)],
        [[1.0, 1.0], [1.0, 0.0]],
        label=f"hardcore(lambda={lam:g})",
    )


def ising(lam):
    """Ferromagnetic Ising model: agreeing neighbors weighted lam >= 1."""
    if not is_real(lam) or not lam >= 1:
        raise ModelParameterError(f"ising edge weight must be a real >= 1, got {lam!r}")
    return SpinSystem(
        2,
        [1.0, 1.0],
        [[float(lam), 1.0], [1.0, float(lam)]],
        label=f"ising(lambda={lam:g})",
    )


def coloring(q):
    """Uniform proper q-colorings: adjacent equal spins are forbidden."""
    check_count(q, 2, "number of colors q")
    return SpinSystem(
        q,
        np.ones(q),
        np.ones((q, q)) - np.eye(q),
        label=f"coloring(q={q})",
    )


class PartialConfiguration:
    """Immutable assignment of 1-based spins to finitely many vertices,
    insertion ordered."""

    __slots__ = ("_spins",)

    def __init__(self, assignments=()):
        spins = {}
        items = assignments.items() if hasattr(assignments, "items") else assignments
        for v, s in items:
            _check_spin(v, s)
            if v in spins:
                raise ModelParameterError(f"vertex {v!r} assigned twice")
            spins[v] = s
        self._spins = spins

    @classmethod
    def _wrap(cls, spins):
        out = object.__new__(cls)
        out._spins = spins
        return out

    def spin(self, v):
        try:
            return self._spins[v]
        except KeyError:
            raise MissingSpinError(f"vertex {v!r} is unassigned") from None

    def items(self):
        return tuple(self._spins.items())

    def as_dict(self):
        return dict(self._spins)

    def __contains__(self, v):
        return v in self._spins

    def __len__(self):
        return len(self._spins)

    def __eq__(self, other):
        if isinstance(other, PartialConfiguration):
            return self._spins == other._spins
        return NotImplemented

    def __repr__(self):
        inner = ", ".join(f"{v!r}: {s}" for v, s in self._spins.items())
        return f"PartialConfiguration({{{inner}}})"


def _check_spin(v, s, q=None):
    """Raise ``ModelParameterError`` unless ``s`` is an integer spin in 1..q
    (any positive integer without ``q``)."""
    if not is_integer(s) or s < 1 or (q is not None and s > q):
        kind = "a positive integer" if q is None else f"an integer in 1..{q}"
        raise ModelParameterError(f"spin at {v!r} must be {kind}, got {s!r}")


def checked_context(system, graph, fixed):
    """The context ``fixed`` (None, a mapping or a PartialConfiguration) as a
    new dict, once every key is a vertex of ``graph`` and every spin an
    integer in 1..q."""
    spins = fixed.as_dict() if isinstance(fixed, PartialConfiguration) else dict(fixed or {})
    for v, s in spins.items():
        graph.check_vertex(v)
        _check_spin(v, s, system.q)
    return spins


def check_positive_weight(system, graph, spins):
    """Raise ``InfeasibleContextError`` unless the assignment ``spins`` (a
    checked context) has positive weight on its own fields and edges.

    Each factor is tested on its own rather than multiplied out, so a long
    assignment whose weight underflows a double still passes.
    """
    b = system.b
    A = system.A
    fmt = graph.format_vertex
    for v, s in spins.items():
        if b[s - 1] == 0.0:
            raise InfeasibleContextError(f"vertex {fmt(v)} has spin {s}, whose field is 0")
        for w in graph._neighbors(v):
            t = spins.get(w)
            if t is not None and A[s - 1, t - 1] == 0.0:
                raise InfeasibleContextError(
                    f"neighbours {fmt(v)} and {fmt(w)} cannot hold spins {s} and {t}"
                )


def _distinct(support):
    """The set of the listed ``support``; a vertex listed twice is an error."""
    members = set(support)
    if len(members) != len(support):
        raise RepeatedVertexError("support lists a vertex more than once")
    return members


def config_weight(system, graph, config, support=None):
    """Weight of a full configuration on ``support`` (default: its domain).

    Counts each induced edge of G[support] once.
    """
    spins = checked_context(system, graph, config)
    if support is None:
        support = sorted(spins)
    support = list(support)
    for v in support:
        graph.check_vertex(v)
        if v not in spins:
            raise MissingSpinError(f"vertex {v!r} has no spin assigned")
    b = system.b
    A = system.A
    weight = 1.0
    in_support = _distinct(support)
    for v in support:
        weight *= b[spins[v] - 1]
        for w in graph._neighbors(v):
            if w in in_support and v < w:
                weight *= A[spins[v] - 1, spins[w] - 1]
    return weight


def partition_function(system, graph):
    """Total weight of all q^|V| configurations of a finite graph."""
    if not graph.is_finite():
        raise FiniteOnlyError("partition function requires a finite graph")
    support = list(graph.vertices())
    _, W = weight_tensor(Support(system, graph, support), support, {})
    z = float(W.sum())
    if z <= 0.0:
        raise DegenerateSystemError(
            "no configuration has positive weight (partition function is zero)"
        )
    return z


def is_feasible(system, graph, config, support):
    """True when some extension of ``config`` to ``support`` has positive weight."""
    spins = checked_context(system, graph, config)
    support = list(support)
    for v in support:
        graph.check_vertex(v)
    if not set(spins) <= _distinct(support):
        raise MissingSpinError("configuration assigns vertices outside the support")
    fixed = {v: spins[v] for v in support if v in spins}
    _, W = weight_tensor(Support(system, graph, support), support, fixed)
    return bool(W.max() > 0.0)
