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
    MissingSpinError,
    ModelParameterError,
)

# Weights must stay representable in double precision through products over
# desk-scale supports; models with more extreme parameters are rejected.
MAX_LOG_WEIGHT = 200.0


class SpinSystem:
    """Immutable spin system (q, b, A) with spins 1..q."""

    __slots__ = ("q", "b", "A", "label")

    def __init__(self, q, b, A, label="custom"):
        q = int(q)
        if q < 2:
            raise ModelParameterError(f"need at least 2 spin values, got q={q}")
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
    if not lam > 0:
        raise ModelParameterError(f"hardcore activity must be positive, got {lam}")
    return SpinSystem(
        2,
        [1.0, float(lam)],
        [[1.0, 1.0], [1.0, 0.0]],
        label=f"hardcore(lambda={lam:g})",
    )


def ising(lam):
    """Ferromagnetic Ising model: agreeing neighbors weighted lam >= 1."""
    if not lam >= 1:
        raise ModelParameterError(f"ising edge weight must be >= 1, got {lam}")
    return SpinSystem(
        2,
        [1.0, 1.0],
        [[float(lam), 1.0], [1.0, float(lam)]],
        label=f"ising(lambda={lam:g})",
    )


def coloring(q):
    """Uniform proper q-colorings: adjacent equal spins are forbidden."""
    if q < 2:
        raise ModelParameterError(f"coloring needs q >= 2, got {q}")
    return SpinSystem(
        q,
        np.ones(q),
        np.ones((q, q)) - np.eye(q),
        label=f"coloring(q={q})",
    )


class PartialConfiguration:
    """Assignment of 1-based spins to finitely many vertices, insertion ordered.

    Value semantics: ``with_spin`` returns a new object and never mutates.
    """

    __slots__ = ("_spins",)

    def __init__(self, assignments=()):
        spins = {}
        items = assignments.items() if hasattr(assignments, "items") else assignments
        for v, s in items:
            if not isinstance(s, int) or isinstance(s, bool) or s < 1:
                raise ModelParameterError(f"spin at {v!r} must be a 1-based int, got {s!r}")
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

    def domain(self):
        return tuple(self._spins)

    def items(self):
        return tuple(self._spins.items())

    def with_spin(self, v, s):
        if v in self._spins:
            raise ModelParameterError(f"vertex {v!r} already assigned")
        if not isinstance(s, int) or isinstance(s, bool) or s < 1:
            raise ModelParameterError(f"spin at {v!r} must be a 1-based int, got {s!r}")
        spins = dict(self._spins)
        spins[v] = s
        return PartialConfiguration._wrap(spins)

    def restrict(self, vertices):
        keep = set(vertices)
        return PartialConfiguration._wrap(
            {v: s for v, s in self._spins.items() if v in keep}
        )

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


def as_spin_dict(config):
    """Normalize a PartialConfiguration or mapping to a plain dict."""
    if config is None:
        return {}
    if isinstance(config, PartialConfiguration):
        return config.as_dict()
    return dict(config)


def _check_spins(system, spins):
    for v, s in spins.items():
        if not 1 <= s <= system.q:
            raise ModelParameterError(
                f"spin {s} at {v!r} outside 1..{system.q}"
            )


def config_weight(system, graph, config, support=None):
    """Weight of a full configuration on ``support`` (default: its domain).

    Counts each induced edge of G[support] once.
    """
    spins = as_spin_dict(config)
    _check_spins(system, spins)
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
    in_support = set(support)
    for v in support:
        weight *= b[spins[v] - 1]
        for w in graph.neighbors(v):
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
    spins = as_spin_dict(config)
    _check_spins(system, spins)
    support = list(support)
    for v in support:
        graph.check_vertex(v)
    domain = set(spins)
    if not domain <= set(support):
        raise MissingSpinError("configuration assigns vertices outside the support")
    fixed = {v: spins[v] for v in support if v in spins}
    _, W = weight_tensor(Support(system, graph, support), support, fixed)
    return bool(W.max() > 0.0)
