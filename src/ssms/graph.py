"""Lazy, locally finite graphs.

Four realizations share one query interface: finite edge lists, the integer
lattice Z^d, the (Delta)-regular infinite tree, and line graphs of any of
these.  Vertices are plain ints for finite graphs and tuples of ints
otherwise; line-graph vertices are ordered endpoint pairs.  All queries are
pure and return canonically ordered (sorted) results, so repeated calls with
equal arguments give identical output.
"""

import math
import re
from abc import ABC, abstractmethod
from itertools import chain, repeat
from operator import add

from .errors import (
    ConfigError,
    InvalidVertexError,
    UnsupportedRealizationError,
    check_count,
    is_integer,
)

# ``format_bounded`` writes a vertex of more than FORMAT_MAX coordinates as
# its first and last FORMAT_ENDS.
FORMAT_MAX = 64
FORMAT_ENDS = 8


class LocalGraph(ABC):
    """Immutable graph exposing neighborhoods on demand.

    Subclasses implement ``_neighbors``, membership and the degree bound;
    infinite ones also give their sphere-size formula.  Breadth-first sphere
    and ball queries, the finite growth scan and the tuple vertex encoding
    are shared.
    """

    kind = "abstract"

    def neighbors(self, v):
        """Sorted tuple of the neighbors of ``v``."""
        self.check_vertex(v)
        return self._neighbors(v)

    @abstractmethod
    def _neighbors(self, v):
        """``neighbors`` without validating ``v``: for vertices the package
        generated itself, such as a breadth-first search's."""

    @abstractmethod
    def __contains__(self, v):
        ...

    def growth_bound(self, ell):
        """Upper bound on ``|sphere(v, ell)|`` valid for every vertex ``v``."""
        check_count(ell, 0, "radius")
        if ell == 0:
            return 1
        if not self.is_finite():
            return self._growth_formula(ell)
        # Finite realizations scan every vertex's sphere, once per radius.
        cache = self.__dict__.setdefault("_growth_cache", {})
        if ell not in cache:
            cache[ell] = max(len(self.sphere(v, ell)) for v in self.vertices())
        return cache[ell]

    def _growth_formula(self, ell):
        """``growth_bound`` for ``ell >= 1`` on an infinite realization."""
        raise UnsupportedRealizationError(f"{self.kind} graph has no growth formula")

    @abstractmethod
    def degree_bound(self):
        """Maximum vertex degree."""

    def is_finite(self):
        return False

    def vertices(self):
        """All vertices in canonical order (finite realizations only)."""
        raise UnsupportedRealizationError(
            f"{self.kind} graph has no finite vertex enumeration"
        )

    def check_vertex(self, v):
        if v not in self:
            raise InvalidVertexError(f"not a vertex of this {self.kind} graph: {v!r}")

    def check_vertices(self, vertices):
        """``check_vertex`` on each of ``vertices`` in order, so a bad one
        raises exactly as it would alone.  Realizations override it with a
        one-pass test of the common case that falls back to this loop."""
        for v in vertices:
            self.check_vertex(v)

    def _layers(self, v, ell):
        """Breadth-first layers [L_0, ..., L_ell], each sorted; L_0 = [v]."""
        self.check_vertex(v)
        check_count(ell, 0, "radius")
        seen = {v}
        layers = [[v]]
        frontier = [v]
        for _ in range(ell):
            nxt = []
            for u in frontier:
                for w in self._neighbors(u):
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            nxt.sort()
            layers.append(nxt)
            frontier = nxt
        return layers

    def sphere(self, v, ell):
        """Vertices at graph distance exactly ``ell`` from ``v``, sorted."""
        return tuple(self._layers(v, ell)[ell])

    def ball_interior(self, v, ell):
        """Vertices at distance < ``ell`` from ``v``, sorted canonically."""
        layers = self._layers(v, check_count(ell, 1, "radius") - 1)
        return tuple(sorted(u for layer in layers for u in layer))

    def sphere_and_interior(self, v, ell):
        """``(sphere(v, ell), ball_interior(v, ell))`` from one breadth-first search."""
        layers = self._layers(v, check_count(ell, 1, "radius"))
        interior = sorted(u for layer in layers[:-1] for u in layer)
        return tuple(layers[-1]), tuple(interior)

    def ball(self, v, ell):
        """Closed ball of radius ``ell``: interior plus sphere, sorted."""
        layers = self._layers(v, ell)
        return tuple(sorted(u for layer in layers for u in layer))

    def ball_class(self, v):
        """Hashable class of ``v`` under the realization's exact symmetries.

        Vertices of one class have sorted balls that are translates of each
        other, element for element, and equal marginals under translated
        contexts; marginal caches share entries within a class.  Default:
        no symmetry, every vertex is its own class.
        """
        return v

    def translate(self, vertices, v0, v):
        """Map ``vertices`` around ``v0`` onto the corresponding vertices
        around ``v``, a vertex of the same ball class, keeping their order.

        Realizations with nontrivial classes override this with the symmetry
        their ``ball_class`` rests on.  Default: every class is a single
        vertex, so v is v0 and ``vertices`` map to themselves.
        """
        if v != v0:
            raise UnsupportedRealizationError(
                f"{self.kind} graph has no symmetry taking {v0!r} to {v!r}"
            )
        return tuple(vertices)

    def format_vertex(self, v):
        return _format_vertex(v)

    def format_bounded(self, v):
        """``format_vertex(v)`` for a vertex of at most FORMAT_MAX
        coordinates; a longer one (a deep tree path) is cut to its first
        and last FORMAT_ENDS coordinates around "..." plus its coordinate
        count, so a message naming it stays short."""
        if isinstance(v, tuple) and len(v) > FORMAT_MAX:
            head = ",".join(map(_format_vertex, v[:FORMAT_ENDS]))
            tail = ",".join(map(_format_vertex, v[-FORMAT_ENDS:]))
            return f"({head},...,{tail}; {len(v)} coordinates)"
        return self.format_vertex(v)

    def parse_vertex(self, text):
        v = self._parse_vertex(text)
        self.check_vertex(v)
        return v

    def _parse_vertex(self, text):
        return _parse_tuple_vertex(text)


def _format_vertex(v):
    if isinstance(v, tuple):
        return "(" + ",".join(_format_vertex(c) for c in v) + ")"
    return str(v)


def _split_top_level(text):
    """Split on commas not nested inside parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ConfigError(f"unbalanced parentheses in vertex text: {text!r}")
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise ConfigError(f"unbalanced parentheses in vertex text: {text!r}")
    parts.append(text[start:])
    return parts


def _parse_tuple_vertex(text):
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ConfigError(f"expected a parenthesized vertex, got {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return ()
    out = []
    for part in _split_top_level(inner):
        part = part.strip()
        if part.startswith("("):
            out.append(_parse_tuple_vertex(part))
        else:
            try:
                out.append(int(part))
            except ValueError:
                raise ConfigError(f"bad vertex component {part!r} in {text!r}") from None
    return tuple(out)


class FiniteGraph(LocalGraph):
    """Simple undirected graph on vertices 1..n given by an edge list."""

    kind = "finite"

    def __init__(self, n, edges):
        check_count(n, 1, "vertex count")
        adj = {v: set() for v in range(1, n + 1)}
        seen = set()
        for u, w in edges:
            if not (is_integer(u) and is_integer(w) and 1 <= u <= n and 1 <= w <= n):
                raise InvalidVertexError(f"edge endpoint out of range: ({u},{w})")
            if u == w:
                raise ConfigError(f"self-loop at vertex {u} rejected")
            key = (min(u, w), max(u, w))
            if key in seen:
                raise ConfigError(f"parallel edge ({u},{w}) rejected")
            seen.add(key)
            adj[u].add(w)
            adj[w].add(u)
        self._n = n
        self._adj = {v: tuple(sorted(nb)) for v, nb in adj.items()}
        self._edges = tuple(sorted(seen))

    @property
    def n(self):
        return self._n

    @property
    def edges(self):
        return self._edges

    def _neighbors(self, v):
        return self._adj[v]

    def __contains__(self, v):
        return is_integer(v) and 1 <= v <= self._n

    def check_vertices(self, vertices):
        # Plain ints in range pass in C-level loops; anything else, such as
        # an int subclass, takes the per-vertex loop.
        if not vertices or (
            set(map(type, vertices)) == {int}
            and 1 <= min(vertices)
            and max(vertices) <= self._n
        ):
            return
        super().check_vertices(vertices)

    def is_finite(self):
        return True

    def vertices(self):
        return tuple(range(1, self._n + 1))

    def degree_bound(self):
        return max((len(nb) for nb in self._adj.values()), default=0)

    def _parse_vertex(self, text):
        try:
            return int(text.strip())
        except ValueError:
            raise ConfigError(f"bad finite-graph vertex {text!r}") from None


class Lattice(LocalGraph):
    """The integer lattice Z^d with nearest-neighbor adjacency."""

    kind = "lattice"

    def __init__(self, dim):
        self._dim = check_count(dim, 1, "lattice dimension")

    @property
    def dim(self):
        return self._dim

    def _neighbors(self, v):
        # Emitted sorted: v - e_0 < ... < v - e_{d-1} < v + e_{d-1} < ... < v + e_0.
        x = list(v)
        out = []
        d = self._dim
        for i in range(d):
            x[i] -= 1
            out.append(tuple(x))
            x[i] += 1
        for i in range(d - 1, -1, -1):
            x[i] += 1
            out.append(tuple(x))
            x[i] -= 1
        return tuple(out)

    def __contains__(self, v):
        return isinstance(v, tuple) and len(v) == self._dim and all(map(is_integer, v))

    def check_vertices(self, vertices):
        # Tuples of dim plain ints pass in C-level loops; anything else, such
        # as an int-subclass coordinate, takes the per-vertex loop.
        if set(map(type, vertices)) <= {tuple} and (
            set(map(len, vertices)) <= {self._dim}
            and set(map(type, chain.from_iterable(vertices))) <= {int}
        ):
            return
        super().check_vertices(vertices)

    def _growth_formula(self, ell):
        # Exact count of lattice points at L1 distance ell from the origin.
        d = self._dim
        return sum(
            2**k * math.comb(d, k) * math.comb(ell - 1, k - 1)
            for k in range(1, min(d, ell) + 1)
        )

    def degree_bound(self):
        return 2 * self._dim

    def ball_class(self, v):
        # Translations preserve every marginal and the lexicographic order,
        # so the sorted ball of v is the origin's shifted by v: one class.
        return None

    def translate(self, vertices, v0, v):
        # Shift each coordinate column by its offset and zip the columns back
        # into vertices: C-level loops in any dimension.
        columns = zip(zip(*vertices), v0, v)
        return tuple(zip(*[map(add, column, repeat(b - a)) for column, a, b in columns]))

    def box(self, origin, shape):
        """Vertices of an axis-aligned box, canonically ordered."""
        dim = self._dim
        if not all(isinstance(x, (tuple, list)) and len(x) == dim for x in (origin, shape)):
            raise ConfigError(f"box origin and sides must be {dim} integers each")
        if not all(map(is_integer, (*origin, *shape))):
            raise ConfigError(f"box origin and sides must be integers, got {origin}, {shape}")
        if any(s < 1 for s in shape):
            raise ConfigError(f"box side lengths must be positive, got {shape}")
        ranges = [range(o, o + s) for o, s in zip(origin, shape)]
        out = [()]
        for r in ranges:
            out = [prefix + (c,) for prefix in out for c in r]
        return tuple(sorted(out))


class RegularTree(LocalGraph):
    """The infinite Delta-regular tree.

    Vertices are root-to-vertex child-index paths: the root is the empty
    tuple, its children are (0,), ..., (Delta-1,), and every other vertex has
    Delta-1 children indexed 0..Delta-2.
    """

    kind = "tree"

    def __init__(self, degree):
        self._degree = check_count(degree, 2, "tree degree")

    @property
    def degree(self):
        return self._degree

    def _neighbors(self, v):
        d = self._degree
        if v == ():
            return tuple((j,) for j in range(d))
        # The parent is a prefix of v, so it sorts before every child.
        return (v[:-1],) + tuple(v + (j,) for j in range(d - 1))

    def __contains__(self, v):
        if not isinstance(v, tuple):
            return False
        d = self._degree
        for i, c in enumerate(v):
            if not is_integer(c):
                return False
            limit = d if i == 0 else d - 1
            if not 0 <= c < limit:
                return False
        return True

    def _growth_formula(self, ell):
        return self._degree * (self._degree - 1) ** (ell - 1)

    def degree_bound(self):
        return self._degree


class LineGraph(LocalGraph):
    """Line graph of a base realization.

    Vertices are edges of the base graph encoded as ordered pairs (u, w) with
    u < w canonically; two edge-vertices are adjacent when they share an
    endpoint.
    """

    kind = "line"

    def __init__(self, base):
        if not isinstance(base, LocalGraph):
            raise UnsupportedRealizationError("line graph needs a LocalGraph base")
        if base.degree_bound() is None:
            raise UnsupportedRealizationError(
                "line graph base must have a finite degree bound"
            )
        self._base = base

    @property
    def base(self):
        return self._base

    def _neighbors(self, v):
        # The edges at u, read in the sorted order of u's neighbors, are
        # sorted, and so are w's; the only edge at both is v itself, so the
        # sort merges two runs with no duplicate.
        u, w = v
        adjacent = self._base._neighbors
        out = [(x, u) if x < u else (u, x) for x in adjacent(u) if x != w]
        out += [(x, w) if x < w else (w, x) for x in adjacent(w) if x != u]
        out.sort()
        return tuple(out)

    def __contains__(self, v):
        if not (isinstance(v, tuple) and len(v) == 2):
            return False
        u, w = v
        if u not in self._base or w not in self._base:
            return False
        if not u < w:
            return False
        return w in self._base._neighbors(u)

    def is_finite(self):
        return self._base.is_finite()

    def vertices(self):
        base = self._base
        out = set()
        for u in base.vertices():
            for w in base._neighbors(u):
                out.add((u, w) if u < w else (w, u))
        return tuple(sorted(out))

    def _growth_formula(self, ell):
        # Every edge at line-graph distance ell from e has an endpoint at base
        # distance exactly ell-1 from one of e's endpoints, and each such
        # vertex meets at most Delta edges.
        return 2 * self._base.degree_bound() * self._base.growth_bound(ell - 1)

    def degree_bound(self):
        return 2 * (self._base.degree_bound() - 1)

    def ball_class(self, v):
        # Over Z^d a translation by v[0] maps the edge v to the edge at the
        # origin with the same direction; edges of different directions have
        # different balls, so the direction is the class.
        if isinstance(self._base, Lattice):
            u, w = v
            return tuple(b - a for a, b in zip(u, w))
        return v

    def translate(self, vertices, v0, v):
        # Move both endpoints of each edge by the base symmetry that takes
        # v0's first endpoint to v's; it preserves the endpoint order.
        ends = self._base.translate(chain.from_iterable(vertices), v0[0], v[0])
        return tuple(zip(ends[::2], ends[1::2]))

    def _parse_vertex(self, text):
        pair = _parse_tuple_vertex(text)
        if len(pair) != 2:
            raise ConfigError(f"line-graph vertex must be an endpoint pair: {text!r}")
        return pair


def load_edge_list(path):
    """Read a finite graph from an edge-list file.

    Format: first line ``n m``, then m lines ``u v`` with 1-based vertex ids.
    Self-loops and parallel edges are rejected.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            tokens = fh.read().split()
    except OSError as exc:
        raise ConfigError(f"cannot read edge-list file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"edge-list file {path} is not ASCII text") from None
    if len(tokens) < 2:
        raise ConfigError(f"edge-list file {path} is missing the 'n m' header")
    try:
        n, m = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ConfigError(f"bad 'n m' header in {path}") from None
    body = tokens[2:]
    if len(body) != 2 * m:
        raise ConfigError(
            f"edge-list file {path} declares {m} edges but lists {len(body) // 2}"
        )
    try:
        edges = [(int(body[2 * i]), int(body[2 * i + 1])) for i in range(m)]
    except ValueError:
        raise ConfigError(f"non-integer edge endpoint in {path}") from None
    return FiniteGraph(n, edges)


def path_graph(n):
    """Path on vertices 1..n."""
    return FiniteGraph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n):
    """Cycle on vertices 1..n (n >= 3)."""
    check_count(n, 3, "cycle vertex count")
    return FiniteGraph(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def grid_graph(rows, cols):
    """rows x cols grid; vertex (r, c) is numbered r * cols + c + 1, row-major."""
    def vid(r, c):
        return r * cols + c + 1

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return FiniteGraph(rows * cols, edges)


def complete_graph(n):
    """Complete graph on vertices 1..n."""
    return FiniteGraph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def star_graph(leaves):
    """Star with center 1 and the given number of leaves."""
    return FiniteGraph(leaves + 1, [(1, j) for j in range(2, leaves + 2)])


def petersen_graph():
    """The Petersen graph (3-regular, 10 vertices)."""
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    return FiniteGraph(10, outer + spokes + inner)


_GRAPH_SPEC_RE = re.compile(r"^z(\d+)$")


def graph_from_spec(spec):
    """Build a graph from a CLI-style spec string.

    Accepted forms: ``z2`` (any ``z<d>``), ``tree:<degree>``, ``file:<path>``,
    and ``line:<spec>`` wrapping any of the former.
    """
    spec = spec.strip()
    if spec.startswith("line:"):
        return LineGraph(graph_from_spec(spec[len("line:"):]))
    m = _GRAPH_SPEC_RE.match(spec)
    if m:
        return Lattice(int(m.group(1)))
    if spec.startswith("tree:"):
        try:
            degree = int(spec[len("tree:"):])
        except ValueError:
            raise ConfigError(f"bad tree degree in graph spec {spec!r}") from None
        return RegularTree(degree)
    if spec.startswith("file:"):
        return load_edge_list(spec[len("file:"):])
    raise ConfigError(f"unrecognized graph spec {spec!r}")
