"""Bad input fails before any work, with the package's own errors.

Counts (radii, sizes, degrees, budgets) and seeds are ints that are not bools;
spins are ints in 1..q; a context's keys and a window's vertices are
vertices of the graph.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssms import (
    FiniteGraph,
    Lattice,
    LineGraph,
    RandomSource,
    RegularTree,
    SpinSystem,
    WindowSampler,
    box_occupation,
    branching_bound,
    coloring,
    conditional_marginal,
    config_weight,
    cycle_graph,
    estimate_mixing_rate,
    hardcore,
    hardcore_box_bracket,
    hardcore_radius1_bound,
    is_feasible,
    min_marginals,
    mixing_rate_estimate,
    path_graph,
)
from ssms.errors import InvalidVertexError, ModelParameterError
from ssms.graph import LocalGraph

SYSTEM = hardcore(1.0)
GRAPH = path_graph(3)

# name -> (context on the path 1-2-3 leaving vertex 2 free, expected error)
BAD_CONTEXTS = {
    "float spin": ({1: 1.0}, ModelParameterError),
    "bool spin": ({1: True}, ModelParameterError),
    "spin q+1": ({1: 3}, ModelParameterError),
    "off-graph key": ({9: 1}, InvalidVertexError),
}

ENTRY_POINTS = {
    "sample_window": lambda ctx: WindowSampler(SYSTEM, GRAPH, 1).sample_window([2], 7, ctx),
    "min_marginals": lambda ctx: min_marginals(SYSTEM, GRAPH, ctx, 2, 1),
    "mixing_rate_estimate": lambda ctx: mixing_rate_estimate(SYSTEM, GRAPH, 2, 1, ctx),
    "conditional_marginal": lambda ctx: conditional_marginal(SYSTEM, GRAPH, 2, ctx, [1, 2, 3]),
    "is_feasible": lambda ctx: is_feasible(SYSTEM, GRAPH, ctx, [1, 2, 3]),
    "config_weight": lambda ctx: config_weight(SYSTEM, GRAPH, {2: 1, 3: 1, **ctx}),
}

# name -> call with one count argument
COUNT_SITES = {
    "growth_bound": lambda x: Lattice(2).growth_bound(x),
    "sphere": lambda x: Lattice(2).sphere((0, 0), x),
    "ball_interior": lambda x: Lattice(2).ball_interior((0, 0), x),
    "sphere_and_interior": lambda x: Lattice(2).sphere_and_interior((0, 0), x),
    "FiniteGraph": lambda x: FiniteGraph(x, []),
    "Lattice": lambda x: Lattice(x),
    "RegularTree": lambda x: RegularTree(x),
    "cycle_graph": lambda x: cycle_graph(x),
    "SpinSystem": lambda x: SpinSystem(x, [1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]]),
    "coloring": lambda x: coloring(x),
    "branching_bound": lambda x: branching_bound(SYSTEM, Lattice(2), x, {x: 0.5}),
    "estimate_mixing_rate": lambda x: estimate_mixing_rate(SYSTEM, GRAPH, [x]),
    "budget": lambda x: WindowSampler(SYSTEM, GRAPH, 1, budget=x),
    "hardcore_radius1_bound": lambda x: hardcore_radius1_bound(0.1, x),
    "box_occupation": lambda x: box_occupation(0.5, x, 3, site=(0, 0)),
    "hardcore_box_bracket": lambda x: hardcore_box_bracket(0.5, x),
}


def _misses(cases):
    """Describe each (label, call, expected error) case that does not raise
    exactly its expected error."""
    missed = []
    for label, run, error in cases:
        try:
            got = run()
        except error:
            continue
        except Exception as exc:
            missed.append(f"{label}: {type(exc).__name__}: {exc}")
        else:
            missed.append(f"{label}: accepted, returned {got!r}")
    return missed


def test_every_entry_point_rejects_every_bad_context():
    cases = [
        (f"{entry} / {name}", lambda run=run, ctx=ctx: run(ctx), error)
        for entry, run in ENTRY_POINTS.items()
        for name, (ctx, error) in BAD_CONTEXTS.items()
    ]
    assert _misses(cases) == []


def test_every_count_site_rejects_a_float_and_a_bool():
    cases = [
        (f"{name}({bad!r})", lambda run=run, bad=bad: run(bad), ModelParameterError)
        for name, run in COUNT_SITES.items()
        for bad in (1.5, True)
    ]
    assert _misses(cases) == []


def test_a_seed_must_be_an_integer():
    sampler = WindowSampler(SYSTEM, GRAPH, 1)
    sites = {
        "RandomSource": RandomSource,
        "sample_window": lambda seed: sampler.sample_window([2], seed),
    }
    cases = [
        (f"{name}({bad!r})", lambda run=run, bad=bad: run(bad), ModelParameterError)
        for name, run in sites.items()
        for bad in (7.9, 7.0, True, "12", None)
    ]
    assert _misses(cases) == []


def test_ssms_checks_its_context_before_drawing():
    rng = RandomSource(7)
    with pytest.raises(ModelParameterError):
        WindowSampler(SYSTEM, GRAPH, 1).sample_window([2], rng, {1: True})
    assert rng.counter == 0


class SubInt(int):
    """An int subclass that is not a bool: a valid coordinate."""


# graph name -> (graph, two good vertices, {case: bad vertex}).  A tree
# vertex is a path of any length, so the tree has no wrong-length case.
BAD_WINDOW_VERTICES = {
    "Lattice(2)": (
        Lattice(2),
        [(0, 0), (1, 0)],
        {
            "float coordinate": (0, 1.0),
            "bool coordinate": (0, True),
            "numpy.int64 coordinate": (0, np.int64(1)),
            "wrong length": (0, 1, 2),
            "list": [0, 1],
            "off-graph": "(0,1)",
        },
    ),
    "FiniteGraph": (
        FiniteGraph(4, [(1, 2), (2, 3), (3, 4)]),
        [1, 3],
        {
            "float": 2.0,
            "bool": True,
            "numpy.int64": np.int64(2),
            "wrong length": (2,),
            "list": [2],
            "off-graph": 5,
        },
    ),
    "RegularTree(3)": (
        RegularTree(3),
        [(), (0, 1)],
        {
            "float coordinate": (0, 1.0),
            "bool coordinate": (0, True),
            "numpy.int64 coordinate": (0, np.int64(1)),
            "list": [0, 1],
            "off-graph": (0, 2),
        },
    ),
    "LineGraph(Lattice(2))": (
        LineGraph(Lattice(2)),
        [((0, 0), (0, 1)), ((0, 0), (1, 0))],
        {
            "float coordinate": ((0, 0), (0, 1.0)),
            "bool coordinate": ((0, 0), (0, True)),
            "numpy.int64 coordinate": ((0, 0), (0, np.int64(1))),
            "wrong length": ((0, 0), (0, 1), (0, 2)),
            "list": [(0, 0), (0, 1)],
            "off-graph": ((0, 0), (1, 1)),
        },
    ),
}

# graph name -> a good vertex with a non-bool int subclass in it
SUBCLASS_VERTICES = {
    "Lattice(2)": (0, SubInt(1)),
    "FiniteGraph": SubInt(2),
    "RegularTree(3)": (1, SubInt(0)),
    "LineGraph(Lattice(2))": ((1, SubInt(0)), (1, 1)),
}


def test_every_bad_window_vertex_is_rejected_by_name():
    missed = []
    for name, (graph, (first, last), bad_vertices) in BAD_WINDOW_VERTICES.items():
        sampler = WindowSampler(SYSTEM, graph, 1)
        for case, bad in bad_vertices.items():
            try:
                sampler.sample_window([first, bad, last], 7)
            except InvalidVertexError as exc:
                if repr(bad) not in str(exc):
                    missed.append(f"{name} / {case}: message {exc} does not name {bad!r}")
            except Exception as exc:
                missed.append(f"{name} / {case}: {type(exc).__name__}: {exc}")
            else:
                missed.append(f"{name} / {case}: accepted {bad!r}")
    assert missed == []


@pytest.mark.parametrize("name", sorted(SUBCLASS_VERTICES))
def test_an_int_subclass_coordinate_is_a_good_vertex(name):
    graph, (first, last), _ = BAD_WINDOW_VERTICES[name]
    good = SUBCLASS_VERTICES[name]
    # a small activity, so the run on Z^2's line graph (degree 6) is short
    spins, _ = WindowSampler(hardcore(0.05), graph, 1).sample_window([first, good, last], 7)
    assert good in spins


def _coordinates():
    return st.one_of(
        st.integers(-3, 3),
        st.integers(-3, 3).map(SubInt),
        st.integers(-3, 3).map(np.int64),
        st.booleans(),
        st.floats(-3, 3),
    )


def _spoil(data, v):
    """v with one part changed: a coordinate of any kind (maybe still a
    good one), one coordinate fewer or more, a list, or a bare coordinate.
    A line-graph vertex has one of its endpoints spoiled."""
    kind = data.draw(st.sampled_from(["coordinate", "shorter", "longer", "list", "bare"]))
    if kind == "bare" or not (isinstance(v, tuple) and v):
        return data.draw(_coordinates())
    i = data.draw(st.integers(0, len(v) - 1))
    if kind == "coordinate":
        part = _spoil(data, v[i]) if isinstance(v[i], tuple) else data.draw(_coordinates())
        return v[:i] + (part,) + v[i + 1:]
    if kind == "shorter":
        return v[:i] + v[i + 1:]
    if kind == "longer":
        return v + (v[i],)
    return list(v)


def _points(n):
    return st.tuples(*[st.integers(-3, 3)] * n)


# graph name -> (graph, strategy for good vertices)
WINDOW_GRAPHS = {
    "Lattice(2)": (Lattice(2), _points(2)),
    "Lattice(3)": (Lattice(3), _points(3)),
    "FiniteGraph": (FiniteGraph(4, [(1, 2), (2, 3), (3, 4)]), st.integers(1, 4)),
    "RegularTree(3)": (RegularTree(3), st.lists(st.integers(0, 1), max_size=3).map(tuple)),
    "LineGraph(Lattice(2))": (
        LineGraph(Lattice(2)),
        st.tuples(_points(2), st.booleans()).map(
            lambda t: (t[0], (t[0][0] + t[1], t[0][1] + 1 - t[1]))
        ),
    ),
}


def _outcome(check, window):
    try:
        check(window)
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("name", sorted(WINDOW_GRAPHS))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_window_check_equals_the_per_vertex_loop(name, data):
    # The one-pass check accepts exactly the windows the per-vertex loop
    # accepts, and raises the loop's error for every other window.
    graph, good = WINDOW_GRAPHS[name]
    window = data.draw(st.lists(good, min_size=1, max_size=6))
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(window) - 1))
        window[i] = _spoil(data, window[i])
    assert _outcome(graph.check_vertices, window) == _outcome(
        lambda w: LocalGraph.check_vertices(graph, w), window
    )
