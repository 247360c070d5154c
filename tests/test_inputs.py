"""Bad input fails before any work, with the package's own errors.

Counts (radii, sizes, degrees, budgets) and seeds are ints that are not bools;
spins are ints in 1..q; a context's keys are vertices of the graph.
"""

import pytest

from ssms import (
    FiniteGraph,
    Lattice,
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
