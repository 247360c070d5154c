"""Branching bounds, indecision inequality, and goodness of fit."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

from ssms import (
    Lattice,
    WindowSampler,
    branching_bound,
    coloring,
    cycle_graph,
    estimate_mixing_rate,
    goodness_of_fit,
    hardcore,
    hardcore_radius1_bound,
    ising,
    lemma1_check,
    path_graph,
    petersen_graph,
    star_graph,
    verify_tree_bound,
)
from ssms.errors import (
    DegenerateSupportError,
    DimensionMismatchError,
    InsufficientSamplesError,
    MissingRateError,
    ModelParameterError,
)


def test_branching_bound_arithmetic():
    rate = {1: 0.1}
    b = branching_bound(hardcore(1.0), Lattice(2), 1, rate)
    assert b.q == 2 and b.f == 0.1 and b.g == 4
    assert b.alpha == pytest.approx(0.8)
    assert b.contractive
    assert b.expected_calls == pytest.approx(5.0)


def test_branching_bound_not_contractive():
    rate = {1: 0.2}
    b = branching_bound(hardcore(1.0), Lattice(2), 1, rate)
    assert b.alpha == pytest.approx(1.6)
    assert not b.contractive
    assert b.expected_calls == math.inf


def test_branching_bound_needs_rate_entry():
    rate = {2: 0.1}
    with pytest.raises(MissingRateError):
        branching_bound(hardcore(1.0), Lattice(2), 1, rate)
    # the radius is a count >= 1 and the rate a real number >= 0
    with pytest.raises(ModelParameterError, match="radius"):
        branching_bound(hardcore(1.0), Lattice(2), 0, {0: 0.1})
    for f in (-0.1, math.nan, "a", None, True):
        with pytest.raises(ModelParameterError, match="mixing rate"):
            branching_bound(hardcore(1.0), Lattice(2), 1, {1: f})
    assert branching_bound(hardcore(1.0), Lattice(2), 1, {1: 0}).f == 0.0
    assert branching_bound(hardcore(1.0), Lattice(2), 1, {1: np.float64(0.1)}).f == 0.1


def test_branching_bound_monotone_in_rate_and_growth():
    alphas = []
    for f in (0.05, 0.1, 0.2):
        rate = {1: f}
        alphas.append(branching_bound(hardcore(1.0), Lattice(2), 1, rate).alpha)
    assert alphas == sorted(alphas)
    rate = {1: 0.05}
    a2 = branching_bound(hardcore(1.0), Lattice(2), 1, rate).alpha
    a3 = branching_bound(hardcore(1.0), Lattice(3), 1, rate).alpha
    assert a2 < a3


def test_hardcore_radius1_bound():
    assert hardcore_radius1_bound(0.2, 3) == pytest.approx(2.0)
    assert hardcore_radius1_bound(0.5, 3) == math.inf
    assert hardcore_radius1_bound(0.9, 3) == math.inf
    # strictly increasing in the activity below the threshold
    values = [hardcore_radius1_bound(lam, 3) for lam in (0.1, 0.2, 0.3, 0.45)]
    assert values == sorted(values) and values[-1] < math.inf
    assert hardcore_radius1_bound(0.2, 4) > hardcore_radius1_bound(0.2, 3)
    for lam in (0.0, "a", None, True):
        with pytest.raises(ModelParameterError):
            hardcore_radius1_bound(lam, 3)
    with pytest.raises(ModelParameterError):
        hardcore_radius1_bound(0.2, 1)


def fake_runs(counts):
    return [SimpleNamespace(total_calls=c) for c in counts]


def test_verify_tree_bound_pass_and_fail():
    ok = verify_tree_bound(fake_runs([1] * 600 + [3] * 400), 2.0)
    assert ok.passed and ok.runs == 1000
    assert ok.mean_calls == pytest.approx(1.8)
    assert ok.margin > 0

    bad = verify_tree_bound(fake_runs([3] * 1000), 2.0)
    assert not bad.passed
    assert bad.margin == pytest.approx(-1.0)


def test_verify_tree_bound_accepts_branching_bound():
    rate = {1: 0.1}
    bound = branching_bound(hardcore(1.0), Lattice(2), 1, rate)
    res = verify_tree_bound(fake_runs([4] * 1000), bound.expected_calls)
    assert res.limit == pytest.approx(5.0)
    assert res.passed
    # the limit is a real >= 0, not the bound that carries it
    for limit in (bound, "a", None, True, -1.0, float("nan")):
        with pytest.raises(ModelParameterError):
            verify_tree_bound(fake_runs([4] * 1000), limit)


def test_verify_tree_bound_needs_enough_runs():
    with pytest.raises(InsufficientSamplesError):
        verify_tree_bound(fake_runs([1] * 999), 2.0)


def test_verify_tree_bound_on_z2_at_radius_three():
    # ising(1.2) on Z^2 is contractive at radius 3 (alpha about 0.50), so
    # the paper's bound 1 / (1 - alpha) on the expected calls applies.
    system, z2 = ising(1.2), Lattice(2)
    bound = branching_bound(system, z2, 3, estimate_mixing_rate(system, z2, [3]))
    assert bound.contractive
    assert bound.alpha == pytest.approx(0.503, abs=1e-3)
    sampler = WindowSampler(system, z2, 3, budget=10**5)
    runs = [sampler.sample_window([(0, 0)], seed)[1] for seed in range(2000)]
    check = verify_tree_bound(runs, bound.expected_calls)
    assert check.passed
    assert check.runs == 2000


def test_lemma1_check_path_center():
    res = lemma1_check(hardcore(1.0), path_graph(3), {}, 2, 1)
    assert res.passed
    assert res.p_zero == pytest.approx(0.5)
    assert res.rate == pytest.approx(0.5)
    assert res.bound == pytest.approx(1.0)


def test_lemma1_check_isolated_vertex():
    from ssms import FiniteGraph

    res = lemma1_check(hardcore(1.0), FiniteGraph(1, []), {}, 1, 1)
    assert res.passed
    assert res.p_zero == 0.0 and res.bound == 0.0


def test_lemma1_check_antipodal_family_is_tight():
    # two adjacent vertices under proper coloring: each boundary spin wipes
    # out one color, the zone takes all the mass, and the bound exceeds it
    # by exactly the factor q/(q-1)
    for q in (3, 4, 6):
        res = lemma1_check(coloring(q), path_graph(2), {}, 1, 1)
        assert res.passed
        assert res.p_zero == pytest.approx(1.0)
        assert res.rate == pytest.approx(1.0 / (q - 1))
        assert res.bound == pytest.approx(q / (q - 1))


def test_default_matrix_tree_bounds():
    # every contractive cell of the default model matrix on max-degree-3
    # graphs must beat its own branching bound empirically
    models = [hardcore(0.1), hardcore(0.2), ising(1.0), ising(1.2), coloring(6)]
    graphs = [path_graph(4), cycle_graph(5), star_graph(3), petersen_graph()]
    checked = 0
    for system in models:
        for graph in graphs:
            rate = estimate_mixing_rate(system, graph, [1])
            bound = branching_bound(system, graph, 1, rate)
            if not bound.contractive:
                continue
            sampler = WindowSampler(system, graph, 1)
            v = next(iter(graph.vertices()))
            runs = [sampler.sample_window([v], seed)[1] for seed in range(1000)]
            res = verify_tree_bound(runs, bound.expected_calls)
            assert res.passed, (system.label, graph.kind, res)
            if system.label == "ising(lambda=1)":
                assert all(r.total_calls == 1 for r in runs)
            checked += 1
    assert checked >= 10


def test_goodness_of_fit_exact_match():
    st = goodness_of_fit([200, 200, 100], [0.4, 0.4, 0.2])
    assert st.chi_square == 0.0
    assert st.tv_distance == 0.0
    assert st.p_value == 1.0
    assert st.dof == 2
    assert sum(st.observed) == st.n == 500


def test_goodness_of_fit_matches_reference_statistic():
    obs = [4980, 5020]
    st = goodness_of_fit(obs, [0.5, 0.5])
    ref = scipy.stats.chisquare(obs)
    assert st.chi_square == pytest.approx(ref.statistic, abs=1e-12)
    assert st.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    obs = [17, 26, 31, 26]
    exact = [0.2, 0.25, 0.3, 0.25]
    st = goodness_of_fit(obs, exact)
    ref = scipy.stats.chisquare(obs, [p * 100 for p in exact])
    assert st.chi_square == pytest.approx(ref.statistic, abs=1e-12)
    assert st.p_value == pytest.approx(ref.pvalue, abs=1e-12)
    assert st.tv_distance == pytest.approx(
        0.5 * sum(abs(o / 100 - p) for o, p in zip(obs, exact)), abs=1e-12
    )


def test_goodness_of_fit_pools_rare_outcomes():
    exact = [0.5, 0.493, 0.004, 0.003]
    counts = [501, 489, 6, 4]
    st = goodness_of_fit(counts, exact)
    assert st.pooled_outcomes == 2
    assert st.buckets == 3
    assert st.dof == 2
    assert sum(st.observed) == 1000
    # the pooled bucket carries the combined mass of both rare outcomes
    assert st.observed[-1] == 10.0
    assert st.expected[-1] == pytest.approx(7.0)


def test_goodness_of_fit_impossible_outcome():
    st = goodness_of_fit([900, 90, 10], [0.9, 0.1, 0.0])
    assert st.chi_square == math.inf
    assert st.p_value == 0.0


def test_goodness_of_fit_validation():
    with pytest.raises(DimensionMismatchError):
        goodness_of_fit([1, 2, 3], [0.5, 0.5])
    with pytest.raises(ModelParameterError):
        goodness_of_fit([1, 1], [0.7, 0.7])
    with pytest.raises(DegenerateSupportError):
        goodness_of_fit([5, 0], [1.0, 0.0])
    with pytest.raises(InsufficientSamplesError):
        goodness_of_fit([0, 0], [0.5, 0.5])


def test_goodness_of_fit_calibration():
    # a correct sampler must almost never be flagged: all of these seeds
    # stay above the 0.001 threshold (verified for this exact range)
    n = 100_000
    for s in range(100):
        heads = int(np.random.default_rng(s).binomial(n, 0.5))
        st = goodness_of_fit([heads, n - heads], [0.5, 0.5])
        assert st.p_value > 0.001
