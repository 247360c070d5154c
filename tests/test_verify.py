"""Verification suites and the infinite-volume references on Z^2."""

import math
import statistics
import time
import tracemalloc

import pytest

from ssms import (
    Lattice,
    RandomSource,
    WindowSampler,
    box_occupation,
    conditional_marginal,
    grid_graph,
    hardcore,
    hardcore_box_bracket,
    ising,
    run_suite,
)
from ssms.errors import ModelParameterError, TooLargeError, UnknownSuiteError
from ssms.verify import (
    NONTERMINATING_CELLS,
    SUITES,
    acceptance_matrix,
    coupling_suite,
    distribution_suite,
    exact_joint_distribution,
    ising_nn_correlation,
    lattice_occupation_check,
    lemma1_suite,
    runtime_suite,
    sample_joint_counts,
)

# Transfer-matrix occupation values for the centered 7x7 box, frozen after
# they were cross-checked against direct enumeration on small boxes.
BRACKET_05 = (0.17195826573181974, 0.17421830874864389)
BRACKET_03 = (0.13460192903783827, 0.13544220013516525)


def grid_center_occupation(lam, rows, cols):
    """Occupation odds of the central cell by direct enumeration."""
    g = grid_graph(rows, cols)
    center = ((rows - 1) // 2) * cols + (cols + 1) // 2
    mu = conditional_marginal(hardcore(lam), g, center, {}, list(g.vertices()))
    return float(mu[1])


def test_box_occupation_matches_enumeration():
    for rows, cols in ((3, 3), (3, 5), (5, 3)):
        for lam in (0.4, 1.0):
            assert box_occupation(lam, rows, cols) == pytest.approx(
                grid_center_occupation(lam, rows, cols), abs=1e-12
            )


def test_box_occupation_single_site():
    for lam in (0.25, 1.0, 2.0):
        assert box_occupation(lam, 1, 1) == pytest.approx(lam / (1 + lam))


def test_box_arguments_are_rejected_with_a_code():
    with pytest.raises(ModelParameterError):
        box_occupation(0.5, 4, 5)            # no center site on an even side
    with pytest.raises(ModelParameterError):
        box_occupation(0.5, 3, 3, site=(3, 0))
    for site in ((0.5, 0), (0, 1.0), (True, 0), 5, (1, 2, 3)):
        with pytest.raises(ModelParameterError):
            box_occupation(0.5, 3, 3, site=site)
    for lam in ("a", None, True, 0.0):
        with pytest.raises(ModelParameterError):
            box_occupation(lam, 3, 3)
    with pytest.raises(ModelParameterError):
        hardcore_box_bracket(0.5, size=6)


def test_box_past_the_cap_raises_before_allocating():
    # 40 columns have Fib(42) = 267,914,296 independent row masks: the list
    # alone is GBs and its transfer matrix 10^17 cells.  It is refused first,
    # before even the (even-sided) default site is looked at.
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(TooLargeError, match="40 columns"):
            box_occupation(0.5, 3, 40)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert elapsed < 1.0
    with pytest.raises(TooLargeError):
        hardcore_box_bracket(0.3, size=21)
    # 15 columns, 1,597^2 cells, are the widest box under the cap.
    assert 0.0 < box_occupation(0.5, 1, 15) < 1.0
    with pytest.raises(TooLargeError, match="16 columns"):
        box_occupation(0.5, 1, 16, site=(0, 0))


def test_bracket_is_frozen_bit_for_bit():
    assert hardcore_box_bracket(0.3) == BRACKET_03
    assert hardcore_box_bracket(0.5) == BRACKET_05


def test_bracket_is_ordered_and_frozen():
    lo, hi = hardcore_box_bracket(0.5)
    assert lo < hi
    assert (lo, hi) == pytest.approx(BRACKET_05, abs=1e-12)
    assert hardcore_box_bracket(0.3) == pytest.approx(BRACKET_03, abs=1e-12)


def test_bracket_interpretation():
    # pinning the ring of a 7x7 box occupied empties the frame, which is the
    # same conditional law as a free-standing 5x5 box; an unoccupied ring is
    # vacuous and leaves the free 7x7 law
    lo, hi = hardcore_box_bracket(0.5, size=7)
    assert hi == pytest.approx(box_occupation(0.5, 5, 5), abs=1e-12)
    assert lo == pytest.approx(box_occupation(0.5, 7, 7), abs=1e-12)


def test_nonterminating_cells_are_matrix_labels():
    labels = {cell.label for cell in acceptance_matrix()}
    assert NONTERMINATING_CELLS < labels
    assert len(labels) == 18


def test_exact_joint_distribution_normalizes():
    from ssms import cycle_graph, coloring

    system, graph = coloring(3), cycle_graph(4)
    order, probs = exact_joint_distribution(system, graph)
    assert len(order) == 4
    assert probs.sum() == pytest.approx(1.0)
    # C4 has (3-1)^4 + (3-1) = 18 proper 3-colorings, all equally likely
    assert (probs > 0).sum() == 18
    assert probs.max() == pytest.approx(1 / 18)


def test_sample_joint_counts_reproducible():
    from ssms import path_graph

    a = sample_joint_counts(hardcore(1.0), path_graph(3), 1, 50, seed=3)
    b = sample_joint_counts(hardcore(1.0), path_graph(3), 1, 50, seed=3)
    assert (a == b).all()
    assert a.sum() == 50


def test_distribution_suite_smoke():
    res = distribution_suite(seed=1, samples=4000, nonterminating_budget=20_000)
    assert res.passed
    assert res.name == "distribution"
    rows = dict(res.rows)
    assert len([k for k in rows if k.endswith(".p_value")]) == 14
    confirmed = [
        k for k, v in rows.items() if v == "nonterminating-confirmed"
    ]
    assert len(confirmed) == 4
    for key in confirmed:
        assert key[: -len(".status")] in NONTERMINATING_CELLS


def test_lemma1_suite_smoke():
    res = lemma1_suite(seed=1, instances=20)
    assert res.passed
    rows = dict(res.rows)
    assert rows["violations"] == "0"
    for family in ("hardcore", "ising", "coloring"):
        assert rows[f"{family}.instances"] == "20"
        assert float(rows[f"{family}.min_slack"]) >= 0


def test_runtime_suite_smoke():
    res = runtime_suite(seed=1, runs=1200)
    assert res.passed
    rows = dict(res.rows)
    assert float(rows["hardcore02.limit"]) == pytest.approx(2.0)
    assert float(rows["hardcore02.margin"]) >= 0
    trips = [v for k, v in rows.items() if k.endswith(".budget_trips")]
    assert trips and all(v == "0" for v in trips)


def test_coupling_suite_smoke():
    res = coupling_suite(seed=1, seeds=50, h=10)
    assert res.passed
    rows = dict(res.rows)
    subsets = [k for k in rows if k.endswith(".subset")]
    assert len(subsets) == 6
    for key in subsets:
        stem = key[: -len(".subset")]
        assert rows[stem + ".equal"] == rows[key]


def test_run_suite_dispatch():
    assert set(SUITES) == {"distribution", "lemma1", "runtime", "coupling"}
    with pytest.raises(UnknownSuiteError):
        run_suite("spectral")


def test_suite_csv_shape():
    res = lemma1_suite(seed=1, instances=5)
    text = res.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "metric,value"
    assert lines[-1] == f"lemma1.passed,{int(res.passed)}"


def test_lattice_occupation_check_subcritical():
    res = lattice_occupation_check(0.3, 1, 800, seed=5)
    assert res.passed
    assert res.samples == 800
    assert (res.lo, res.hi) == pytest.approx(BRACKET_03, abs=1e-12)
    assert res.lo - 3 * res.std_error <= res.frequency <= res.hi + 3 * res.std_error


def test_onsager_correlation_values():
    # Onsager's closed form at three couplings, to the sixth decimal.
    for lam, want in ((1.2, 0.092437), (1.5, 0.217459), (2.0, 0.433281)):
        assert ising_nn_correlation(lam) == pytest.approx(want, abs=1e-6)
    with pytest.raises(ModelParameterError):
        ising_nn_correlation(1.0)


# Seed and threshold fixed before the first run: the test passes iff the
# sample mean is within ONSAGER_Z standard errors of the closed form.
ONSAGER_SEED = 1
ONSAGER_WINDOWS = 2 * 10**5
ONSAGER_Z = 4.0


def test_ising_neighbour_correlation_matches_onsager():
    # Two neighbours of Z^2 under ising(1.2) at radius 3: every miss that
    # enumerates the interior with free sphere vertices is an extremal miss
    # of 2^13 cells, past the gather cut-over, on an interaction not 0/1.
    z2 = Lattice(2)
    sampler = WindowSampler(ising(1.2), z2, 3)
    rng = RandomSource(ONSAGER_SEED)
    window = [(0, 0), (1, 0)]
    products = []
    for _ in range(ONSAGER_WINDOWS):
        spins, _ = sampler.sample_window(window, rng)
        products.append((2 * spins.spin((0, 0)) - 3) * (2 * spins.spin((1, 0)) - 3))
    mean = statistics.fmean(products)
    se = statistics.stdev(products) / math.sqrt(len(products))
    z = (mean - ising_nn_correlation(1.2)) / se
    assert abs(z) <= ONSAGER_Z, (mean, se, z)
