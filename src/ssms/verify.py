"""Verification suites behind the command-line ``verify`` command.

Four suites cover the claims the sampler is supposed to make good on:

* ``distribution``: joint output distribution on a fixed model/graph matrix
  against brute-force enumeration.
* ``lemma1``: the zone-of-indecision inequality on randomized instances.
* ``runtime``: branching bounds against observed call counts.
* ``coupling``: bounded and unbounded runs agree below the depth allowance.

The module also houses two infinite-volume references on Z^2: a
transfer-matrix oracle for single-site occupation of the hard-core model on
square-lattice boxes, used to bracket the occupation frequency, and
Onsager's closed form for the Ising nearest-neighbour correlation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analysis import (
    branching_bound,
    goodness_of_fit,
    hardcore_radius1_bound,
    lemma1_check,
    verify_tree_bound,
)
from .bruteforce import ENUM_CAP, Support, weight_tensor
from .errors import (
    BudgetExhaustedError,
    ModelParameterError,
    TooLargeError,
    UnknownSuiteError,
    check_count,
    is_integer,
    is_real,
)
from .graph import FiniteGraph, Lattice, cycle_graph, grid_graph, path_graph, petersen_graph
from .marginals import estimate_mixing_rate
from .sampler import RandomSource, WindowSampler
from .spinsys import coloring, hardcore, is_feasible, ising


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one verification suite: named metric rows plus a verdict."""

    name: str
    rows: tuple
    passed: bool

    def to_csv(self):
        lines = ["metric,value"]
        lines.extend(f"{k},{v}" for k, v in self.rows)
        lines.append(f"{self.name}.passed,{int(self.passed)}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class MatrixCell:
    label: str
    system: object
    graph: FiniteGraph
    ell: int


def acceptance_matrix():
    """The fixed model/graph/radius grid used by the distribution and
    runtime suites."""
    graphs = (
        ("P3", path_graph(3)),
        ("C5", cycle_graph(5)),
        ("grid3", grid_graph(3, 3)),
    )
    models = (hardcore(1.0), ising(1.5), coloring(4))
    cells = []
    for system in models:
        for name, g in graphs:
            for ell in (1, 2):
                cells.append(MatrixCell(f"{system.label}|{name}|ell={ell}", system, g, ell))
    return cells


# Cells on which the recursion provably never terminates.  At radius 1 a
# proper coloring gives every spin a feasible excluding boundary (color some
# neighbor that way), so all worst-case probabilities are 0, the zone of
# indecision is the whole interval, and every call recurses into sphere
# vertices whose zones are again full: the call tree grows forever with no
# randomness to stop it.  On the 3x3 grid at radius 2 the same collapse
# happens at the edge-midpoint vertices, whose radius-2 boundaries can force
# the center onto any chosen color.
NONTERMINATING_CELLS = frozenset(
    {
        "coloring(q=4)|P3|ell=1",
        "coloring(q=4)|C5|ell=1",
        "coloring(q=4)|grid3|ell=1",
        "coloring(q=4)|grid3|ell=2",
    }
)


def exact_joint_distribution(system, graph):
    """(vertices, probability vector over all q^n spin tuples, C order)."""
    support = list(graph.vertices())
    free, w = weight_tensor(Support(system, graph, support), support, {})
    flat = w.ravel()
    return free, flat / flat.sum()


def joint_rank(system, order, spins):
    rank = 0
    for v in order:
        rank = rank * system.q + (spins.spin(v) - 1)
    return rank


def sample_joint_counts(system, graph, ell, samples, seed, budget=None):
    """Empirical counts of full-graph window samples, indexed like
    ``exact_joint_distribution``."""
    sampler = WindowSampler(system, graph, ell, budget=budget)
    order = list(graph.vertices())
    counts = np.zeros(system.q ** len(order), dtype=np.int64)
    seeder = RandomSource(seed)
    for _ in range(samples):
        spins, _ = sampler.sample_window(order, RandomSource(seeder.next_uint64()))
        counts[joint_rank(system, order, spins)] += 1
    return counts


def distribution_suite(seed=1, samples=100_000, nonterminating_budget=100_000):
    """Joint-distribution checks over the acceptance matrix.

    Terminating cells are chi-square tested against enumeration with a
    Bonferroni-corrected threshold; cells known to recurse forever pass by
    confirming that they do trip the call budget.
    """
    cells = acceptance_matrix()
    tested = [c for c in cells if c.label not in NONTERMINATING_CELLS]
    threshold = 0.001 / len(tested)
    rows = [("samples_per_cell", str(samples)), ("p_threshold", f"{threshold:.12g}")]
    passed = True
    for cell in cells:
        if cell.label in NONTERMINATING_CELLS:
            sampler = WindowSampler(cell.system, cell.graph, cell.ell, budget=nonterminating_budget)
            order = list(cell.graph.vertices())
            try:
                sampler.sample_window(order, RandomSource(seed))
            except BudgetExhaustedError:
                rows.append((f"{cell.label}.status", "nonterminating-confirmed"))
            else:
                rows.append((f"{cell.label}.status", "unexpected-termination"))
                passed = False
            continue
        _, exact = exact_joint_distribution(cell.system, cell.graph)
        counts = sample_joint_counts(cell.system, cell.graph, cell.ell, samples, seed)
        gof = goodness_of_fit(counts, exact)
        ok = gof.p_value > threshold
        passed = passed and ok
        rows.append((f"{cell.label}.chi_square", f"{gof.chi_square:.12g}"))
        rows.append((f"{cell.label}.p_value", f"{gof.p_value:.12g}"))
        rows.append((f"{cell.label}.tv", f"{gof.tv_distance:.12g}"))
        rows.append((f"{cell.label}.status", "pass" if ok else "fail"))
    return SuiteResult("distribution", tuple(rows), passed)


def _random_feasible_context(rng, system, graph, v):
    """A feasible partial assignment avoiding ``v``: the first of 200 draws
    that is feasible, or the empty one."""
    vertices = [u for u in graph.vertices() if u != v]
    support = list(graph.vertices())
    for _ in range(200):
        k = int(rng.integers(0, len(vertices) + 1))
        chosen = list(rng.choice(len(vertices), size=k, replace=False))
        cfg = {vertices[i]: int(rng.integers(1, system.q + 1)) for i in chosen}
        if is_feasible(system, graph, cfg, support):
            return cfg
    return {}


def _random_instance(rng, family):
    while True:
        n = int(rng.integers(2, 9))
        p = float(rng.uniform(0.25, 0.6))
        edges = [
            (i, j)
            for i in range(1, n + 1)
            for j in range(i + 1, n + 1)
            if rng.random() < p
        ]
        if not edges and rng.random() > 0.1:
            continue
        graph = FiniteGraph(n, edges)
        if family == "hardcore":
            system = hardcore(round(float(rng.uniform(0.1, 2.0)), 3))
        elif family == "ising":
            system = ising(round(float(rng.uniform(1.0, 3.0)), 3))
        else:
            system = coloring(int(rng.integers(3, 6)))
        # a dense draw can exceed the color budget entirely; skip those
        if not is_feasible(system, graph, {}, list(graph.vertices())):
            continue
        v = int(rng.integers(1, n + 1))
        ell = int(rng.integers(1, 3))
        return system, graph, v, ell


def lemma1_suite(seed=1, instances=200):
    """Randomized check of p_v^0 <= q * f(ell) across the model families."""
    rng = np.random.default_rng(seed)
    rows = []
    violations = 0
    for family in ("hardcore", "ising", "coloring"):
        checked = 0
        worst_slack = math.inf
        while checked < instances:
            system, graph, v, ell = _random_instance(rng, family)
            fixed = _random_feasible_context(rng, system, graph, v)
            res = lemma1_check(system, graph, fixed, v, ell)
            checked += 1
            if not res.passed:
                violations += 1
            worst_slack = min(worst_slack, res.bound - res.p_zero)
        rows.append((f"{family}.instances", str(checked)))
        rows.append((f"{family}.min_slack", f"{worst_slack:.12g}"))
    rows.append(("violations", str(violations)))
    return SuiteResult("lemma1", tuple(rows), violations == 0)


def _call_reports(system, graph, v, ell, runs, seed):
    """(stats of each seeded single call at ``v`` that finished, number of
    calls that tripped the budget)."""
    sampler = WindowSampler(system, graph, ell)
    seeder = RandomSource(seed)
    reports = []
    trips = 0
    for _ in range(runs):
        try:
            _, stats = sampler.sample_window([v], RandomSource(seeder.next_uint64()))
        except BudgetExhaustedError:
            trips += 1
            continue
        reports.append(stats)
    return reports, trips


def runtime_suite(seed=1, runs=10_000):
    """Observed call counts against the radius-1 hard-core bound and the
    general contraction bound on every matrix cell with alpha < 1."""
    rows = []
    passed = True

    # hard-core activity 0.2 on a 3-regular graph: expected calls <= 2.0
    graph = petersen_graph()
    system = hardcore(0.2)
    limit = hardcore_radius1_bound(0.2, 3)
    reports, trips = _call_reports(system, graph, 1, 1, runs, seed)
    check = verify_tree_bound(reports, limit)
    ok = check.passed and trips == 0
    rows.append(("hardcore02.limit", f"{limit:.12g}"))
    rows.append(("hardcore02.mean_calls", f"{check.mean_calls:.12g}"))
    rows.append(("hardcore02.margin", f"{check.margin:.12g}"))
    rows.append(("hardcore02.status", "pass" if ok else "fail"))
    passed = passed and ok

    for cell in acceptance_matrix():
        rate = estimate_mixing_rate(cell.system, cell.graph, [cell.ell])
        bound = branching_bound(cell.system, cell.graph, cell.ell, rate)
        if not bound.contractive:
            continue
        start = max(cell.graph.vertices(), key=lambda u: len(cell.graph.sphere(u, cell.ell)))
        reports, trips = _call_reports(cell.system, cell.graph, start, cell.ell, runs, seed)
        check = verify_tree_bound(reports, bound.expected_calls)
        ok = check.passed and trips == 0
        passed = passed and ok
        rows.append((f"{cell.label}.alpha", f"{bound.alpha:.12g}"))
        rows.append((f"{cell.label}.limit", f"{bound.expected_calls:.12g}"))
        rows.append((f"{cell.label}.mean_calls", f"{check.mean_calls:.12g}"))
        rows.append((f"{cell.label}.budget_trips", str(trips)))
        rows.append((f"{cell.label}.status", "pass" if ok else "fail"))
    return SuiteResult("runtime", tuple(rows), passed)


def coupling_suite(seed=1, seeds=1_000, h=10):
    """Shared-seed agreement of bounded and unbounded runs.

    Counts exact output matches restricted to runs whose unbounded recursion
    stayed strictly shallower than the allowance; the rate there must be 1.
    """
    configs = []
    for name, graph in (("P3", path_graph(3)), ("C5", cycle_graph(5))):
        configs.append((f"hardcore(lambda=1)|{name}|ell=1", hardcore(1.0), graph, 1))
        configs.append((f"ising(lambda=1.5)|{name}|ell=1", ising(1.5), graph, 1))
        configs.append((f"coloring(q=4)|{name}|ell=2", coloring(4), graph, 2))
    rows = [("shared_seeds", str(seeds)), ("depth_allowance", str(h))]
    passed = True
    for label, system, graph, ell in configs:
        sampler = WindowSampler(system, graph, ell)
        seeder = RandomSource(seed)
        subset = 0
        equal = 0
        for _ in range(seeds):
            s = seeder.next_uint64()
            spins, stats = sampler.sample_window([1], RandomSource(s))
            capped, _ = sampler.sample_window([1], RandomSource(s), h=h)
            if stats.max_depth < h:
                subset += 1
                equal += spins == capped
        ok = equal == subset and subset > 0
        passed = passed and ok
        rows.append((f"{label}.subset", str(subset)))
        rows.append((f"{label}.equal", str(equal)))
        rows.append((f"{label}.status", "pass" if ok else "fail"))
    return SuiteResult("coupling", tuple(rows), passed)


SUITES = {
    "distribution": distribution_suite,
    "lemma1": lemma1_suite,
    "runtime": runtime_suite,
    "coupling": coupling_suite,
}


def run_suite(name, seed=1):
    try:
        suite = SUITES[name]
    except KeyError:
        known = ", ".join(sorted(SUITES))
        raise UnknownSuiteError(f"no suite named {name!r} (choose from {known})") from None
    return suite(seed=seed)


def box_occupation(lam, rows, cols, site=None):
    """Occupation probability of one site of a free-boundary hard-core box.

    Transfer-matrix computation over row masks; ``site`` is an (x, y) pair
    inside the ``cols`` x ``rows`` box and defaults to the center (odd sides
    required in that case).  Past ``ENUM_CAP`` transfer-matrix cells, from
    16 columns on, it raises ``TooLargeError`` before building anything.
    """
    if not is_real(lam) or not lam > 0:
        raise ModelParameterError(f"activity must be a positive real, got {lam!r}")
    check_count(rows, 1, "box rows")
    check_count(cols, 1, "box columns")
    # Fib(cols + 2) independent row masks, counted no further than the cap.
    fewer, count = 1, 2
    for _ in range(cols - 1):
        if count * count > ENUM_CAP:
            break
        fewer, count = count, fewer + count
    if count * count > ENUM_CAP:
        raise TooLargeError(
            f"transfer matrix for {cols} columns exceeds the {ENUM_CAP} cell cap"
        )
    if site is None:
        if rows % 2 == 0 or cols % 2 == 0:
            raise ModelParameterError("default center site needs odd box sides")
        site = (cols // 2, rows // 2)
    x, y = site if isinstance(site, (tuple, list)) and len(site) == 2 else (None, None)
    if not (is_integer(x) and is_integer(y) and 0 <= x < cols and 0 <= y < rows):
        raise ModelParameterError(f"site {site!r} is not a cell of the {cols}x{rows} box")
    masks = [m for m in range(1 << cols) if not m & (m >> 1)]
    w = np.array([lam ** bin(m).count("1") for m in masks])
    masks = np.array(masks)
    compat = (masks[:, None] & masks == 0).astype(float)
    fwd = w.copy()
    for _ in range(y):
        fwd = w * (compat @ fwd)
    bwd = w.copy()
    for _ in range(rows - 1 - y):
        bwd = w * (compat @ bwd)
    per_mask = fwd * bwd / w
    z = per_mask.sum()
    return float(per_mask[masks >> x & 1 == 1].sum() / z)


def hardcore_box_bracket(lam, size=7):
    """Bracket for the infinite-volume single-site occupation probability.

    An all-occupied ring around a ``size`` x ``size`` box pins the box frame
    empty, so the two extreme boundary conditions reduce to free-boundary
    boxes of sides ``size`` and ``size - 2`` evaluated at the same center
    cell.
    """
    check_count(size, 3, "box side")
    if size % 2 == 0:
        raise ModelParameterError(f"box side must be odd, got {size}")
    free_ring = box_occupation(lam, size, size)
    occupied_ring = box_occupation(lam, size - 2, size - 2)
    return min(free_ring, occupied_ring), max(free_ring, occupied_ring)


def ising_nn_correlation(lam):
    """E[sigma_0 sigma_1] of two neighbours of Z^2 under ``ising(lam)``,
    spins read as -1 and +1: Onsager's closed form in infinite volume,

        1/2 coth(2K) [1 + (2/pi) (2 tanh^2(2K) - 1) K(kappa)],

    with coupling K = ln(lam) / 2 and kappa = 2 sinh(2K) / cosh^2(2K), and
    K(kappa) the complete elliptic integral of the first kind.  At the
    critical lam = 1 + sqrt(2), kappa = 1 and the form is singular.
    """
    if not is_real(lam) or not lam > 1:
        raise ModelParameterError(f"ising edge weight must be a real > 1, got {lam!r}")
    # Imported here, as goodness_of_fit imports scipy.stats: import ssms
    # stays scipy-free.
    from scipy.special import ellipk

    K = 0.5 * math.log(lam)
    kappa = 2.0 * math.sinh(2.0 * K) / math.cosh(2.0 * K) ** 2
    elliptic = float(ellipk(kappa**2))
    tail = (2.0 / math.pi) * (2.0 * math.tanh(2.0 * K) ** 2 - 1.0) * elliptic
    return 0.5 / math.tanh(2.0 * K) * (1.0 + tail)


@dataclass(frozen=True)
class WindowSanityCheck:
    samples: int
    frequency: float
    lo: float
    hi: float
    std_error: float
    passed: bool


def lattice_occupation_check(lam, ell, samples, seed, budget=None):
    """Single-site occupation frequency on the square lattice against the
    bracket ``hardcore_box_bracket(lam)``, widened by three standard errors."""
    system = hardcore(lam)
    graph = Lattice(2)
    sampler = WindowSampler(system, graph, ell, budget=budget)
    seeder = RandomSource(seed)
    origin = (0, 0)
    occupied = 0
    for _ in range(samples):
        spins, _ = sampler.sample_window([origin], RandomSource(seeder.next_uint64()))
        occupied += spins.spin(origin) == 2
    freq = occupied / samples
    lo, hi = hardcore_box_bracket(lam)
    se = math.sqrt(freq * (1.0 - freq) / samples)
    return WindowSanityCheck(
        samples=samples,
        frequency=freq,
        lo=lo,
        hi=hi,
        std_error=se,
        passed=bool(lo - 3.0 * se <= freq <= hi + 3.0 * se),
    )
