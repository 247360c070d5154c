"""Layer micro-measurements reported by the traced run.

These call single layers directly, outside any window and untraced:
the RNG draw rate, ``min_marginals`` and ``conditional_marginal`` latency
on Z^2 as a function of how many ball vertices are free, and the largest
radius at which ``min_marginals`` completes at the origin.
"""

import statistics
from time import perf_counter

from ssms import Lattice, RandomSource, conditional_marginal, hardcore, is_feasible, min_marginals
from ssms.errors import TooLargeError

ELLS = (1, 2)
MAX_ELL_PROBE = 6
CONTEXTS_PER_POINT = 5
REPEATS = 3
ORIGIN = (0, 0)


def free_counts(graph, ell, sphere_fixed):
    """Free-vertex counts measured at one radius (the target is always free)."""
    interior = graph.ball_interior(ORIGIN, ell)
    if sphere_fixed:
        return range(1, len(interior) + 1)
    return range(1, len(interior) + len(graph.sphere(ORIGIN, ell)) + 1)


def _context(rng, system, graph, ell, free, sphere_fixed):
    """A feasible context on the ball with exactly ``free`` unassigned vertices.

    Free vertices are drawn from the interior when the whole sphere must be
    assigned (the conditional case), from the whole ball otherwise.
    """
    interior = [w for w in graph.ball_interior(ORIGIN, ell) if w != ORIGIN]
    sphere = list(graph.sphere(ORIGIN, ell))
    pool = interior if sphere_fixed else interior + sphere
    ball = interior + sphere + [ORIGIN]
    while True:
        order = sorted(pool, key=lambda _: rng.next_double())
        assigned = order[free - 1:] + (sphere if sphere_fixed else [])
        ctx = {w: 2 if rng.next_double() < 0.3 else 1 for w in assigned}
        if is_feasible(system, graph, ctx, ball):
            return ctx


def _best_us(fn):
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best * 1e6


def marginal_latency(seed):
    """Median µs of each marginal routine per (radius, free-vertex count)."""
    system = hardcore(0.3)
    graph = Lattice(2)
    rng = RandomSource(seed)
    out = {}
    for ell in ELLS:
        for free in free_counts(graph, ell, sphere_fixed=False):
            times = []
            for _ in range(CONTEXTS_PER_POINT):
                ctx = _context(rng, system, graph, ell, free, sphere_fixed=False)
                times.append(_best_us(lambda: min_marginals(system, graph, ctx, ORIGIN, ell)))
            out[f"marginals.min_us.ell{ell}.free{free}"] = statistics.median(times)
        ball = list(graph.ball(ORIGIN, ell))
        for free in free_counts(graph, ell, sphere_fixed=True):
            times = []
            for _ in range(CONTEXTS_PER_POINT):
                ctx = _context(rng, system, graph, ell, free, sphere_fixed=True)
                support = [w for w in ball if w not in ctx] + list(ctx)
                times.append(
                    _best_us(lambda: conditional_marginal(system, graph, ORIGIN, ctx, support))
                )
            out[f"marginals.cond_us.ell{ell}.free{free}"] = statistics.median(times)
    return out


def z2_max_ell():
    """Largest radius at which ``min_marginals`` completes at the Z^2 origin."""
    system = hardcore(0.3)
    graph = Lattice(2)
    reach = 0
    for ell in range(1, MAX_ELL_PROBE + 1):
        try:
            min_marginals(system, graph, {}, ORIGIN, ell)
        except TooLargeError:
            break
        reach = ell
    return reach


def rng_draws_per_s(seed, draws=200_000):
    rng = RandomSource(seed)
    t0 = perf_counter()
    for _ in range(draws):
        rng.next_double()
    return draws / (perf_counter() - t0)


def micro_metrics(seed):
    out = {"rng.draws_per_s": rng_draws_per_s(seed), "marginals.z2_max_ell": z2_max_ell()}
    out.update(marginal_latency(seed))
    return out
