"""Run-time bounds and statistical verification helpers.

The recursion started by one sampling call is stochastically dominated by a
branching process in which a call either stops or spawns g(ell) children
with probability q * f(ell): whenever alpha = q * f(ell) * g(ell) < 1, the
expected total number of calls is at most 1 / (1 - alpha).  The helpers here
evaluate that bound, compare it against observed run statistics, check the
zone-of-indecision inequality p_v^0 <= q * f(ell), and score empirical
distributions against exact ones.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSupportError,
    DimensionMismatchError,
    InsufficientSamplesError,
    MissingRateError,
    ModelParameterError,
    check_count,
    is_real,
)
from .marginals import NEG_TOL, min_marginals, mixing_rate_estimate


@dataclass(frozen=True)
class BranchingBound:
    """Dominating-process summary at one radius."""

    ell: int
    q: int
    f: float
    g: int
    alpha: float
    contractive: bool
    expected_calls: float  # inf when not contractive


def branching_bound(system, graph, ell, rate):
    """Evaluate alpha = q * f(ell) * g(ell) and the call-count bound.

    ``rate`` is any mapping from radius to decay rate f, such as the one
    ``estimate_mixing_rate`` returns; its entry at ``ell`` must be a real
    number >= 0.
    """
    check_count(ell, 1, "radius")
    if ell not in rate:
        raise MissingRateError(f"mixing-rate table has no entry for radius {ell}")
    f = rate[ell]
    if not is_real(f) or not f >= 0:
        raise ModelParameterError(f"mixing rate at radius {ell} must be a real >= 0, got {f!r}")
    f = float(f)
    g = graph.growth_bound(ell)
    alpha = system.q * f * g
    contractive = alpha < 1.0
    expected = 1.0 / (1.0 - alpha) if contractive else math.inf
    return BranchingBound(
        ell=ell,
        q=system.q,
        f=f,
        g=g,
        alpha=alpha,
        contractive=contractive,
        expected_calls=expected,
    )


def hardcore_radius1_bound(lam, delta):
    """Radius-1 hard-core call-count bound (1+lam)/(1-(delta-1)*lam).

    Each call recurses with probability lam/(1+lam) and then spawns at most
    delta children; the bound is finite only for lam < 1/(delta-1).
    """
    if not is_real(lam) or not lam > 0:
        raise ModelParameterError(f"activity must be a positive real, got {lam!r}")
    check_count(delta, 2, "degree")
    if lam >= 1.0 / (delta - 1):
        return math.inf
    return (1.0 + lam) / (1.0 - (delta - 1) * lam)


@dataclass(frozen=True)
class TreeBoundCheck:
    passed: bool
    runs: int
    mean_calls: float
    std_error: float
    limit: float
    margin: float  # limit + 3*SE minus the observed mean


# Fewest runs ``verify_tree_bound`` compares against a bound.
MIN_TREE_RUNS = 1000


def verify_tree_bound(runs, limit):
    """Compare observed mean call counts against the call-count bound
    ``limit``, a real number such as ``BranchingBound.expected_calls``.

    ``runs`` is a sequence of at least MIN_TREE_RUNS objects with a
    ``total_calls`` attribute, such as ``RecursionStats``.  Passes when
    mean <= limit + 3 standard errors.
    """
    if not is_real(limit) or not limit >= 0:
        raise ModelParameterError(f"call-count limit must be a real >= 0, got {limit!r}")
    counts = np.array([r.total_calls for r in runs], dtype=float)
    if counts.size < MIN_TREE_RUNS:
        raise InsufficientSamplesError(
            f"need at least {MIN_TREE_RUNS} runs, got {counts.size}"
        )
    limit = float(limit)
    mean = float(counts.mean())
    se = float(counts.std(ddof=1) / math.sqrt(counts.size))
    margin = limit + 3.0 * se - mean
    return TreeBoundCheck(
        passed=bool(margin >= 0.0),
        runs=int(counts.size),
        mean_calls=mean,
        std_error=se,
        limit=limit,
        margin=margin,
    )


@dataclass(frozen=True)
class Lemma1Check:
    passed: bool
    p_zero: float
    rate: float
    bound: float  # q * rate


def lemma1_check(system, graph, fixed, v, ell):
    """Zone-of-indecision inequality p_v^0 <= q * f(ell) at one probe context,
    up to roundoff of NEG_TOL.

    The rate is the exact pairwise-worst TV distance over feasible sphere
    boundaries of the same context, so the check is self-contained.
    """
    p = min_marginals(system, graph, fixed, v, ell)
    f_hat = mixing_rate_estimate(system, graph, v, ell, fixed)
    bound = system.q * f_hat
    return Lemma1Check(
        passed=bool(p[0] <= bound + NEG_TOL),
        p_zero=float(p[0]),
        rate=f_hat,
        bound=bound,
    )


@dataclass(frozen=True)
class GofStats:
    n: int
    observed: tuple     # per-bucket counts after pooling; sums to n
    expected: tuple     # matching expected counts; sums to n
    chi_square: float
    dof: int
    p_value: float
    tv_distance: float
    buckets: int
    pooled_outcomes: int


# Expected count below which ``goodness_of_fit`` pools an outcome.
MIN_EXPECTED = 5.0


def goodness_of_fit(counts, exact):
    """Pearson chi-square of observed counts against exact probabilities.

    Outcomes with expected count below MIN_EXPECTED are pooled into one
    bucket (the usual validity requirement); degrees of freedom are the
    number of buckets minus one.  The TV distance is computed on the
    unpooled distributions.
    """
    # Imported here: scipy.stats is most of the package's import time and
    # memory, and only this function needs it.
    from scipy.stats import chi2

    counts = np.asarray(counts, dtype=float)
    exact = np.asarray(exact, dtype=float)
    if counts.shape != exact.shape or counts.ndim != 1:
        raise DimensionMismatchError(
            f"counts and probabilities must align, got {counts.shape} vs {exact.shape}"
        )
    if np.any(exact < 0) or abs(float(exact.sum()) - 1.0) > 1e-9:
        raise ModelParameterError("exact probabilities must be nonnegative and sum to 1")
    if np.count_nonzero(exact) < 2:
        raise DegenerateSupportError("need at least two outcomes with positive probability")
    n = int(round(float(counts.sum())))
    if n < 1:
        raise InsufficientSamplesError("no observations")
    tv = 0.5 * float(np.abs(counts / n - exact).sum())

    expected = exact * n
    big = expected >= MIN_EXPECTED
    obs_parts = list(counts[big])
    exp_parts = list(expected[big])
    pooled = int(np.count_nonzero(~big))
    if pooled:
        obs_parts.append(float(counts[~big].sum()))
        exp_parts.append(float(expected[~big].sum()))
    obs_parts = np.array(obs_parts)
    exp_parts = np.array(exp_parts)
    observed_out = tuple(float(x) for x in obs_parts)
    expected_out = tuple(float(x) for x in exp_parts)
    live = exp_parts > 0
    buckets = int(live.sum())
    if float(obs_parts[~live].sum()) > 0:
        # An outcome of exact probability zero was observed: no finite
        # statistic describes that, and the fit certainly fails.
        stat, p_value = math.inf, 0.0
    else:
        if buckets < 2:
            raise DegenerateSupportError(
                "pooling left fewer than two buckets; not enough samples for a test"
            )
        obs_parts, exp_parts = obs_parts[live], exp_parts[live]
        stat = float(((obs_parts - exp_parts) ** 2 / exp_parts).sum())
        p_value = float(chi2.sf(stat, buckets - 1))
    return GofStats(
        n=n,
        observed=observed_out,
        expected=expected_out,
        chi_square=stat,
        dof=max(buckets - 1, 1),
        p_value=p_value,
        tv_distance=tv,
        buckets=buckets,
        pooled_outcomes=pooled,
    )
