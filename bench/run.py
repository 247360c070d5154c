#!/usr/bin/env python3
"""Seeded benchmark of the ssms exact sampler.

Run from the repository root, for example

    python3 bench/run.py --workload lattice-warm --seed 1 --seconds 30 --trace 0

Every run is a single-threaded closed loop over one workload's windows: each
window starts only after the previous one has returned.

``--trace 0`` reports the end-to-end metrics.  The timed loop is split over
a few fresh interpreters run one after another, so that one process's
placement and memory layout do not decide the result; each of them also
measures set-up time, from its spawn to its first timed window.
``--trace 1`` runs in one process, wraps each layer's entry points (see
tracer.py) and reports per-layer metrics instead.

Every run checks its windows for exactness, prints one JSON result as its
last line, and exits non-zero when a check fails.  See README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Passed to every sampler, so an SSMS_BUDGET in the environment cannot change
# a workload.
BUDGET = 10**7
DEFAULT_SEED = 1
WORKERS = 4
# The statistical gates run on every benchmark run, at whatever seeds the
# caller picks, so their false-alarm rate must stay negligible over thousands
# of runs.  The chi-square level is family-wise, Bonferroni-corrected over the
# cells as criterion 1 is.  The lattice density 0.134640 sits 4e-5 above the
# bracket's lower edge, so a 3-SE band would fail about one correct run in a
# thousand; a 5-SE band fails about one in three million.
FAMILY_ALPHA = 1e-6
OCCUPATION_SE = 5
LATTICE_LAMBDA = 0.3
LATTICE_ELL = 2

# sha256 prefix over the exact batch (spins, engine calls, RNG draws) at the
# default seed and full size.  A change that keeps the output law exact bit
# for bit leaves these unchanged.
PINS = {
    "finite-joint": "e9427635d88e0036",
    "lattice-cold": "1ea04bcc7c4651ae",
    "lattice-warm": "4f5b2f21fd961ffb",
}


def window_seeds(seed, stream):
    """(warm-up seeder, seeder of timed stream ``stream``), both from ``seed``.

    Windows get ``RandomSource(seeder.next_uint64())``, as in
    ``verify.sample_joint_counts``; every process warms up identically and
    stream 0 is the one the exact batch is taken from."""
    from ssms import RandomSource

    master = RandomSource(seed)
    warm = RandomSource(master.next_uint64())
    for _ in range(stream):
        master.next_uint64()
    return warm, RandomSource(master.next_uint64())


class FiniteJoint:
    """Full-graph samples on three terminating acceptance cells, one warmed
    sampler per cell, windows dealt round-robin over the cells."""

    name = "finite-joint"
    tail_pct = 99.9

    @staticmethod
    def cells():
        from ssms import coloring, cycle_graph, grid_graph, hardcore, ising

        return (
            ("hardcore(1)|grid3|ell=1", hardcore(1.0), grid_graph(3, 3), 1),
            ("ising(1.5)|grid3|ell=1", ising(1.5), grid_graph(3, 3), 1),
            ("coloring(4)|C5|ell=2", coloring(4), cycle_graph(5), 2),
        )

    def __init__(self, seed, stream, tiny):
        from ssms import RandomSource, WindowSampler

        self._source = RandomSource
        warm, self._seeds = window_seeds(seed, stream)
        self.batch = 30 if tiny else 600
        self._cells = []
        for _, system, graph, ell in self.cells():
            sampler = WindowSampler(system, graph, ell, budget=BUDGET)
            order = list(graph.vertices())
            for _ in range(100 if tiny else 500):
                sampler.sample_window(order, RandomSource(warm.next_uint64()))
            self._cells.append((system, sampler, order, [0] * system.q ** len(order)))

    def window(self, i):
        _, sampler, order, _ = self._cells[i % len(self._cells)]
        rng = self._source(self._seeds.next_uint64())
        spins, report = sampler.sample_window(order, rng)
        return spins, report, rng

    def values(self, i, spins):
        return tuple(spins.spin(v) for v in self._cells[i % len(self._cells)][2])

    def record(self, i, spins):
        from ssms.verify import joint_rank

        system, _, order, counts = self._cells[i % len(self._cells)]
        counts[joint_rank(system, order, spins)] += 1

    def observations(self):
        return [counts for _, _, _, counts in self._cells]

    @staticmethod
    def pool(observations):
        return [[sum(c) for c in zip(*per_cell)] for per_cell in zip(*observations)]

    @classmethod
    def checks(cls, counts):
        """Joint counts per cell against exact enumeration."""
        from ssms import goodness_of_fit
        from ssms.errors import SsmsError
        from ssms.verify import exact_joint_distribution

        cells = cls.cells()
        threshold = FAMILY_ALPHA / len(cells)
        for (label, system, graph, _), observed in zip(cells, counts):
            _, exact = exact_joint_distribution(system, graph)
            try:
                gof = goodness_of_fit(observed, exact)
            except SsmsError as exc:
                yield f"chi_square.{label}", False, f"no test: {exc}"
                continue
            yield (
                f"chi_square.{label}",
                gof.p_value > threshold,
                f"p={gof.p_value:.4g} threshold={threshold:.3g} n={gof.n} tv={gof.tv_distance:.4g}",
            )


class LatticeWindows:
    """Square boxes of hard-core(0.3) on Z^2 at radius 2."""

    def __init__(self, seed, stream, side, warm_windows):
        from ssms import Lattice, RandomSource

        self._source = RandomSource
        warm, self._seeds = window_seeds(seed, stream)
        self.box = Lattice(2).box((0, 0), (side, side))
        self._occupation = []
        self.sampler = None
        if warm_windows:
            self.sampler = self.fresh_sampler()
            for _ in range(warm_windows):
                self.sampler.sample_window(self.box, RandomSource(warm.next_uint64()))

    @staticmethod
    def fresh_sampler():
        from ssms import Lattice, WindowSampler, hardcore

        return WindowSampler(hardcore(LATTICE_LAMBDA), Lattice(2), LATTICE_ELL, budget=BUDGET)

    def values(self, i, spins):
        return tuple(spins.spin(v) for v in self.box)

    def record(self, i, spins):
        occupied = sum(spins.spin(v) == 2 for v in self.box)
        self._occupation.append(occupied / len(self.box))

    def observations(self):
        return self._occupation

    @staticmethod
    def pool(observations):
        return [x for occupation in observations for x in occupation]

    @staticmethod
    def checks(occupation):
        """Mean occupation per window against the infinite-volume bracket,
        widened by OCCUPATION_SE standard errors.

        Windows are independent, so the standard error comes from the spread
        of the per-window means; sites inside one window are correlated."""
        from ssms.verify import hardcore_box_bracket

        lo, hi = hardcore_box_bracket(LATTICE_LAMBDA)
        n = len(occupation)
        if n < 2:
            yield "occupation", False, f"only {n} windows"
            return
        mean = statistics.fmean(occupation)
        se = statistics.stdev(occupation) / math.sqrt(n)
        yield (
            "occupation",
            lo - OCCUPATION_SE * se <= mean <= hi + OCCUPATION_SE * se,
            f"mean={mean:.5f} se={se:.5f} bracket=[{lo:.5f}, {hi:.5f}] n={n}",
        )


class LatticeCold(LatticeWindows):
    """Each window is a fresh sampler plus one 8x8 box: one CLI sample run."""

    name = "lattice-cold"
    tail_pct = 90

    def __init__(self, seed, stream, tiny):
        super().__init__(seed, stream, side=4 if tiny else 8, warm_windows=0)
        self.batch = 2 if tiny else 10

    def window(self, i):
        sampler = self.fresh_sampler()
        rng = self._source(self._seeds.next_uint64())
        spins, report = sampler.sample_window(self.box, rng)
        return spins, report, rng


class LatticeWarm(LatticeWindows):
    """One sampler warmed during set-up, then 20x20 windows."""

    name = "lattice-warm"
    tail_pct = 99

    def __init__(self, seed, stream, tiny):
        super().__init__(seed, stream, side=6 if tiny else 20, warm_windows=3 if tiny else 20)
        self.batch = 3 if tiny else 20

    def window(self, i):
        rng = self._source(self._seeds.next_uint64())
        spins, report = self.sampler.sample_window(self.box, rng)
        return spins, report, rng


WORKLOADS = {w.name: w for w in (FiniteJoint, LatticeCold, LatticeWarm)}


def run_windows(wl, seconds, tracer=None, timeline=None):
    """Closed loop over the workload's window stream for ``seconds``.

    Windows 0..batch-1 are the exact batch: their spins, engine calls and
    RNG draws are hashed and counted, identically in both modes.  With a
    tracer the batch is traced and its spans kept; after it, even windows are
    traced and odd ones not, so both halves see the same cache state and
    their speed ratio is the tracing overhead.  A calibration timeline, when
    given, is ticked after every window.
    """
    latencies = []
    by_mode = {True: [], False: []}
    failures = Counter()
    digest = hashlib.sha256()
    exact = {"windows": wl.batch, "calls": 0, "indecision_events": 0, "max_depth": 0, "rng_draws": 0}
    start = perf_counter()
    deadline = start + seconds
    i = 0
    while i < wl.batch + 2 or perf_counter() < deadline:
        in_batch = i < wl.batch
        traced = tracer is not None and (in_batch or i % 2 == 0)
        t0 = perf_counter()
        try:
            if traced:
                with tracer.window(i, keep=in_batch):
                    spins, report, rng = wl.window(i)
            else:
                spins, report, rng = wl.window(i)
        except Exception as exc:  # every failed window is counted, never dropped
            failures[type(exc).__name__] += 1
            spins = None
        elapsed = perf_counter() - t0
        if spins is not None:
            latencies.append(elapsed)
            wl.record(i, spins)
        if in_batch:
            if spins is None:
                digest.update(f"{i}:failed\n".encode())
            else:
                digest.update(f"{i}:{wl.values(i, spins)}:{report.total_calls}:{rng.counter}\n".encode())
                exact["calls"] += report.total_calls
                exact["indecision_events"] += report.indecision_events
                exact["max_depth"] = max(exact["max_depth"], report.max_depth)
                exact["rng_draws"] += rng.counter
        elif spins is not None:
            by_mode[traced].append(elapsed)
        i += 1
        if timeline is not None:
            timeline.tick(len(latencies))
    if timeline is not None:
        timeline.tick(len(latencies), last=True)
    exact["digest"] = digest.hexdigest()[:16]
    return {
        "attempted": i,
        "failures": dict(failures),
        "elapsed": perf_counter() - start,
        "latencies": latencies,
        "by_mode": by_mode,
        "exact": exact,
    }


def import_ssms():
    """Import the package from this checkout's sources; seconds taken."""
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import ssms

    if Path(ssms.__file__).resolve().parent != SRC / "ssms":
        raise SystemExit(f"error: imported ssms from {ssms.__file__}, not {SRC}")
    return perf_counter() - t0


def worker(args):
    """One fresh interpreter's share of an untraced run, as one JSON line."""
    from calibration import Timeline

    import_ssms()
    wl = WORKLOADS[args.workload](args.seed, args.worker, args.tiny)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    timeline = Timeline()
    loop = run_windows(wl, args.seconds, timeline=timeline)
    del loop["by_mode"]
    loop.update(
        ready=ready,
        elapsed=timeline.elapsed,
        scaled_elapsed=timeline.scaled,
        factors=timeline.factors,
        rates=timeline.rates,
        observations=wl.observations(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(loop))


def spawn_worker(args, index, workers):
    """Run worker ``index``; returns its record plus its set-up seconds."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds / workers),
           "--worker", str(index)] + (["--tiny"] if args.tiny else [])
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = record["ready"] - spawned
    return record


def spread(values):
    """Interquartile distance over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def nearest_rank(sorted_values, pct):
    """(value, windows beyond it) for the nearest-rank percentile."""
    n = len(sorted_values)
    k = max(1, math.ceil(pct / 100 * n))
    return sorted_values[k - 1], n - k


def untraced(args):
    """End-to-end metrics from WORKERS fresh interpreters run in turn.

    Times are scaled to the calibration kernel's reference rate (see
    calibration.py); the raw figures are printed as notes."""
    from calibration import REFERENCE_RATE

    workers = 2 if args.tiny else WORKERS
    records = [spawn_worker(args, j, workers) for j in range(workers)]
    import_ssms()
    wl = WORKLOADS[args.workload]
    raw = sorted(x for r in records for x in r["latencies"])
    lat = sorted(x * f for r in records for x, f in zip(r["latencies"], r["factors"]))
    tail, beyond = nearest_rank(lat, wl.tail_pct)
    # Set-up ends right before a worker's first kernel slice.
    setups = [r["setup_s"] * r["rates"][0] / REFERENCE_RATE for r in records]
    rss = [r["peak_rss_mb"] for r in records]
    rates = [x for r in records for x in r["rates"]]
    metrics = {
        "windows_per_s": (len(lat) / sum(r["scaled_elapsed"] for r in records), "1/s"),
        "window_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "window_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    notes = [
        f"window_tail_ms is p{wl.tail_pct:g} of {len(lat)} windows, {beyond} beyond it",
        "setup_s is the median over fresh interpreters of " + ", ".join(f"{t:.4f}" for t in setups),
        "peak_rss_mb is the median over the same processes of " + ", ".join(f"{m:.1f}" for m in rss),
        f"calibration kernel: median {statistics.median(rates):.1f}/s over {len(rates)} slices,"
        f" spread {spread(rates):.4f}, reference {REFERENCE_RATE:g}/s",
        f"raw, unscaled: windows_per_s {len(raw) / sum(r['elapsed'] for r in records):.6g}"
        f" window_p50_ms {statistics.median(raw) * 1e3:.6g}"
        f" window_tail_ms {nearest_rank(raw, wl.tail_pct)[0] * 1e3:.6g}"
        f" setup_s {statistics.median(r['setup_s'] for r in records):.6g}",
    ]
    failures = Counter()
    for r in records:
        failures.update(r["failures"])
    run = {
        "attempted": sum(r["attempted"] for r in records),
        "failures": dict(failures),
        "exact": records[0]["exact"],
        "observations": wl.pool([r["observations"] for r in records]),
    }
    return run, metrics, notes


def traced(args):
    """Per-layer metrics from one traced process."""
    import_s = import_ssms()
    from micro import micro_metrics
    from tracer import Tracer, layer_metrics

    t0 = perf_counter()
    wl = WORKLOADS[args.workload](args.seed, 0, args.tiny)
    warmup_s = perf_counter() - t0
    tracer = Tracer()
    loop = run_windows(wl, args.seconds, tracer)
    tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.json")

    exact = loop["exact"]
    on, off = loop["by_mode"][True], loop["by_mode"][False]
    values = {
        "engine.calls": exact["calls"],
        "engine.calls_per_window": exact["calls"] / exact["windows"],
        "engine.indecision_events": exact["indecision_events"],
        "engine.max_depth": exact["max_depth"],
        "engine.rng_draws": exact["rng_draws"],
        **layer_metrics(tracer.kept, exact["calls"]),
        "setup.import_s": import_s,
        "setup.warmup_s": warmup_s,
        "trace.overhead": statistics.fmean(off) / statistics.fmean(on) if on and off else 0.0,
        **micro_metrics(args.seed),
    }
    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    run = {
        "attempted": loop["attempted"],
        "failures": loop["failures"],
        "exact": exact,
        "observations": wl.observations(),
    }
    return run, metrics, []


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if "_us" in name:
        return "us"
    if name.endswith(("_rate", ".overhead")):
        return "ratio"
    if name.endswith("_per_window"):
        return "calls/window"
    if name.endswith("bytes_computed"):
        return "bytes"
    return "count"


def git_commit():
    """Commit of the checkout, read from .git directly; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small windows and batches, for the self-test")
    p.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "ssms" / "__init__.py").is_file():
        print(f"error: no ssms package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.worker is not None:
        worker(args)
        return 0
    run, metrics, notes = (traced if args.trace else untraced)(args)

    name = args.workload
    checks = list(WORKLOADS[name].checks(run["observations"]))
    pin = PINS[name]
    if args.seed == DEFAULT_SEED and not args.tiny and pin is not None:
        got = run["exact"]["digest"]
        checks.append(("digest", got == pin, f"{got} (pinned {pin})"))
    failed = sum(run["failures"].values())
    # No window of these workloads should ever fail; one that does is a defect.
    checks.append(("failures", failed == 0, f"{failed} of {run['attempted']} windows failed"))

    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"run workload={name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          f" tiny={int(args.tiny)} attempted={run['attempted']} failed={failed}"
          f" fail_share={failed / run['attempted']:.6g} failures={json.dumps(run['failures'])}")
    print("exact " + json.dumps(run["exact"], sort_keys=True))
    for metric, (value, unit) in metrics.items():
        print(f"metric {metric} {value:.6g} {unit}")
    for note in notes:
        print("note " + note)
    for check, ok, detail in checks:
        print(f"check {check} {'pass' if ok else 'FAIL'} {detail}")
    bad = [check for check, ok, _ in checks if not ok]
    for check in bad:
        print(f"error: exactness check {check} failed", file=sys.stderr)
    print(json.dumps({
        "correct": not bad,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()},
    }))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
