"""The benchmark's seed-1 digests and its tracer, checked on every test run.

``bench/run.py`` hashes each workload's exact batch (spins, engine calls
and RNG draws) at the default seed and pins the result in ``PINS``.  Running
the batches here, untimed, makes any change to a spin, a count or a draw
fail the tests, not only the benchmark.  ``bench/tracer.py`` wraps the
package's engine and cache lookups by name, so a renamed or fused function
would silently read 0 there; a tiny traced batch guards the live spans.
The scripts are only read.
"""

import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    # Compiled in memory, so no bytecode cache is written next to the script.
    path = BENCH / f"{name}.py"
    module = types.ModuleType(f"ssms_bench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


bench = _load("run")
tracer = _load("tracer")


@pytest.mark.parametrize("name", sorted(bench.PINS))
def test_seed_one_batch_matches_its_pinned_digest(name):
    wl = bench.WORKLOADS[name](bench.DEFAULT_SEED, 0, False)
    loop = bench.run_windows(wl, 0)
    assert loop["failures"] == {}
    assert loop["exact"]["digest"] == bench.PINS[name]


def test_the_tracer_sees_the_engine_and_both_lookups():
    wl = bench.WORKLOADS["lattice-warm"](bench.DEFAULT_SEED, 0, True)
    spans = tracer.Tracer()
    loop = bench.run_windows(wl, 0, spans)
    assert loop["failures"] == {}
    metrics = tracer.layer_metrics(spans.kept, loop["exact"]["calls"])
    for name in ("engine.calls_per_s", "cache.min_lookups", "cache.cond_lookups"):
        assert metrics[name] > 0, name


def test_the_cold_batch_makes_its_pinned_misses():
    # The seed-1 lattice-cold batch, one fresh sampler per 8x8 window as the
    # workload makes them, holds 10 frames (Z^2 has one ball class) and 294
    # table entries, so a faster cold window comes from cheaper misses, not
    # from fewer of them.
    from ssms import Lattice, RandomSource, WindowSampler, hardcore

    _, seeds = bench.window_seeds(bench.DEFAULT_SEED, 0)
    z2 = Lattice(2)
    box = z2.box((0, 0), (8, 8))
    frames = entries = 0
    for _ in range(10):
        sampler = WindowSampler(
            hardcore(bench.LATTICE_LAMBDA), z2, bench.LATTICE_ELL, budget=bench.BUDGET
        )
        sampler.sample_window(box, RandomSource(seeds.next_uint64()))
        frames += len(sampler._cache._frames)
        entries += len(sampler._cache._parts)
    assert (frames, entries) == (10, 294)
