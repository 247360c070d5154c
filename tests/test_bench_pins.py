"""The benchmark's seed-1 digests, checked on every test run.

``bench/run.py`` hashes each workload's exact batch (spins, engine calls
and RNG draws) at the default seed and pins the result in ``PINS``.  Running
the batches here, untimed, makes any change to a spin, a count or a draw
fail the tests, not only the benchmark.  The script is only read.
"""

import types
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _load_bench():
    # Compiled in memory, so no bytecode cache is written next to the script.
    module = types.ModuleType("ssms_bench_run")
    module.__file__ = str(RUN)
    exec(compile(RUN.read_text(), str(RUN), "exec"), module.__dict__)
    return module


bench = _load_bench()


@pytest.mark.parametrize("name", sorted(bench.PINS))
def test_seed_one_batch_matches_its_pinned_digest(name):
    wl = bench.WORKLOADS[name](bench.DEFAULT_SEED, 0, False)
    loop = bench.run_windows(wl, 0)
    assert loop["failures"] == {}
    assert loop["exact"]["digest"] == bench.PINS[name]
