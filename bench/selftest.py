#!/usr/bin/env python3
"""Self-test of the benchmark itself.

From the repository root:

    python3 bench/selftest.py

For every workload in BENCHMARK.json it runs ``run.py`` at a tiny size, at a
seed other than the default, once untraced and once traced, and asserts that

* both runs exit 0 and report exactly the metrics BENCHMARK.json names for
  their mode, each with its declared unit;
* both runs report the same exact batch: the digest of spins, engine calls
  and RNG draws, and the engine's counts.  Tracing must never change what
  the sampler does.

Last, it copies BENCHMARK.json and the benchmark's directory, and nothing
else, into a scratch directory and asserts that the benchmark fails there
without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "3", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


def exact_line(stdout):
    for line in stdout.splitlines():
        if line.startswith("exact "):
            return json.loads(line[len("exact "):])
    raise AssertionError("no exact line in output")


def check_workload(spec, workload):
    exact = {}
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        proc = run(workload, trace)
        assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}"
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] is True and result["failed"] == 0, result
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, f"{workload} trace={trace}: metrics differ: {sorted(set(got) ^ set(want))}"
        exact[trace] = exact_line(proc.stdout)
    assert exact[0] == exact[1], f"{workload}: tracing changed the exact batch: {exact}"
    print(f"ok {workload}: {len(spec['end_to_end'])} end-to-end and {len(spec['per_layer'])} "
          f"per-layer metrics; exact batch {exact[0]['digest']} in both modes")


def check_bare_directory(spec):
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "benchmark succeeded without the sources"
    assert '"correct"' not in proc.stdout, "benchmark printed a result without the sources"
    print(f"ok bare directory: exit {proc.returncode}, {proc.stderr.strip()}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        check_workload(spec, workload["name"])
    check_bare_directory(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
