#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

From the repository root:

    python3 bench/baseline.py --runs 10                   # print the summary
    python3 bench/baseline.py --runs 10 --trace-runs 3 --write

Each run is ``bench/run.py`` with the next seed (1, 2, ...).  For every
end-to-end metric the summary gives the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the interquartile
distance as a share of the median, next to the metric's bound from
BENCHMARK.json.  ``--write`` stores it as bench/baseline.json together with
the environment, each workload's reason and the layer-to-end-to-end map.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Which end-to-end metric each per-layer metric should move, on which
# workload, written down before any optimisation is measured against it.
LAYER_MAP = {
    "engine.* and window.overhead_s (sampler engine)": [
        "moves windows_per_s and window_p50_ms on finite-joint",
        "no change predicted on lattice-cold",
    ],
    "rng.draws_per_s (sampler RandomSource)": [
        "moves windows_per_s on finite-joint, where every call draws one variate",
    ],
    "cache.* (sampler MarginalCache)": [
        "moves windows_per_s on lattice-warm",
        "moves peak_rss_mb on every workload",
    ],
    "graph.context_key_*": ["moves windows_per_s on lattice-warm"],
    "graph.ball_*": ["moves window_p50_ms on lattice-cold"],
    "marginals.*": [
        "moves window_p50_ms on lattice-cold and setup_s on finite-joint and lattice-warm",
        "no change predicted on finite-joint windows_per_s",
    ],
    "bruteforce.*": [
        "moves window_p50_ms on lattice-cold and setup_s on finite-joint and lattice-warm",
        "no change predicted on finite-joint windows_per_s",
    ],
    "setup.import_s and setup.warmup_s": ["move setup_s on every workload"],
    "marginals.z2_max_ell": ["reach, not speed: the largest radius min_marginals completes on Z^2"],
    "trace.overhead": ["traced over untraced windows_per_s in one process; moves nothing"],
}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        print(f"FAILED: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}", flush=True)
        return None, None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0][len("env "):]), json.loads(lines[-1])


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def collect(workload, runs, seconds, trace):
    per_metric, env, failed = {}, None, 0
    for seed in range(1, runs + 1):
        env_run, result = run_once(workload, seed, seconds, trace)
        if result is None:
            failed += 1
            continue
        env = env_run
        for name, m in result["metrics"].items():
            per_metric.setdefault(name, []).append(m["value"])
    return env, {name: summarise(vals) for name, vals in per_metric.items()}, failed


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace-runs", type=int, default=0)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--write", action="store_true")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    doc = {"runs": args.runs, "trace_runs": args.trace_runs, "seconds": args.seconds,
           "layer_map": LAYER_MAP, "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        env, e2e, failed = collect(workload, args.runs, args.seconds, 0)
        steady = steady and not failed
        doc["env"] = env
        entry = {"why": whys[workload], "end_to_end": e2e}
        for name, s in e2e.items():
            ok = name == "setup_s" or s["spread"] < bounds[name] / 3
            steady = steady and ok
            print(f"{workload:13s} {name:15s} median {s['median']:11.5g} {units[name]:5s} "
                  f"q1 {s['q1']:11.5g} q3 {s['q3']:11.5g} spread {s['spread']:.4f} "
                  f"bound {bounds[name]} {'ok' if ok else 'WIDE'} "
                  + " ".join(f"{v:.4g}" for v in s["values"]), flush=True)
        if args.trace_runs:
            _, entry["per_layer"], failed = collect(workload, args.trace_runs, args.seconds, 1)
            steady = steady and not failed
        doc["workloads"][workload] = entry
    if args.write:
        with open(BENCH / "baseline.json", "w", encoding="ascii") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
