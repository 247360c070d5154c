#!/usr/bin/env python3
"""Paired benchmark runs of a parent commit against the working tree.

From the repository root, for example

    python3 tools/bench_pairs.py --parent HEAD --label pr26 --pairs 10 \\
        --workload lattice-warm --workload finite-joint --workload lattice-cold
    python3 tools/bench_pairs.py --parent HEAD --label pr26 --pairs 5 \\
        --workload lattice-warm --seed 11

For each workload it runs

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

(T is the ``run_seconds`` of ``BENCHMARK.json``) on a ``git archive`` copy
of the parent ref and on the working tree, in N pairs, one pair after
another.  Which side runs first alternates from pair to pair, so a drift
of the host's speed falls on both sides alike.  The copy of the parent is
made under a temporary directory and removed at the end.

It writes ``BENCH_<label>.json`` at the repository root: the commits,
nproc, the Python and numpy versions, the seeds, each side's
``src_lines`` (the ``wc -l`` total of its ``src/ssms/*.py``, so a change
that claims to be simpler shows its line count), and for each workload,
seed and end-to-end metric of ``BENCHMARK.json`` both sides' per-run
values, median, quartiles and spread (``bench/baseline.py``'s
``summarise``), and the pairs the working tree won (by the metric's
``better`` direction).  Each run's calibration kernel rate (the median
that ``bench/run.py`` prints in its ``note calibration kernel`` line, to
which it scales its times) is kept per run and side, so a BENCH file
shows how fast the host ran.  The file is rewritten after every pair from the
second on, so an interrupted session keeps the pairs it finished.  A later
call with the same label and parent adds its workload and seed rows to the
file and replaces only the rows it runs again.  A run that fails its
exactness checks stops the script, and so does a pair whose two sides'
exact batches hash to different digests: a speed-up counts only with the
same spins, counts and draws.  Neither pair is recorded.
"""

import argparse
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from baseline import summarise  # noqa: E402


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True
    ).stdout.strip()


def archive(ref, dest):
    """Extract the tree of ``ref`` into ``dest``."""
    tar = subprocess.run(
        ["git", "archive", "--format=tar", ref], cwd=ROOT, stdout=subprocess.PIPE, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as members:
        members.extractall(dest, filter="data")


CALIBRATION = "note calibration kernel: median "


def run_once(tree, workload, seed, seconds):
    """One untraced run of ``bench/run.py`` in ``tree``: its final JSON
    object, plus the exact batch's digest and the calibration kernel's
    median rate (None when the run printed neither)."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {"correct": False}
    digest = next(
        (json.loads(line[len("exact "):])["digest"] for line in lines if line.startswith("exact ")),
        None,
    )
    result["digest"] = digest
    result["calibration_per_s"] = next(
        (float(line[len(CALIBRATION):].split("/s", 1)[0])
         for line in lines if line.startswith(CALIBRATION)),
        None,
    )
    return result


def src_lines(tree):
    """The ``wc -l`` total of ``src/ssms/*.py`` in ``tree``: its newlines."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / "src" / "ssms").glob("*.py"))


def wins(parent, change, better):
    if better == "higher":
        return sum(c > p for p, c in zip(parent, change))
    return sum(c < p for p, c in zip(parent, change))


def row(spec, pairs):
    """One workload and seed's entry of the BENCH file."""
    metrics = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [pair["parent"]["metrics"][name]["value"] for pair in pairs]
        change = [pair["change"]["metrics"][name]["value"] for pair in pairs]
        metrics[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": summarise(parent),
            "change": summarise(change),
            "wins": wins(parent, change, metric["better"]),
            "pairs": len(pairs),
        }
    sides = [pair[side] for pair in pairs for side in ("parent", "change")]
    return {
        "metrics": metrics,
        "first": [pair["first"] for pair in pairs],
        "calibration_per_s": {
            side: [pair[side]["calibration_per_s"] for pair in pairs]
            for side in ("parent", "change")
        },
        "digests": sorted({run["digest"] for run in sides}),
        "failed": sum(run["failed"] for run in sides),
        "attempted": sum(run["attempted"] for run in sides),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git ref of the parent commit")
    p.add_argument("--label", required=True, help="the file written is BENCH_<label>.json")
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--pairs", type=int, default=10, help="at least 2")
    p.add_argument("--seed", type=int, action="append", help="repeatable; default 1")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2, for quartiles")

    import numpy

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    unknown = [w for w in args.workload if w not in names]
    if unknown:
        p.error(f"unknown workload(s) {unknown}; BENCHMARK.json lists {sorted(names)}")
    seeds = args.seed or [1]
    dirty = bool(git("status", "--porcelain", "-unormal"))
    meta = {
        "label": args.label,
        "parent": git("rev-parse", args.parent),
        "change": git("rev-parse", "HEAD") + ("+working-tree" if dirty else ""),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seconds": spec["run_seconds"],
        "command": "python3 bench/run.py --workload W --seed S --seconds T --trace 0",
    }
    out = ROOT / f"BENCH_{args.label}.json"
    rows = {}
    if out.is_file():
        earlier = json.loads(out.read_text())
        if earlier["parent"] == meta["parent"]:
            rows = earlier["workloads"]
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        parent_tree = scratch / "parent"
        archive(meta["parent"], parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        meta["src_lines"] = {side: src_lines(tree) for side, tree in trees.items()}
        for workload in args.workload:
            for seed in seeds:
                pairs = []
                for i in range(args.pairs):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    pair = {"first": order[0]}
                    for side in order:
                        pair[side] = run_once(trees[side], workload, seed, meta["seconds"])
                    bad = [side for side in order if not pair[side].get("correct")]
                    if bad:
                        print(f"error: {workload} seed {seed} pair {i + 1}: the"
                              f" {' and '.join(bad)} run failed its checks; stopping",
                              file=sys.stderr)
                        return 1
                    parent, change = pair["parent"]["digest"], pair["change"]["digest"]
                    if parent != change:
                        print(f"error: {workload} seed {seed} pair {i + 1}: the parent's"
                              f" digest {parent} differs from the change's {change};"
                              " stopping", file=sys.stderr)
                        return 1
                    pairs.append(pair)
                    if len(pairs) > 1:
                        rows.setdefault(workload, {})[str(seed)] = row(spec, pairs)
                        used = sorted({int(s) for by_seed in rows.values() for s in by_seed})
                        content = {**meta, "seeds": used, "workloads": rows}
                        out.write_text(json.dumps(content, indent=1) + "\n")
                    rates = "  ".join(
                        f"{side} {pair[side]['metrics']['windows_per_s']['value']:.1f}"
                        for side in ("parent", "change")
                    )
                    print(f"{workload} seed {seed} pair {i + 1}/{args.pairs}:"
                          f" windows_per_s {rates}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
