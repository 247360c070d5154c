"""Command-line surface: sample windows, tabulate contraction radii, run
verification suites.

Every failure exits nonzero after printing a single ``code: message`` line
on stderr, where ``code`` is the machine-readable error name.
"""

import argparse
import csv
import json
import re
import sys

from .analysis import branching_bound
from .errors import ConfigError, SsmsError, TooLargeError
from .graph import Lattice, LineGraph, graph_from_spec
from .marginals import estimate_mixing_rate
from .sampler import DEFAULT_BUDGET, RandomSource, WindowSampler
from .spinsys import coloring, hardcore, ising, partition_function
from .verify import run_suite

_BOX_RE = re.compile(r"^box:(\d+)x(\d+)@(-?\d+),(-?\d+)$")


# model name -> (the one flag it takes, its constructor, whether it runs on
# the line graph); matchings of G weighted by gamma^|M| are the site
# configurations of L(G)
MODELS = {
    "hardcore": ("--lambda", hardcore, False),
    "ising": ("--lambda", ising, False),
    "coloring": ("--q", coloring, False),
    "monomer-dimer": ("--gamma", hardcore, True),
}


def build_system(args):
    """(system, graph) from the model flags, with strict parameter pairing."""
    name = args.model
    wanted, make, on_line_graph = MODELS[name]
    given = {"--lambda": args.lam, "--q": args.q, "--gamma": args.gamma}
    if given[wanted] is None:
        raise ConfigError(f"--model {name} requires {wanted}")
    extras = [k for k, v in given.items() if v is not None and k != wanted]
    if extras:
        raise ConfigError(f"--model {name} does not take {extras[0]}")
    system = make(given[wanted])
    graph = graph_from_spec(args.graph)
    return system, LineGraph(graph) if on_line_graph else graph


def parse_window(graph, spec):
    """Window spec -> (vertex tuple, box geometry or None).

    Forms: ``all`` (finite graphs), ``box:WxH@x,y`` (two-dimensional
    lattice), ``list:v1;v2;...`` (any graph, vertices in the graph's own
    notation).
    """
    if spec == "all":
        if not graph.is_finite():
            raise ConfigError("window 'all' needs a finite graph")
        return tuple(graph.vertices()), None
    m = _BOX_RE.match(spec)
    if m:
        if not (isinstance(graph, Lattice) and graph.dim == 2):
            raise ConfigError("box windows are only defined on the square lattice")
        w, h, x0, y0 = (int(g) for g in m.groups())
        return graph.box((x0, y0), (w, h)), (x0, y0, w, h)
    if spec.startswith("list:"):
        items = [s for s in spec[len("list:"):].split(";") if s]
        if not items:
            raise ConfigError("empty window list")
        return tuple(graph.parse_vertex(s) for s in items), None
    raise ConfigError(f"cannot parse window spec {spec!r}")


def write_spin_csv(path, graph, window, spins):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["vertex", "spin"])
        for v in window:
            writer.writerow([graph.format_vertex(v), spins.spin(v)])


def write_pgm(path, box, spins):
    """Binary PGM of a two-spin box window: spin 1 -> 0, spin 2 -> 255."""
    x0, y0, w, h = box
    body = bytearray()
    for y in range(y0, y0 + h):
        for x in range(x0, x0 + w):
            body.append(0 if spins.spin((x, y)) == 1 else 255)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(bytes(body))


def write_report(path, seed, system, radius, graph, window, stats):
    """JSON summary of a window run.  ``wall_time_ms`` is always null, so
    one configuration always writes the same bytes."""
    doc = {
        "seed": seed,
        "model": system.label,
        "radius": radius,
        "window": [graph.format_vertex(v) for v in window],
        "total_calls": stats.total_calls,
        "max_depth": stats.max_depth,
        "indecision_events": stats.indecision_events,
        "wall_time_ms": None,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def _emit(text, path):
    """Write ``text`` to the file ``path``, or to stdout without one."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_sample(args):
    system, graph = build_system(args)
    window, box = parse_window(graph, args.window)
    if args.seed < 1:
        raise ConfigError(f"--seed must be positive, got {args.seed}")
    wants_pgm = box is not None and system.q == 2
    if args.pgm is not None and not wants_pgm:
        raise ConfigError("--pgm needs a box window and a two-spin model")
    # The sampler checks --radius and --budget, before any enumeration.
    sampler = WindowSampler(system, graph, args.radius, budget=args.budget)
    if graph.is_finite():
        # catches systems with no feasible configuration at all, such as
        # too few colors for the graph; skipped when enumeration is too big
        try:
            partition_function(system, graph)
        except TooLargeError:
            pass
    rng = RandomSource(args.seed)
    spins, stats = sampler.sample_window(window, rng)
    write_spin_csv(args.csv, graph, window, spins)
    # the stream's own seed: RandomSource keeps the low 64 bits of --seed
    write_report(args.json, rng.seed, system, args.radius, graph, window, stats)
    wrote = [args.csv, args.json]
    if wants_pgm:
        pgm_path = args.pgm or "sample.pgm"
        write_pgm(pgm_path, box, spins)
        wrote.append(pgm_path)
    print(
        f"sampled {len(window)} vertices in {stats.total_calls} calls; "
        f"wrote {', '.join(wrote)}"
    )
    return 0


def parse_ells(text):
    """The integers of a comma list; ``estimate_mixing_rate`` checks them."""
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise ConfigError(f"cannot parse radii list {text!r}") from None


def cmd_estimate_mixing(args):
    system, graph = build_system(args)
    probes = None
    if args.probes:
        probes = [graph.parse_vertex(s) for s in args.probes.split(";") if s]
    rate = estimate_mixing_rate(system, graph, parse_ells(args.ells), probes)
    bounds = [branching_bound(system, graph, ell, rate) for ell in rate]
    least = next((b.ell for b in bounds if b.contractive), None)
    lines = ["ell,f_hat,growth,alpha,is_least_contractive"]
    for b in bounds:
        flag = int(b.ell == least)
        lines.append(f"{b.ell},{b.f!r},{b.g},{b.alpha!r},{flag}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args):
    result = run_suite(args.suite, seed=args.seed)
    _emit(result.to_csv(), args.out)
    return 0 if result.passed else 1


def _add_model_flags(sub):
    sub.add_argument("--model", required=True, choices=MODELS)
    sub.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="activity (hardcore) or edge weight (ising)")
    sub.add_argument("--q", type=int, default=None, help="number of colors")
    sub.add_argument("--gamma", type=float, default=None,
                     help="matching weight (monomer-dimer)")
    sub.add_argument("--graph", required=True,
                     help="z<d> | tree:<degree> | file:<path> | line:<spec>")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ssms",
        description="Perfect sampling of spin-system windows via marginal recursion.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sample = subs.add_parser("sample", help="sample a window and write CSV/JSON/PGM")
    _add_model_flags(sample)
    sample.add_argument("--window", required=True,
                        help="all | box:WxH@x,y | list:v1;v2;...")
    sample.add_argument("--radius", required=True, type=int, help="recursion radius")
    sample.add_argument("--seed", required=True, type=int)
    sample.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="call budget per window vertex (default 10^7)")
    sample.add_argument("--csv", default="sample.csv")
    sample.add_argument("--json", default="report.json")
    sample.add_argument("--pgm", default=None,
                        help="PGM output path (default sample.pgm; box windows of two-spin models)")
    sample.set_defaults(func=cmd_sample)

    est = subs.add_parser("estimate-mixing",
                          help="tabulate empirical decay rates and contraction")
    _add_model_flags(est)
    est.add_argument("--ells", required=True, help="comma list of radii, e.g. 1,2,3")
    est.add_argument("--probes", default=None,
                     help="semicolon list of probe vertices (default: built-in probes)")
    est.add_argument("--out", default=None, help="CSV output path (default stdout)")
    est.set_defaults(func=cmd_estimate_mixing)

    ver = subs.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", help="distribution | lemma1 | runtime | coupling")
    ver.add_argument("--seed", type=int, default=1)
    ver.add_argument("--out", default=None, help="CSV output path (default stdout)")
    ver.set_defaults(func=cmd_verify)
    return parser


def main():
    args = build_parser().parse_args()
    try:
        return args.func(args)
    except SsmsError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # an output path that cannot be written is a configuration fault
        print(f"{ConfigError.code}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
