"""Command-line surface: sample windows, tabulate contraction radii, run
verification suites.

Every failure exits nonzero after printing a single ``code: message`` line
on stderr, where ``code`` is the machine-readable error name.
"""

import argparse
import csv
import re
import sys
from dataclasses import dataclass

from .analysis import branching_bound
from .errors import ConfigError, SsmsError, TooLargeError
from .graph import Lattice, LineGraph, graph_from_spec
from .marginals import default_probes, estimate_mixing_rate
from .sampler import RandomSource, WindowSampler, budget_from_env
from .spinsys import coloring, hardcore, ising, partition_function
from .verify import run_suite

_BOX_RE = re.compile(r"^box:(\d+)x(\d+)@(-?\d+),(-?\d+)$")


@dataclass(frozen=True)
class RunConfig:
    """A fully parsed sampling run."""

    system: object
    graph: object
    window: tuple
    box: tuple  # (x0, y0, width, height) when the window came from box syntax
    ell: int
    seed: int
    budget: int
    csv_path: str
    json_path: str
    pgm_path: str


def build_model(args):
    """Model constructor dispatch, with strict parameter pairing."""
    name = args.model
    given = {
        "--lambda": args.lam,
        "--q": args.q,
        "--gamma": args.gamma,
    }
    needs = {
        "hardcore": "--lambda",
        "ising": "--lambda",
        "coloring": "--q",
        "monomer-dimer": "--gamma",
    }
    try:
        wanted = needs[name]
    except KeyError:
        raise ConfigError(f"unknown model {name!r}") from None
    if given[wanted] is None:
        raise ConfigError(f"--model {name} requires {wanted}")
    extras = [k for k, v in given.items() if v is not None and k != wanted]
    if extras:
        raise ConfigError(f"--model {name} does not take {extras[0]}")
    if name == "hardcore":
        return hardcore(args.lam), False
    if name == "ising":
        return ising(args.lam), False
    if name == "coloring":
        return coloring(args.q), False
    # matchings of G weighted by gamma^|M| are site configurations of L(G)
    return hardcore(args.gamma), True


def build_system(args):
    system, on_line_graph = build_model(args)
    graph = graph_from_spec(args.graph)
    if on_line_graph:
        graph = LineGraph(graph)
    return system, graph


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


def make_run_config(args):
    system, graph = build_system(args)
    window, box = parse_window(graph, args.window)
    if args.radius < 1:
        raise ConfigError(f"--radius must be >= 1, got {args.radius}")
    if args.seed < 1:
        raise ConfigError(f"--seed must be positive, got {args.seed}")
    budget = args.budget if args.budget is not None else budget_from_env()
    if budget < 1:
        raise ConfigError(f"--budget must be positive, got {budget}")
    for v in window:
        graph.check_vertex(v)
    return RunConfig(
        system=system,
        graph=graph,
        window=window,
        box=box,
        ell=args.radius,
        seed=args.seed,
        budget=budget,
        csv_path=args.csv,
        json_path=args.json,
        pgm_path=args.pgm or "sample.pgm",
    )


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


def cmd_sample(args):
    cfg = make_run_config(args)
    wants_pgm = cfg.box is not None and cfg.system.q == 2
    if args.pgm is not None and not wants_pgm:
        raise ConfigError("--pgm needs a box window and a two-spin model")
    if cfg.graph.is_finite():
        # catches systems with no feasible configuration at all, such as
        # too few colors for the graph; skipped when enumeration is too big
        try:
            partition_function(cfg.system, cfg.graph)
        except TooLargeError:
            pass
    sampler = WindowSampler(cfg.system, cfg.graph, cfg.ell, budget=cfg.budget)
    spins, report = sampler.sample_window(cfg.window, RandomSource(cfg.seed))
    write_spin_csv(cfg.csv_path, cfg.graph, cfg.window, spins)
    with open(cfg.json_path, "w") as fh:
        fh.write(report.to_json(deterministic=True))
    wrote = [cfg.csv_path, cfg.json_path]
    if wants_pgm:
        write_pgm(cfg.pgm_path, cfg.box, spins)
        wrote.append(cfg.pgm_path)
    print(
        f"sampled {len(cfg.window)} vertices in {report.total_calls} calls; "
        f"wrote {', '.join(wrote)}"
    )
    return 0


def parse_ells(text):
    parts = [p for p in text.split(",") if p.strip()]
    try:
        ells = sorted({int(p) for p in parts})
    except ValueError:
        raise ConfigError(f"cannot parse radii list {text!r}") from None
    if not ells or ells[0] < 1:
        raise ConfigError(f"--ells needs a nonempty list of radii >= 1, got {text!r}")
    return ells


def cmd_estimate_mixing(args):
    system, graph = build_system(args)
    ells = parse_ells(args.ells)
    if args.probes:
        probes = tuple(graph.parse_vertex(s) for s in args.probes.split(";") if s)
        if not probes:
            raise ConfigError("empty probe list")
    else:
        probes = default_probes(graph)
    rate = estimate_mixing_rate(system, graph, ells, probes)
    bounds = [branching_bound(system, graph, ell, rate) for ell in ells]
    least = next((b.ell for b in bounds if b.contractive), None)
    lines = ["ell,f_hat,growth,alpha,is_least_contractive"]
    for b in bounds:
        flag = int(b.ell == least)
        lines.append(f"{b.ell},{b.f!r},{b.g},{b.alpha!r},{flag}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify(args):
    result = run_suite(args.suite, seed=args.seed)
    text = result.to_csv()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if result.passed else 1


def _add_model_flags(sub):
    sub.add_argument("--model", required=True,
                     choices=["hardcore", "ising", "coloring", "monomer-dimer"])
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
    sample.add_argument("--budget", type=int, default=None,
                        help="call budget per window vertex (default from SSMS_BUDGET)")
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


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SsmsError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
