"""Compare predicted and observed call counts across recursion radii.

For each configuration the script estimates the decay rate f(ell)
empirically, evaluates alpha = q * f * g, and where alpha < 1 checks the
1/(1-alpha) bound against the mean over two thousand independent runs.
The lattice rows show that alpha past 1 is common there; the finite
graphs have certified regimes.
"""

from ssms import (
    Lattice,
    RandomSource,
    WindowSampler,
    branching_bound,
    cycle_graph,
    estimate_mixing_rate,
    hardcore,
    hardcore_radius1_bound,
    ising,
    path_graph,
    petersen_graph,
    verify_tree_bound,
)

RUNS = 2000

cases = [
    ("path P3", path_graph(3), hardcore(1.0), 1),
    ("path P3", path_graph(3), hardcore(1.0), 2),
    ("cycle C5", cycle_graph(5), hardcore(1.0), 2),
    ("cycle C5", cycle_graph(5), ising(1.5), 2),
    ("petersen", petersen_graph(), hardcore(0.2), 1),
    ("Z^2", Lattice(2), hardcore(0.2), 1),
]

for name, graph, system, ell in cases:
    rate = estimate_mixing_rate(system, graph, [ell])
    b = branching_bound(system, graph, ell, rate)
    line = (f"{system.label:22s} {name:10s} ell={ell}  "
            f"f={b.f:.5f}  g={b.g}  alpha={b.alpha:.4f}")
    if not b.contractive:
        print(line + "  not contractive, no finite bound")
        continue
    start = next(iter(graph.vertices()))
    sampler = WindowSampler(system, graph, ell)
    seeder = RandomSource(ell)
    runs = []
    for _ in range(RUNS):
        _, stats = sampler.sample_window([start], RandomSource(seeder.next_uint64()))
        runs.append(stats)
    check = verify_tree_bound(runs, b.expected_calls)
    verdict = "ok" if check.passed else "EXCEEDED"
    print(line + f"  bound={b.expected_calls:.3f}  "
                 f"mean={check.mean_calls:.3f}  {verdict}")

print()
print("alpha past 1 does not always mean divergence, only that the")
print("dominating branching process stops certifying termination.")

# the hard-core chain on the petersen graph is a case in point: alpha is
# exactly 1 there, yet the sharper model-specific count still certifies
limit = hardcore_radius1_bound(0.2, 3)
sampler = WindowSampler(hardcore(0.2), petersen_graph(), 1)
seeder = RandomSource(7)
runs = []
for _ in range(RUNS):
    _, stats = sampler.sample_window([1], RandomSource(seeder.next_uint64()))
    runs.append(stats)
check = verify_tree_bound(runs, limit)
print(f"degree-3 hard-core bound at activity 0.2: {limit:.1f} calls, "
      f"observed mean {check.mean_calls:.3f} "
      f"({'ok' if check.passed else 'EXCEEDED'})")
