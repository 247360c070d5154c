"""Sample a small window of the hard-core model on the square lattice.

Draws a 9x9 patch at activity 0.3 with recursion radius 2, prints it as
ASCII art, and writes a PGM image next to this script.
"""

import os
import time

from ssms import Lattice, RandomSource, WindowSampler, hardcore
from ssms.cli import write_pgm

LAM = 0.3
ELL = 2
SIDE = 9
SEED = 2024

z2 = Lattice(2)
window = z2.box((0, 0), (SIDE, SIDE))
sampler = WindowSampler(hardcore(LAM), z2, ELL)

t0 = time.perf_counter()
spins, stats = sampler.sample_window(window, RandomSource(SEED))
dt = time.perf_counter() - t0

occupied = sum(1 for v in window if spins.spin(v) == 2)
print(f"model {sampler.system.label}, radius {ELL}, seed {SEED}")
print(f"{len(window)} sites in {stats.total_calls} calls "
      f"({stats.indecision_events} indecision events, "
      f"max depth {stats.max_depth}, {dt:.2f} s)")
print(f"occupation {occupied}/{len(window)} = {occupied / len(window):.3f} "
      f"(isolated-site odds would be {LAM / (1 + LAM):.3f})")
print()

for y in range(SIDE):
    print(" ".join("#" if spins.spin((x, y)) == 2 else "." for x in range(SIDE)))

# same picture as a grayscale file, occupied sites white
out = os.path.join(os.path.dirname(__file__) or ".", "lattice_window.pgm")
write_pgm(out, (0, 0, SIDE, SIDE), spins)
print(f"\nwrote {out}")
