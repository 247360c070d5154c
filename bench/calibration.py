"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on shared hosts whose speed drifts by 10-20% over
minutes, for every process alike.  To keep that drift out of comparisons
between commits, the timed loop stops every SEGMENT_S seconds to time a
fixed pure-Python kernel for SLICE_S seconds, and each measured interval is
scaled by (kernel rate around it) / REFERENCE_RATE.  A reported time is thus
the time the interval would have taken while the kernel ran at
REFERENCE_RATE, the kernel's median rate on the machine the baseline was
measured on.

The kernel imports nothing from the package, so no change to the package can
move it.  Changing the kernel or REFERENCE_RATE changes every reported time,
so neither may change in a commit that claims a gain.
"""

from bisect import bisect_right
from time import perf_counter

REFERENCE_RATE = 3000.0
SLICE_S = 0.025
SEGMENT_S = 0.25

_MASK = (1 << 64) - 1
_EDGES = [0.1, 0.35, 0.6, 0.9]


def _kernel():
    """Fixed work in the sampler's style: integer mixing, tuple keys, dict
    updates, a bisect and float sums."""
    table = {}
    state = 0
    acc = 0.0
    for i in range(400):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        y = (z >> 11) * 2.0**-53
        key = (i & 31, bisect_right(_EDGES, y))
        table[key] = table.get(key, 0) + 1
        acc += y
    return acc + len(table)


def kernel_rate(seconds=SLICE_S):
    """Kernel runs per second over a slice of about ``seconds``."""
    t0 = perf_counter()
    n = 0
    while True:
        _kernel()
        n += 1
        elapsed = perf_counter() - t0
        if elapsed >= seconds:
            return n / elapsed


class Timeline:
    """Cuts a timed loop into segments of about SEGMENT_S seconds with a
    kernel slice between consecutive segments.

    Each segment is scaled by the mean kernel rate of the slices on either
    side of it, relative to REFERENCE_RATE.  Time spent in the slices is not
    loop time.
    """

    def __init__(self):
        kernel_rate()  # the interpreter specialises the kernel on first use
        self.rates = [kernel_rate()]
        self.elapsed = 0.0  # loop time outside the slices
        self.scaled = 0.0  # the same, at the reference rate
        self.factors = []  # scale factor of each window, in loop order
        self._start = perf_counter()

    def tick(self, windows, last=False):
        """Close the current segment once it is long enough (or ``last``);
        ``windows`` counts the windows completed so far."""
        now = perf_counter()
        if now - self._start < SEGMENT_S and not last:
            return
        self.rates.append(kernel_rate())
        factor = (self.rates[-2] + self.rates[-1]) / (2 * REFERENCE_RATE)
        self.elapsed += now - self._start
        self.scaled += (now - self._start) * factor
        self.factors.extend([factor] * (windows - len(self.factors)))
        self._start = perf_counter()
