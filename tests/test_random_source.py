"""The block-drawn splitmix64 stream against the scalar generator it replaces.

``RandomSource`` computes its words in numpy blocks of 32, 64, ... up to
4,096 words.  ``ScalarSplitmix64`` below is the generator as it was before:
one state advanced by the golden gamma and mixed per word.  Both
``next_uint64`` and ``next_double`` read the next word of the one stream,
so any interleaving of the two must give the scalar generator's words and
doubles, across every block edge, and ``counter`` must count the doubles.
``next_double`` is the ``__next__`` of an iterator over the blocks, so the
engine's way of drawing (the attribute bound once, before the first draw)
is checked too, and so is that a dropped stream is freed without the
cycle collector.
"""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssms import RandomSource


class ScalarSplitmix64:
    """splitmix64 one word at a time: the reference stream."""

    _MASK = (1 << 64) - 1

    def __init__(self, seed):
        self._state = int(seed) & self._MASK
        self.counter = 0

    def next_uint64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & self._MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self._MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self._MASK
        return z ^ (z >> 31)

    def next_double(self):
        self.counter += 1
        return (self.next_uint64() >> 11) * (2.0**-53)


SEEDS = (0, 1, 42, 2**63, 2**64 - 1, -1, 2**70 + 5)


def _block_edges(total):
    """Stream positions where a block ends: 32 words first, each later
    block twice the last, up to 4,096."""
    edges = []
    size = 32
    end = 0
    while end + size <= total:
        end += size
        edges.append(end)
        size = min(2 * size, 4096)
    return edges


EDGES = _block_edges(13_000)
# One short of, at and one past every block edge, around the largest block
# size (4,095-4,097) and past 8,192 words.
LENGTHS = sorted({n + d for n in EDGES for d in (-1, 0, 1)} | {4095, 4096, 4097, 8193})


def _compare(seed, ops):
    """Draw ``ops`` (True: a word, False: a double) from both streams and
    return the first position where they differ, or None."""
    got = RandomSource(seed)
    want = ScalarSplitmix64(seed)
    for i, word in enumerate(ops):
        if word:
            if got.next_uint64() != want.next_uint64():
                return i
        elif got.next_double() != want.next_double():
            return i
        if got.counter != want.counter:
            return i
    return None


@pytest.mark.parametrize("seed", SEEDS)
def test_pure_streams_match_the_scalar_generator_past_every_edge(seed):
    n = LENGTHS[-1]
    assert _compare(seed, [True] * n) is None
    assert _compare(seed, [False] * n) is None
    rng = RandomSource(seed)
    for _ in range(n):
        rng.next_double()
    assert rng.counter == n


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.sampled_from(SEEDS),
    n=st.sampled_from(LENGTHS),
    share=st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)),
    mix=st.integers(0, 2**32 - 1),
)
def test_interleaved_draws_match_the_scalar_generator(seed, n, share, mix):
    rnd = random.Random(mix)
    ops = [rnd.random() < share for _ in range(n)]
    assert _compare(seed, ops) is None
    rng = RandomSource(seed)
    for word in ops:
        rng.next_uint64() if word else rng.next_double()
    assert rng.counter == ops.count(False)


def test_seed_keeps_its_low_64_bits():
    assert RandomSource(-1).seed == 2**64 - 1
    assert RandomSource(2**70 + 5).seed == 5
    a, b = RandomSource(-1), RandomSource(2**64 - 1)
    assert [a.next_uint64() for _ in range(40)] == [b.next_uint64() for _ in range(40)]


def test_a_draw_bound_before_the_first_draw_follows_the_scalar_generator():
    # As the engine draws: ``next_double`` bound once, before the first
    # draw, with words taken between the draws across the first four block
    # edges (after 32, 96, 224 and 480 words).  Words are taken at every
    # fifth position and at 31, 32, 96, 223 and 480, so blocks 2, 3 and 5
    # begin with a word and block 4 with a draw.
    rng = RandomSource(42)
    draw = rng.next_double
    want = ScalarSplitmix64(42)
    words = {*range(0, 485, 5), 31, 32, 96, 223, 480}
    assert rng.counter == 0
    for position in range(485):
        if position in words:
            assert rng.next_uint64() == want.next_uint64(), position
        else:
            assert draw() == want.next_double(), position
        assert rng.counter == want.counter, position
    assert EDGES[:4] == [32, 96, 224, 480]


def _streams():
    return sum(isinstance(o, RandomSource) for o in gc.get_objects())


def test_a_dropped_stream_is_freed_without_the_cycle_collector():
    # The block generator keeps its state apart from its RandomSource, so no
    # reference cycle keeps a stream alive once it is dropped.  The count of
    # live streams is the sharper check: a cycle through a suspended
    # generator's frame is broken when the collector closes the generator,
    # so ``gc.collect()`` can report 0 although it freed such a stream.
    gc.collect()
    gc.disable()
    try:
        before = _streams()
        for seed in range(1_000):
            rng = RandomSource(seed)
            for _ in range(40):
                rng.next_double()
            rng.next_uint64()
            del rng
        left = _streams()
        found = gc.collect()
    finally:
        gc.enable()
    assert left == before
    assert found == 0
