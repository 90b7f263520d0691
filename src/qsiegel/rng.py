"""Counter-based random number generation.

Monte Carlo estimators draw samples in fixed-size blocks; the generator for
block b of stream s under seed q is Philox keyed by (q, s, b).  Sample i is
produced by block i // BLOCK inside a run of exactly BLOCK draws, so the value
of sample i depends only on (seed, stream, i) and never on how work is
scheduled.
"""
import numpy as np

BLOCK = 1024


def block_generator(seed, stream, block):
    """Generator for one block of one logical stream."""
    key = np.array(
        [np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(((stream & 0xFFFFFFFF) << 32) | (block & 0xFFFFFFFF))],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def blocks(seed, stream, count):
    """Yield (generator, rows) for each block of ``count`` samples of a stream.

    ``rows`` is the slice of sample indices the block produces.  A block
    always draws BLOCK rows and keeps the first ``rows.stop - rows.start``.
    """
    for b in range(0, count, BLOCK):
        yield block_generator(seed, stream, b // BLOCK), slice(b, min(b + BLOCK, count))
