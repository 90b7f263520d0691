"""Counter-based random number generation.

Monte Carlo estimators draw samples in fixed-size blocks; the generator for
block b of stream s under seed q is Philox keyed by (q, s, b).  Sample i is
produced by block i // BLOCK inside a run of exactly BLOCK draws, so the value
of sample i depends only on (seed, stream, i).  ``blocks`` serves one call
with one generator, re-keyed for each block.

The keys would let blocks run on threads with the same results, but sampling
stays on one: each draw is a short numpy call that releases the GIL, and beside
any other busy Python thread it waits out the 5 ms switch interval to take it
back.  ``standard_exponential((4, 1024))`` on a re-keyed generator made about
21 000 calls/s alone and 190 beside a pure-Python counter thread, and a
2-worker pool over 4096- and 8192-row blocks ran the ``mc`` benchmark's Bergman
requests 18-28% slower than one thread (4 interleaved rounds, 2-core x86-64).
"""
import numpy as np

BLOCK = 1024


def _key_word(stream, block):
    return ((stream & 0xFFFFFFFF) << 32) | (block & 0xFFFFFFFF)


def _key(seed, stream, block):
    return np.array([seed & 0xFFFFFFFFFFFFFFFF, _key_word(stream, block)], dtype=np.uint64)


def block_generator(seed, stream, block):
    """Generator for one block of one logical stream."""
    return np.random.Generator(np.random.Philox(key=_key(seed, stream, block)))


def blocks(seed, stream, count):
    """Yield (generator, rows) for each block of samples 0..``count - 1``.

    ``rows`` is the slice of sample indices the block produces.  A block
    always draws BLOCK rows and keeps the first ``rows.stop - rows.start``.
    One generator is re-keyed for each block of one call, which draws exactly
    what ``block_generator`` would and costs far less than building a new
    one; it is valid until the next block is yielded.
    """
    bits = np.random.Philox(key=_key(seed, stream, 0))
    gen = np.random.Generator(bits)
    fresh = bits.state
    for b in range(0, count, BLOCK):
        fresh["state"]["key"][1] = _key_word(stream, b // BLOCK)
        bits.state = fresh
        yield gen, slice(b, min(b + BLOCK, count))
