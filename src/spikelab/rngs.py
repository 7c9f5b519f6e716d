"""Named, counter-based random streams.

Every random draw in the package flows through `stream`, which derives an
independent Philox generator from (seed, *names). Streams are stable across
runs and platforms, so a recorded seed reproduces a trace exactly.

`stream`'s return annotation is a string, so importing the package does not
load numpy.random: the first stream does (an FNN's init or dataset, a cold
probe start, `verify`). A run that draws nothing, such as a quadratic run
without a cold probe start, never loads it.
"""

import zlib

import numpy as np


def _key(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part)
    return zlib.crc32(str(part).encode("utf-8"))


def stream(seed: int, *names) -> "np.random.Generator":
    """Return a Generator for the named substream of `seed`.

    Name parts may be strings or ints; ("probe", 17) and ("probe", 18) give
    independent streams.
    """
    entropy = [int(seed)] + [_key(p) for p in names]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
