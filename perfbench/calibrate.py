"""A fixed pure-Python loop that measures the machine's current speed.

The benchmark runs on shared virtual machines whose CPU speed drifts by
10–40% over seconds and minutes, in wall time and CPU time alike, and
slows the program and this loop together.  ``worker.py`` runs the loop
right before and right after every timed call into ``mdr6``; ``run.py``
scales each call's time by ``REFERENCE_S`` over the loop's time around it,
so that the end-to-end metrics are those of one fixed machine speed.

The loop does the kind of work the shard path does (bytes to int, XOR of
big ints, and filling fresh memory with 1 MiB of blocks) on fixed input,
uses only the standard library, and never changes with ``mdr6``: a faster
or slower program moves the metrics, a faster or slower machine moves this
loop as well and cancels out.  The fresh memory is an anonymous mapping,
not a heap buffer: what the allocator does with a 1 MiB request depends on
the sizes the program allocated and freed before, and a mapping's cost
does not.
"""

from __future__ import annotations

import gc
import mmap
import random
import time

BLOCK = 4096
_BLOCKS = [random.Random(0).randbytes(BLOCK) for _ in range(64)]
_ROUNDS = 4
_BLOB = b"".join(_BLOCKS) * _ROUNDS

# About the loop's median time, in seconds, on the machine the baseline in
# README.md was measured on (2-core virtual machine, Python 3.11.7), so
# that scaled times read as that machine's at its usual speed.
REFERENCE_S = 0.0015


def loop_s() -> float:
    """Seconds one pass of the fixed loop takes now.  The collector is off
    during the pass, so the program's heap does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        ints = [int.from_bytes(block, "little") for block in _BLOCKS]
        acc = 0
        for _ in range(_ROUNDS):
            for value in ints:
                acc ^= value
        acc.to_bytes(BLOCK, "little")
        with mmap.mmap(-1, len(_BLOB)) as fresh:
            fresh[:] = _BLOB
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
