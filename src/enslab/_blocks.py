"""Work split into one block of consecutive indices per CPU.

:func:`_split` runs a loop body over ``range(length)`` as a few calls
``run(start, stop)`` on disjoint blocks: the first block on the calling
thread, the others in threads. The numpy work inside (transforms, elementwise
ufuncs, histograms) releases the GIL, so the blocks run side by side. Every
caller writes each index's result to its own slot, so what the blocks
compute does not depend on how many there are.

Worker threads must call only private kernels, never a public ``__all__``
function or a ``DiscreteDistribution`` constructor: those are the names a
profiler wraps, and its wrappers keep unsynchronized state.
"""

from __future__ import annotations

import os

# a block smaller than this (in elements) costs more to hand to a thread
# than it saves
_MIN_BLOCK_SIZE = 2**16


def _cpu_count() -> int:
    """CPUs this process may run on; the machine's count where the OS has
    no affinity call (macOS, Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split(run, length: int, size: int) -> None:
    """Call ``run(start, stop)`` on consecutive blocks covering ``range(length)``.

    ``size`` is the number of elements the whole loop touches. There is one
    block per CPU, capped by ``length`` and by _MIN_BLOCK_SIZE elements per
    block; a single block runs on the calling thread with no pool. Otherwise
    the first block runs on the calling thread and the others in threads.
    Every block runs to its end; an exception raised in one reaches the
    caller (the calling thread's first, then the lowest block's), and no
    thread outlives the call.
    """
    n_blocks = max(1, min(_cpu_count(), length, size // _MIN_BLOCK_SIZE))
    if n_blocks == 1:
        run(0, length)
        return
    # imported here: concurrent.futures pulls in logging and queue, start-up
    # cost for every run that never splits
    from concurrent.futures import ThreadPoolExecutor

    bounds = [(length * i // n_blocks, length * (i + 1) // n_blocks) for i in range(n_blocks)]
    with ThreadPoolExecutor(max_workers=n_blocks - 1) as pool:
        others = [pool.submit(run, start, stop) for start, stop in bounds[1:]]
        try:
            run(*bounds[0])
        finally:
            errors = [future.exception() for future in others]  # waits for each
    for error in errors:
        if error is not None:
            raise error
