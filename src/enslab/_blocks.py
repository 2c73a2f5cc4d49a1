"""Two fork-joins: threads over one shared array, processes over independent members.

:func:`_split` runs a loop body over ``range(length)`` as a few calls
``run(start, stop)`` on disjoint blocks, one per CPU: block 0 on the calling
thread, each other block on a thread of its own, all joined before it
returns. It returns the blocks' values in block order; a block writes
per-index results only to its own slots, so what the threads compute does
not depend on how many run. The work inside the blocks (numpy transforms,
ufuncs, reductions, histograms and random draws, and ``hashlib`` on a large
buffer) releases the GIL, so the blocks run side by side. Its callers are
the field transforms in ``randomfield`` and the spin echo's samples.
:func:`_both` runs two jobs as the two indices of one ``_split``; its one
caller is the CLI's hash of ``field.bin`` beside the field's moments.
:func:`_handoff` is the one place work passes between live threads, as the
two blocks of one ``_split``: in ``generate`` block 1 draws the noise slab
by slab while block 0, on the calling thread, builds the amplitude table,
and each drawn slab's forward transform goes to whichever block takes it
next.
Blocks must call only private kernels, never a public ``__all__`` function,
a ``DiscreteDistribution`` constructor or the CLI's encoders: those are the
names a profiler wraps, and its wrappers keep unsynchronized state.

:func:`_fork_join` runs independent ensemble members (the cone's members,
the suppression curve's seeds) as one block of consecutive members per CPU:
block 0 in this process, each other block in a process forked from it. Its
blocks make many small numpy calls, which would hand the GIL back and forth
between threads. It owns the results' table: it allocates numpy's table,
then a :func:`_shared_table` that the blocks write, one column per member,
and fills numpy's from it after the join. So the outputs do not depend on
the CPU count, and no caller touches the mapping.
"""

from __future__ import annotations

import errno
import os
import threading

import numpy as np

from .errors import NumericsError

# a block smaller than this (in elements) costs more to hand to a thread
# than it saves
_MIN_BLOCK_SIZE = 2**16
# fewest members a forked block takes: a fork and its reap cost about 2.5 ms,
# and a block of 64 cone members spends about 4.5 ms on its draws alone
_MIN_FORKED_BLOCK = 64


def _cpu_count() -> int:
    """CPUs this process may run on; the machine's count where the OS has
    no affinity call (macOS, Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split(run, length: int, size: int) -> list:
    """Call ``run(start, stop)`` on consecutive blocks covering ``range(length)``
    and return the calls' values in block order.

    ``size`` is the number of elements the whole loop touches: there is one
    block per CPU, capped by ``length`` and by _MIN_BLOCK_SIZE elements per
    block. Block 0 runs on the calling thread and each other block on a
    thread started for it, so a single block starts no thread. Every block
    runs to its end and every thread is joined before this returns or
    raises; then block 0's exception is raised first, else the lowest
    block's. This is the one place that starts, joins and fails threads.
    """
    n_blocks = max(1, min(_cpu_count(), length, size // _MIN_BLOCK_SIZE))
    bounds = _bounds(length, n_blocks)
    values, errors = [None] * n_blocks, [None] * n_blocks

    def block(i):
        try:
            values[i] = run(*bounds[i])
        except Exception as exc:  # raised on the calling thread after the join
            errors[i] = exc

    threads = [threading.Thread(target=block, args=(i,), daemon=True) for i in range(1, n_blocks)]
    for thread in threads:
        thread.start()
    try:
        values[0] = run(*bounds[0])
    finally:
        for thread in threads:
            thread.join()
    for error in errors:
        if error is not None:
            raise error
    return values


def _bounds(length: int, n_blocks: int) -> list:
    """``(start, stop)`` of ``n_blocks`` consecutive blocks covering
    ``range(length)``, their sizes differing by at most one."""
    return [(length * i // n_blocks, length * (i + 1) // n_blocks) for i in range(n_blocks)]


def _both(first, second, size: int) -> tuple:
    """``(first(), second())``: ``first`` on the calling thread, ``second``
    beside it on a thread exactly when :func:`_split` would make two blocks
    of two jobs of ``size`` elements. ``first``'s exception wins."""
    blocks = _split(lambda start, stop: [job() for job in (first, second)[start:stop]], 2, size)
    return tuple(value for block in blocks for value in block)


def _handoff(job, produce, consume, length: int, size: int):
    """``job()``'s value, after ``produce(i)`` and then ``consume(i)`` for
    every i in ``range(length)``.

    The two blocks of one :func:`_split` of two jobs of ``size`` elements:
    block 0, on the calling thread, runs ``job()``, and block 1 calls
    ``produce(i)`` for every i in order; one block does both, ``job()``
    first. Each produced index is then consumed once, by whichever block
    takes it next, in order: block 0 waits while the next index is not
    produced yet, and block 1 takes indices once it has produced them all.
    A failure in either block stops the other before its next index.
    """
    ready = threading.Condition()
    produced = taken = 0
    stopped = False  # set by a failure in either block

    def take():
        """The next index to consume, or None once every one is taken or
        the hand-off stopped."""
        nonlocal taken
        with ready:
            while not stopped and taken == produced < length:
                ready.wait()
            if stopped or taken == length:
                return None
            taken += 1
            return taken - 1

    def block(start, stop):
        nonlocal produced, stopped
        try:
            value = job() if start == 0 else None
            if stop == 2:
                for i in range(length):
                    with ready:
                        if stopped:
                            return None
                    produce(i)
                    with ready:
                        produced += 1
                        ready.notify()
            while (i := take()) is not None:
                consume(i)
            return value
        except BaseException:
            with ready:
                stopped = True
                ready.notify()
            raise

    return _split(block, 2, size)[0]


def _shared_table(rows: int, n: int) -> np.ndarray:
    """A (rows, n) float64 table in an anonymous shared mapping, which forked
    children write and this process reads. A mapping the OS refuses is a
    MemoryError."""
    import mmap  # here: importing the CLI does not load it

    try:
        shared = mmap.mmap(-1, 8 * rows * n)
    except OSError as exc:
        if exc.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"Unable to map {8 * rows * n} bytes for a shared table") from exc
    return np.frombuffer(shared, dtype=np.float64).reshape(rows, n)


def _fork_join(run, rows: int, n: int, what: str) -> np.ndarray:
    """Call ``run(table, start, stop, parent)`` on consecutive blocks
    covering ``range(n)``, one per CPU, with :func:`_bounds`, and return the
    (rows, n) float64 table the blocks wrote, column ``j`` by member ``j``'s
    block.

    numpy's table is allocated first, so a size too big fails with numpy's
    message, and then the :func:`_shared_table` that every block writes;
    after the join numpy's table is filled from it.

    Block 0 runs in this process with ``parent`` None. Each other block runs
    in a child made by ``os.fork``, with ``parent`` this process's id (see
    :func:`_check_parent`); the child ends only by ``os._exit``, 0 if
    ``run`` returned and 1 if it raised anything. A fork that the OS refuses
    runs its block here. There is one block where ``os.fork`` is missing,
    where another thread is alive (a fork copies no thread but the
    caller's, whatever locks the others hold) or where a block would get
    fewer than ``_MIN_FORKED_BLOCK`` members. Every child is reaped before
    this returns or raises: if block 0 or a wait raises (a KeyboardInterrupt
    included), or a child fails, the children still running are killed
    first. A failed child raises NumericsError naming its members, which
    ``what`` calls members or seeds.
    """
    import signal

    result = np.empty((rows, n))
    table = _shared_table(rows, n)
    forkable = hasattr(os, "fork") and threading.active_count() == 1
    n_blocks = max(1, min(_cpu_count(), n // _MIN_FORKED_BLOCK)) if forkable else 1
    bounds = _bounds(n, n_blocks)
    parent = os.getpid()
    children = {}  # pid -> (start, stop), until reaped
    try:
        for start, stop in bounds[1:]:
            try:
                pid = os.fork()
            except OSError:  # no process to spare
                run(table, start, stop, None)
                continue
            if pid == 0:
                _child(run, table, start, stop, parent)
            children[pid] = (start, stop)
        run(table, *bounds[0], None)
        for pid in list(children):
            status = os.waitpid(pid, 0)[1]
            start, stop = children.pop(pid)
            if status != 0:
                raise NumericsError(
                    f"{what} {start}..{stop - 1} failed in a forked process "
                    f"(exit status {os.waitstatus_to_exitcode(status)})"
                )
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    result[...] = table
    return result


def _child(run, table, start: int, stop: int, parent: int):
    """The body of a forked child: run its block, then end the process with
    no cleanup (no flush, no atexit) and without returning to the caller."""
    status = 1
    try:
        run(table, start, stop, parent)
        status = 0
    finally:
        os._exit(status)


def _check_parent(parent) -> None:
    """In a forked block (``parent`` set), stop once that process is no
    longer this one's parent: nobody is left to read the shared table."""
    if parent is not None and os.getppid() != parent:
        raise SystemExit("the process that reads the shared table is gone")
