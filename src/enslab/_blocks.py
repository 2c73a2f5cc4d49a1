"""Work shared between the calling thread and one worker thread per other CPU.

:class:`_Tasks` is a bounded task queue that lives for one ``with`` block.
Up to ``_cpu_count() - 1`` worker threads, started as tasks arrive, take
tasks from it in order; the calling thread takes them too, whenever more
than ``backlog`` tasks wait and again at the end of the block. With one CPU
it starts no thread, and the calling thread runs every task. The work
inside the tasks (numpy transforms, ufuncs, reductions, histograms and
random draws, and ``hashlib`` on a large buffer) releases the GIL, so the
tasks run side by side with each other and with the caller.

:func:`_split` runs a loop body over ``range(length)`` as a few calls
``run(start, stop)`` on disjoint blocks, one per CPU: block 0 on the calling
thread, the others as tasks. It returns the blocks' values in block order;
a block writes per-index results only to its own slots, so what the tasks
compute does not depend on how many threads run them. :func:`_both` runs
two jobs as the two indices of one ``_split``.

The callers: the field transforms and the rounding of pair counts in
``randomfield``, ``generate``'s noise draw beside the amplitude table, the
CLI's hash of ``field.bin`` beside the field's moments, the suppression
curve's phasor sums and the spin echo's samples. ``conefall.run_ensemble``
takes its member blocks from :func:`_cpu_count` and :func:`_bounds` too,
but runs them in forked processes: its stepping loop makes many small
numpy calls, which would hand the GIL back and forth between threads.

Tasks must call only private kernels, never a public ``__all__`` function,
a ``DiscreteDistribution`` constructor or the CLI's encoders: those are the
names a profiler wraps, and its wrappers keep unsynchronized state.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from functools import partial

# a block smaller than this (in elements) costs more to hand to a thread
# than it saves
_MIN_BLOCK_SIZE = 2**16


def _cpu_count() -> int:
    """CPUs this process may run on; the machine's count where the OS has
    no affinity call (macOS, Windows)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Tasks:
    """Run submitted callables on the calling thread and on worker threads.

    Use as ``with _Tasks(backlog) as tasks: tasks.submit(task)``. Tasks are
    taken oldest first, by idle workers before the calling thread. The
    calling thread takes them while more than ``backlog`` wait, and on
    leaving the block until none wait; then it joins the workers, so no
    thread outlives the block. Every submitted task runs to its end,
    whatever else fails. An exception raised by the block's own code then
    propagates; failing that, the lowest-numbered failed task's does.
    """

    def __init__(self, backlog: int):
        self._backlog = backlog
        self._max_workers = _cpu_count() - 1
        self._workers = []
        self._idle = 0  # started workers not running a task
        self._waiting = deque()  # (task number, task)
        self._errors = {}  # task number -> exception
        self._submitted = 0
        self._closed = False
        self._cond = threading.Condition()

    def __enter__(self):
        return self

    def submit(self, task) -> None:
        """Queue ``task()``; while more than ``backlog`` tasks wait, run the
        oldest on the calling thread."""
        with self._cond:
            self._waiting.append((self._submitted, task))
            self._submitted += 1
            self._cond.notify_all()
        if len(self._workers) < self._max_workers:
            worker = threading.Thread(target=self._serve, daemon=True)
            worker.start()
            self._workers.append(worker)
            with self._cond:
                self._idle += 1
        while (item := self._take(self._backlog)) is not None:
            self._run(*item)

    def __exit__(self, kind, error, tb):
        try:
            while (item := self._take(0)) is not None:
                self._run(*item)
        finally:
            with self._cond:
                self._closed = True
                self._cond.notify_all()
            for worker in self._workers:
                worker.join()
        if kind is None and self._errors:
            raise self._errors[min(self._errors)]

    def _take(self, keep: int):
        """The oldest waiting task, for the calling thread, while more than
        ``keep`` wait; None once ``keep`` or fewer do. Idle workers take
        theirs first."""
        with self._cond:
            while len(self._waiting) > keep and self._idle > 0:
                self._cond.wait()  # an idle worker is about to take one
            return self._waiting.popleft() if len(self._waiting) > keep else None

    def _run(self, number: int, task) -> None:
        try:
            task()
        except Exception as exc:  # raised on the calling thread on exit
            with self._cond:
                self._errors[number] = exc

    def _serve(self) -> None:
        while True:
            with self._cond:
                while not self._waiting and not self._closed:
                    self._cond.wait()
                if not self._waiting:
                    return
                item = self._waiting.popleft()
                self._idle -= 1
                self._cond.notify_all()
            self._run(*item)
            with self._cond:
                self._idle += 1


def _split(run, length: int, size: int) -> list:
    """Call ``run(start, stop)`` on consecutive blocks covering ``range(length)``
    and return the calls' values in block order.

    ``size`` is the number of elements the whole loop touches. There is one
    block per CPU, capped by ``length`` and by _MIN_BLOCK_SIZE elements per
    block. Block 0 runs on the calling thread and the others are tasks of a
    :class:`_Tasks`, so a single block starts no thread. Every block runs to
    its end; an exception raised in one reaches the caller (block 0's
    first, then the lowest block's), and no thread outlives the call.
    """
    n_blocks = max(1, min(_cpu_count(), length, size // _MIN_BLOCK_SIZE))
    bounds = _bounds(length, n_blocks)
    values = [None] * n_blocks

    def block(i):
        values[i] = run(*bounds[i])

    with _Tasks(backlog=n_blocks - 1) as tasks:
        for i in range(1, n_blocks):
            tasks.submit(partial(block, i))
        block(0)
    return values


def _bounds(length: int, n_blocks: int) -> list:
    """``(start, stop)`` of ``n_blocks`` consecutive blocks covering
    ``range(length)``, their sizes differing by at most one."""
    return [(length * i // n_blocks, length * (i + 1) // n_blocks) for i in range(n_blocks)]


def _both(first, second, size: int) -> tuple:
    """``(first(), second())``: ``first`` on the calling thread, ``second``
    beside it on a worker exactly when :func:`_split` would make two blocks
    of two jobs of ``size`` elements. ``first``'s exception wins."""
    blocks = _split(lambda start, stop: [job() for job in (first, second)[start:stop]], 2, size)
    return tuple(value for block in blocks for value in block)
