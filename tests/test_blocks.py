import sys
import threading
import time
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from block_helpers import force_cpus, raised_within
from enslab import _blocks
from enslab._blocks import _both, _handoff, _split
from enslab.measurement import suppression_curve
from enslab.randomfield import CovarianceSpec, generate, hierarchical_average, indicator, pair_counts
from enslab.spinecho import FrequencySpread, run_protocol


def record_blocks(length, size):
    """The (start, stop, on the calling thread) of every block _split runs;
    _split returns the blocks' values in block order."""
    seen, lock = [], threading.Lock()

    def run(start, stop):
        with lock:
            seen.append((start, stop, threading.current_thread() is threading.main_thread()))
        return start, stop

    values = _split(run, length, size)
    assert values == [(start, stop) for start, stop, _ in sorted(seen)]
    return sorted(seen)


class TestSplit:
    @pytest.mark.parametrize("length", [0, 1, 2, 3, 5, 7, 101])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_blocks_cover_the_range_once_in_order(self, cpus, length, monkeypatch):
        force_cpus(monkeypatch, cpus)
        blocks = record_blocks(length, length)
        assert len(blocks) == max(1, min(cpus, length))
        assert blocks[0][0] == 0 and blocks[-1][1] == length
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        assert all(stop - start >= length // len(blocks) for start, stop, _ in blocks)
        # the first block runs on the calling thread, the others do not
        assert [on_caller for _, _, on_caller in blocks] == [True] + [False] * (len(blocks) - 1)

    def test_block_floor_caps_the_count(self, monkeypatch):
        monkeypatch.setattr(_blocks.os, "sched_getaffinity", lambda pid: set(range(4)))
        floor = _blocks._MIN_BLOCK_SIZE
        assert len(record_blocks(100, 2 * floor - 1)) == 1
        assert len(record_blocks(100, 2 * floor)) == 2
        assert len(record_blocks(100, 100 * floor)) == 4

    def test_one_block_starts_no_thread(self, monkeypatch):
        force_cpus(monkeypatch, 1)
        before = threading.active_count()
        started = []
        _split(lambda start, stop: started.append(threading.active_count()), 9, 9)
        assert started == [before]

    @pytest.mark.parametrize("failing_block", [0, 1, 2])
    def test_exception_reaches_the_caller_and_no_thread_outlives(self, failing_block, monkeypatch):
        force_cpus(monkeypatch, 3)
        before = threading.active_count()
        finished = []

        def run(start, stop):
            if start == failing_block * 3:
                raise FloatingPointError(f"block [{start}, {stop})")
            finished.append(start)

        with pytest.raises(FloatingPointError, match=rf"block \[{failing_block * 3}, "):
            _split(run, 9, 9)
        assert threading.active_count() == before
        # the blocks that do not fail still run to the end
        assert sorted(finished) == [b * 3 for b in range(3) if b != failing_block]

    @pytest.mark.parametrize("failing, raised", [((0, 2), 0), ((1, 2), 1)])
    def test_first_failure_wins(self, failing, raised, monkeypatch):
        # the calling thread's block first, then the lowest worker block
        force_cpus(monkeypatch, 3)

        def run(start, stop):
            if start // 3 in failing:
                raise FloatingPointError(f"block {start // 3}")

        with pytest.raises(FloatingPointError, match=f"block {raised}"):
            _split(run, 9, 9)

    def test_stress_more_workers_than_cores(self, monkeypatch):
        # 8 blocks on a 2-CPU host, a thread switch every microsecond: every
        # slot still holds what its own block wrote, and the protocol, every
        # field stage and the curve (8 forked blocks of seeds) equal their
        # one-block results

        def results():
            slots = np.zeros(1000)

            def run(start, stop):
                for i in range(start, stop):
                    slots[i] = i

            _split(run, 1000, 1000)
            report = run_protocol(200, FrequencySpread(), 3.0, 8, seed=2, samples_per_leg=12)
            curve = suppression_curve([30, 45], 41, 9)
            field = generate(CovarianceSpec(spectrum="power_law", index=-2.0), 2, 54, 3)
            ind = indicator(field, (-1.0, 1.0))
            levels = hierarchical_average(ind, 2)
            counts = pair_counts(ind)
            stages = [field.values, ind.bits, *levels.cell_counts, counts.counts]
            stages = [a.tobytes() for a in stages] + [levels.epsilons, counts.residual]
            return slots, report.magnetization, report.binned_entropy, curve, stages

        force_cpus(monkeypatch, 1)
        serial = results()
        force_cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            split = results()
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(split[0], np.arange(1000.0))
        assert split[1].tobytes() == serial[1].tobytes() and split[2].tobytes() == serial[2].tobytes()
        assert split[3] == serial[3]
        assert split[4] == serial[4]


def on_the_calling_thread():
    return threading.current_thread() is threading.main_thread()


class TestBoth:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_results_in_order_with_first_on_the_calling_thread(self, cpus, monkeypatch):
        # two jobs make two blocks on 2 or more CPUs: second then runs on a worker
        force_cpus(monkeypatch, cpus)

        def job(name):
            return name, on_the_calling_thread()

        results = _both(partial(job, "first"), partial(job, "second"), 2)
        assert results == (("first", True), ("second", cpus == 1))

    def test_no_thread_below_two_blocks(self, monkeypatch):
        monkeypatch.setattr(_blocks.os, "sched_getaffinity", lambda pid: {0, 1})
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
        floor = _blocks._MIN_BLOCK_SIZE
        assert _both(on_the_calling_thread, on_the_calling_thread, 2 * floor - 1) == (True, True)
        assert started == []
        assert _both(on_the_calling_thread, on_the_calling_thread, 2 * floor) == (True, False)
        assert len(started) == 1

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_first_exception_is_raised_before_second(self, cpus, monkeypatch):
        force_cpus(monkeypatch, cpus)
        before = threading.active_count()

        def fail(name):
            raise FloatingPointError(name)

        with pytest.raises(FloatingPointError, match="first"):
            _both(partial(fail, "first"), partial(fail, "second"), 2)
        with pytest.raises(FloatingPointError, match="second"):
            _both(lambda: None, partial(fail, "second"), 2)
        assert threading.active_count() == before


def joining_event(monkeypatch) -> threading.Event:
    """An Event that _handoff sets when it starts to join its worker, which
    is after it has told the worker to stop."""
    joining = threading.Event()

    class Worker(threading.Thread):
        def join(self, timeout=None):
            joining.set()
            super().join(timeout)

    monkeypatch.setattr(_blocks, "threading", SimpleNamespace(Thread=Worker, Condition=threading.Condition))
    return joining


class TestHandoff:
    @pytest.mark.parametrize("length", [0, 1, 2, 7])
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_each_index_is_produced_in_order_then_consumed_once(self, cpus, length, monkeypatch):
        force_cpus(monkeypatch, cpus)
        caller = threading.current_thread()
        lock, produced, consumed, early = threading.Lock(), [], [], []

        def produce(i):
            with lock:  # logged as its last step: logged means finished
                produced.append((i, threading.current_thread() is caller))

        def consume(i):
            with lock:
                if i not in {j for j, _ in produced}:
                    early.append(i)
                consumed.append((i, threading.current_thread()))

        assert _handoff(lambda: threading.current_thread() is caller, produce, consume, length, 2)
        # the job runs on the calling thread; the draws on one worker, in order
        assert produced == [(i, cpus == 1) for i in range(length)]
        assert sorted(i for i, _ in consumed) == list(range(length))
        assert early == []
        for thread in {thread for _, thread in consumed}:  # each thread takes its indices in order
            mine = [i for i, t in consumed if t is thread]
            assert mine == sorted(mine)

    def test_stress_a_thread_switch_every_microsecond(self, monkeypatch):
        # a lost update of the shared counters would skip or repeat an index
        force_cpus(monkeypatch, 2)
        runs = []

        def run():
            for _ in range(50):
                produced, consumed = set(), []
                _handoff(lambda: None, produced.add, lambda i: consumed.append((i, i in produced)), 100, 2)
                runs.append(sorted(consumed) == [(i, True) for i in range(100)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert raised_within(run, 60.0) is None
        finally:
            sys.setswitchinterval(interval)
        assert runs == [True] * 50

    def test_one_block_starts_no_thread_and_keeps_the_call_order(self, monkeypatch):
        monkeypatch.setattr(_blocks.os, "sched_getaffinity", lambda pid: {0, 1})
        started, start = [], threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
        floor, calls = _blocks._MIN_BLOCK_SIZE, []

        def run(size):
            return _handoff(
                lambda: calls.append("job") or "value",
                lambda i: calls.append(f"produce {i}"),
                lambda i: calls.append(f"consume {i}"),
                3,
                size,
            )

        assert run(2 * floor - 1) == "value"
        assert started == []
        assert calls == ["job", "produce 0", "produce 1", "produce 2", "consume 0", "consume 1", "consume 2"]
        calls.clear()
        assert run(2 * floor) == "value"
        assert len(started) == 1 and sorted(calls) == sorted(["job"] + [f"{s} {i}" for s in ("produce", "consume") for i in range(3)])

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_a_failed_draw_wakes_the_waiting_caller(self, cpus, monkeypatch):
        force_cpus(monkeypatch, cpus)
        before = threading.active_count()
        produced, consumed = [], []

        def produce(i):
            if i == 1:
                time.sleep(0.05)  # the calling thread is waiting for index 1 by now
                raise FloatingPointError("produce 1")
            produced.append(i)

        error = raised_within(lambda: _handoff(lambda: None, produce, consumed.append, 5, 2))
        assert isinstance(error, FloatingPointError) and str(error) == "produce 1"
        assert produced == [0] and consumed in ([], [0])
        assert threading.active_count() == before

    def test_a_failed_consume_on_the_worker_reaches_the_caller(self, monkeypatch):
        # the job holds the calling thread until the worker, done drawing,
        # has taken index 0 and failed on it
        force_cpus(monkeypatch, 2)
        before = threading.active_count()
        caller, failed = [], threading.Event()

        def consume(i):
            if threading.current_thread() is not caller[0]:
                failed.set()
                raise FloatingPointError(f"consume {i} on the worker")

        def call():
            caller.append(threading.current_thread())
            _handoff(lambda: failed.wait(10.0), lambda i: None, consume, 4, 2)

        error = raised_within(call)
        assert isinstance(error, FloatingPointError) and str(error) == "consume 0 on the worker"
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", ["job", "consume"])
    def test_a_failure_on_the_caller_stops_the_worker_before_its_next_index(self, failing, monkeypatch):
        # the worker's draw of index 1 (or 0, when the job fails) finishes
        # only once the calling thread has failed and is joining it
        force_cpus(monkeypatch, 2)
        before = threading.active_count()
        joining, produced = joining_event(monkeypatch), []
        last = 0 if failing == "job" else 1

        def produce(i):
            if i == last:
                assert joining.wait(10.0)
            produced.append(i)

        def fail(*index):
            raise FloatingPointError(f"{failing} on the calling thread")

        job, consume = (fail, lambda i: None) if failing == "job" else (lambda: None, fail)
        error = raised_within(lambda: _handoff(job, produce, consume, 5, 2))
        assert isinstance(error, FloatingPointError) and str(error) == f"{failing} on the calling thread"
        assert produced == list(range(last + 1))
        assert threading.active_count() == before

    def test_the_callers_exception_wins(self, monkeypatch):
        force_cpus(monkeypatch, 2)
        drawn = threading.Event()

        def produce(i):
            drawn.set()
            raise FloatingPointError("produce")

        def job():
            assert drawn.wait(10.0)
            raise ArithmeticError("job")

        error = raised_within(lambda: _handoff(job, produce, lambda i: None, 3, 2))
        assert type(error) is ArithmeticError and str(error) == "job"
