"""Shared test helpers: pretend the process may run on n CPUs, watch which
public functions run off the main thread, count the forks of the cone's
members and the curve's seeds, and bound a call that could deadlock."""

import functools
import inspect
import os
import pathlib
import threading

import pytest

from enslab import _blocks, cli, conefall, measurement, probcore, randomfield, spinecho

LAYERS = (probcore, randomfield, measurement, conefall, spinecho)


def force_cpus(monkeypatch, n):
    # n CPUs, and no minimum block size, so small inputs take the split
    # path and the forked blocks (the cone's members, the curve's seeds)
    monkeypatch.setattr(_blocks.os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(_blocks, "_MIN_BLOCK_SIZE", 1)
    monkeypatch.setattr(_blocks, "_MIN_FORKED_BLOCK", 1)


def counted_forks(monkeypatch) -> list:
    """A list that gains one entry per ``os.fork`` this process calls."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    return forks


def assert_no_child_left():
    """This process has no child, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def public_calls_off_the_main_thread(monkeypatch) -> list:
    """A list that records the name of every public function (any ``__all__``
    function, wherever a module holds it, DiscreteDistribution's
    constructors, and the CLI's file encoders) called from a thread other
    than the main one. These are the names a profiler wraps with
    unsynchronized state."""
    calls = []

    def spy(fn, name):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                calls.append(name)
            return fn(*args, **kwargs)

        return wrapped

    public = {}
    for module in LAYERS:
        for name in module.__all__:
            if inspect.isfunction(getattr(module, name)):
                public[getattr(module, name)] = f"{module.__name__}.{name}"
    for module in LAYERS:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in public:
                monkeypatch.setattr(module, attr, spy(obj, public[obj]))
    dist = probcore.DiscreteDistribution
    for name in ("from_weights", "uniform"):
        fn = inspect.getattr_static(dist, name).__func__
        monkeypatch.setattr(dist, name, classmethod(spy(fn, f"DiscreteDistribution.{name}")))
    for name in ("encode_csv", "encode_json"):
        monkeypatch.setattr(cli, name, spy(getattr(cli, name), f"enslab.cli.{name}"))
    monkeypatch.setattr(pathlib.Path, "write_bytes", spy(pathlib.Path.write_bytes, "pathlib.Path.write_bytes"))
    return calls


def raised_within(call, seconds=10.0):
    """Run ``call()`` on a thread of its own, which must end within
    ``seconds``, so a deadlock fails the test instead of hanging the suite.
    Returns the exception ``call`` raised, or None."""
    raised = []

    def run():
        try:
            call()
        except BaseException as exc:
            raised.append(exc)
        else:
            raised.append(None)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    return raised[0]
