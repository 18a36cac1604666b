"""The fork primitive: a worker's file, or the task run here when it fails."""

import errno
import os
import time

import pytest

from conftest import deadline
from mildhjb import _fork


def no_fork():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_failed_fork_runs_the_task_here(monkeypatch):
    def task(out):
        out.write(f"{os.getpid()}\n".encode())

    monkeypatch.setattr(_fork.os, "fork", no_fork)
    with _fork.forked(task) as [worker]:
        assert worker.join().read() == f"{os.getpid()}\n".encode()
    assert_no_child()


def test_failed_worker_is_redone_here_into_an_emptied_file():
    caller = os.getpid()

    def task(out):
        if os.getpid() != caller:
            out.write(b"longer than the output\n")
            out.flush()
            os._exit(3)
        out.write(b"here\n")

    with _fork.forked(task) as [worker]:
        assert worker.join().read() == b"here\n"
    assert_no_child()


@pytest.mark.parametrize("fork", ["fails", "works"])
def test_task_that_raises_here_too_propagates(monkeypatch, fork):
    def task(out):
        raise ArithmeticError("task")

    if fork == "fails":
        monkeypatch.setattr(_fork.os, "fork", no_fork)
    with pytest.raises(ArithmeticError, match="task"):
        with _fork.forked(task) as [worker]:
            worker.join()
    assert_no_child()


def test_worker_never_joined_is_killed_and_reaped():
    caller, ran_here = os.getpid(), []

    def task(out):
        if os.getpid() != caller:
            time.sleep(60)  # a worker not killed outlives the deadline
        ran_here.append(True)

    with deadline(30):
        with _fork.forked(task, task):
            pass
    assert ran_here == []
    assert_no_child()


@pytest.mark.parametrize("fork", ["fails", "works"])
def test_second_join_returns_the_same_file(monkeypatch, fork):
    ran_here = []

    def task(out):
        ran_here.append(os.getpid())
        out.write(b"done\n")

    if fork == "fails":
        monkeypatch.setattr(_fork.os, "fork", no_fork)
    with _fork.forked(task) as [worker]:
        first = worker.join()
        assert first.read() == b"done\n"
        assert worker.join() is first and first.read() == b"done\n"
    assert ran_here == ([os.getpid()] if fork == "fails" else [])
    assert_no_child()
