"""Test support for `workers.fork_map`: force its forks, count them, keep a
call in one process, and place tasks on this process or on a child."""
import os
import signal
from contextlib import contextmanager

import pytest

from tempoprune import gmm, prune, workers


def forking(monkeypatch, cpus=2) -> list:
    """Force the map to fork: `cpus` CPUs and no floors; returns the list
    that each fork appends to, in this process."""
    monkeypatch.setattr(workers, "_cpus", lambda: list(range(cpus)))
    monkeypatch.setattr(gmm, "FORK_MIN_CELLS", 0)
    monkeypatch.setattr(prune, "FORK_MIN_PICK_CELLS", 0)
    forks = []
    fork = os.fork

    def counting():
        forks.append(1)
        return fork()

    monkeypatch.setattr(workers.os, "fork", counting)
    return forks


def in_one_process(monkeypatch) -> None:
    monkeypatch.setattr(workers, "_cpus", lambda: [0])


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def within(seconds):
    """Fail, rather than hang, when the block takes longer than `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class Placement:
    """Forced forks (`forking`) whose children wait, once forked, until this
    process lets them go, so that this process makes the first claim: the
    largest task, ties to the first in order.

    A task calls `hold()` in this process to let the children claim and
    wait until a child calls `ran()`, so that every other task is claimed
    by a child until then."""

    def __init__(self, monkeypatch, cpus=2):
        self.parent = os.getpid()
        self.cpus = cpus
        self.go, self.let_go = os.pipe()
        self.done, self.tell = os.pipe()
        self.forks = forking(monkeypatch, cpus)
        fork = os.fork

        def gated():
            pid = fork()
            if pid == 0:
                os.read(self.go, 1)
            return pid

        monkeypatch.setattr(workers.os, "fork", gated)

    def here(self) -> bool:
        return os.getpid() == self.parent

    def hold(self) -> None:
        os.write(self.let_go, b"x" * (self.cpus - 1))
        os.read(self.done, 1)

    def ran(self) -> None:
        os.write(self.tell, b"x")

    def close(self) -> None:
        for fd in (self.go, self.let_go, self.done, self.tell):
            os.close(fd)
