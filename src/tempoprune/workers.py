"""One fork map: `fork_map(run, costs, floor)` is `[run(i) for i in range(len(costs))]`, shared
with one forked child per further CPU when the costs sum to at least `floor`.  Processes pinned to
CPUs of their own claim the tasks one at a time, largest first; the error raised is the first in
order, as in the serial loop (README, "Forked workers").
"""
from __future__ import annotations

import os
import pickle
import signal
from collections.abc import Callable, Sequence
from contextlib import suppress

from .errors import TempopruneError

# 4-byte claims fill Linux's PIPE_BUF (4,096 bytes); beyond them a claim holds several tasks
MAX_CLAIMS = 1024


def _cpus() -> list[int]:
    """The CPUs this process may run on, in order; none where unknown."""
    return sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def _pin(cpus: set[int]) -> None:
    with suppress(OSError):  # a CPU gone since the mask was read: pinning only places work
        os.sched_setaffinity(0, cpus)


def _claims(costs: Sequence[float]) -> list[list[int]]:
    """Each claim's tasks: largest cost first (ties: in order), in at most `MAX_CLAIMS` claims."""
    order = sorted(range(len(costs)), key=lambda i: -costs[i])
    per = -(-len(order) // MAX_CLAIMS)
    return [order[j:j + per] for j in range(0, len(order), per)]


def _claimed(run: Callable[[int], object], claims: list[list[int]], claim_fd: int) -> tuple:
    """{task: result} of the claims read from `claim_fd`, and (task, error) of the first failure or None."""
    done = {}
    failed = None
    while claim := os.read(claim_fd, 4):
        for i in claims[int.from_bytes(claim, "little")]:
            if failed is None or i < failed[0]:
                try:
                    done[i] = run(i)
                except Exception as exc:  # the caller raises the first task's error
                    failed = (i, exc)
    return done, failed


def fork_map(run: Callable[[int], object], costs: Sequence[float], floor: float) -> list:
    """`run(i)` of every task, in order; see the module docstring."""
    cpus = _cpus() if hasattr(os, "fork") and len(costs) > 1 and sum(costs) >= floor else []
    if len(cpus) < 2:
        return [run(i) for i in range(len(costs))]
    claims = _claims(costs)
    claim_fd, fill = os.pipe()
    os.write(fill, b"".join(c.to_bytes(4, "little") for c in range(len(claims))))
    os.close(fill)
    mask = os.sched_getaffinity(0)
    pipes = {}  # child pid -> the read end of its reply pipe
    data: dict[int, bytes] = {}
    try:
        _pin({cpus[0]})
        for cpu in cpus[1:len(claims)]:
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:  # the child replies, then leaves with no cleanup and no stdio flush
                status = 1
                try:
                    os.close(read_end)
                    _pin({cpu})
                    with open(write_end, "wb") as pipe:
                        pickle.dump(_claimed(run, claims, claim_fd), pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            pipes[pid] = open(read_end, "rb")
        replies = [_claimed(run, claims, claim_fd)]
        # every pipe is read to its end before any child is waited for: a
        # child blocks on a full pipe until its reply is read
        data = {pid: pipe.read() for pid, pipe in pipes.items()}
    finally:
        os.close(claim_fd)
        _pin(mask)
        interrupted = len(data) < len(pipes)  # then no reply is awaited
        ended = {}
        for pid, pipe in pipes.items():
            pipe.close()
            if interrupted:
                os.kill(pid, signal.SIGKILL)
            ended[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    for pid, status in ended.items():
        if status:
            how = f"signal {-status}" if status < 0 else f"exit status {status}"
            raise TempopruneError(f"worker process {pid} ended without a reply ({how})")
    replies += [pickle.loads(reply) for reply in data.values()]
    failures = [failed for _, failed in replies if failed]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    results = {i: result for done, _ in replies for i, result in done.items()}
    return [results[i] for i in range(len(costs))]
