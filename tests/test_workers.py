"""The one fork map: claims, pinning, replies, errors and clean-up."""
import os
import time

import pytest

from forking import Placement, assert_no_child_left, forking, in_one_process, within
from tempoprune import workers
from tempoprune.errors import PruneError

COSTS = [5, 9, 9, 2, 7, 1, 3, 8]


def _squares(i):
    return {"task": i, "square": i * i, "pid": os.getpid()}


def test_claims_go_largest_first_ties_in_order(monkeypatch):
    assert workers._claims([5, 9, 9, 2, 7]) == [[1], [2], [4], [0], [3]]
    assert workers._claims([1, 1, 1]) == [[0], [1], [2]]
    monkeypatch.setattr(workers, "MAX_CLAIMS", 2)
    assert workers._claims([5, 9, 9, 2, 7]) == [[1, 2, 4], [0, 3]]


@pytest.mark.parametrize("max_claims", [workers.MAX_CLAIMS, 3])
@pytest.mark.parametrize("cpus", [2, 3])
def test_forked_results_equal_the_serial_loop(monkeypatch, cpus, max_claims):
    monkeypatch.setattr(workers, "MAX_CLAIMS", max_claims)
    in_one_process(monkeypatch)
    alone = workers.fork_map(_squares, COSTS, 0)
    forks = forking(monkeypatch, cpus)
    with within(60):
        forked = workers.fork_map(_squares, COSTS, 0)
    assert len(forks) == cpus - 1
    assert [{**r, "pid": 0} for r in forked] == [{**r, "pid": 0} for r in alone]
    assert_no_child_left()


def test_no_fork_below_the_floor_for_one_task_or_one_cpu(monkeypatch):
    forks = forking(monkeypatch, cpus=3)
    assert workers.fork_map(_squares, COSTS, sum(COSTS) + 1)[2]["square"] == 4  # below the floor
    assert workers.fork_map(_squares, [10], 0)[0]["task"] == 0  # one task
    assert workers.fork_map(_squares, [], 0) == []
    in_one_process(monkeypatch)
    assert len(workers.fork_map(_squares, COSTS, 0)) == len(COSTS)  # one CPU
    assert forks == []


def test_the_caller_and_each_child_run_pinned_to_their_own_cpus(monkeypatch):
    """This process makes the first claim and holds in it until the child
    has run the second: each reports the CPUs it may run on."""
    cpus = workers._cpus()
    if len(cpus) < 2:
        pytest.skip("needs two CPUs")
    before = os.sched_getaffinity(0)
    place = Placement(monkeypatch, cpus=2)
    monkeypatch.setattr(workers, "_cpus", lambda: cpus[:2])
    first, second = workers._claims(COSTS)[:2]

    def where(i):
        if i in first and place.here():
            place.hold()
        try:
            return os.sched_getaffinity(0)
        finally:
            if i in second and not place.here():
                place.ran()

    try:
        with within(60):
            masks = workers.fork_map(where, COSTS, 0)
    finally:
        place.close()
    assert masks[first[0]] == {cpus[0]}
    assert masks[second[0]] == {cpus[1]}
    assert set(map(frozenset, masks)) <= {frozenset({cpus[0]}), frozenset({cpus[1]})}
    assert os.sched_getaffinity(0) == before
    assert_no_child_left()


def test_the_affinity_mask_is_restored_after_success_and_failure(monkeypatch):
    before = os.sched_getaffinity(0)
    forking(monkeypatch, cpus=3)
    workers.fork_map(_squares, COSTS, 0)
    assert os.sched_getaffinity(0) == before

    def failing(i):
        raise PruneError(f"task {i} failed")

    with within(60), pytest.raises(PruneError, match="^task 0 failed$"):
        workers.fork_map(failing, COSTS, 0)
    assert os.sched_getaffinity(0) == before
    assert_no_child_left()


def test_an_error_in_the_callers_own_task_leaves_no_child(monkeypatch):
    place = Placement(monkeypatch)
    first = workers._claims(COSTS)[0][0]

    def failing(i):
        if place.here():
            if i == first:
                place.hold()  # the child has run a task, and may still claim
            raise ValueError(f"task {i} failed here")
        place.ran()
        return i

    try:
        with within(60), pytest.raises(ValueError, match=f"^task {first} failed here$"):
            workers.fork_map(failing, COSTS, 0)
    finally:
        place.close()
    assert_no_child_left()


def test_an_interrupt_in_the_caller_kills_every_child(monkeypatch):
    """A BaseException is not a task's error: it leaves the map at once, and
    the children, still running their tasks, are killed and waited for."""
    forking(monkeypatch, cpus=3)
    parent = os.getpid()

    def interrupted(i):
        if os.getpid() == parent:
            time.sleep(0.2)  # the children have claimed a task each
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.perf_counter()
    with within(30), pytest.raises(KeyboardInterrupt):
        workers.fork_map(interrupted, COSTS, 0)
    assert time.perf_counter() - start < 20
    assert_no_child_left()


def test_after_a_failure_a_process_runs_only_the_tasks_before_it(monkeypatch):
    """Every task fails in every process: whichever process claims task 0
    runs it, and no process runs a task after its first failure in order,
    so the error is task 0's, and this process ran no task after the one
    that failed first in it."""
    forking(monkeypatch, cpus=3)
    ran = []

    def failing(i):
        ran.append(i)
        raise PruneError(f"task {i} failed")

    with within(60), pytest.raises(PruneError, match="^task 0 failed$"):
        workers.fork_map(failing, COSTS, 0)
    assert ran == sorted(ran, reverse=True)  # each a task before the last
    assert len(set(ran)) == len(ran)
    assert_no_child_left()
