"""``RequestQueue`` against a plain-list model.

The queue's contract is order plus the demand invariant
``queue.demand[i] == apps[queue[i].spec.name].num_blocks``.  The oracle
for the demand side is the expression the experiment loop used to
rebuild on every backfill pass (``np.fromiter`` over the queue), kept
here verbatim; the oracle for order is a Python list driven with the
list operations the loop used before the queue existed.
"""

from __future__ import annotations

import random
from bisect import insort
from types import SimpleNamespace

import numpy as np
import pytest

from repro.sim.request_queue import INITIAL_CAPACITY, RequestQueue
from repro.sim.workload import Request

#: stand-ins for compiled apps and kernel specs: the queue only ever
#: reaches them through the two callables below
_APPS = {f"app{n}": SimpleNamespace(num_blocks=n) for n in range(1, 11)}
_SPECS = [SimpleNamespace(name=name, service=1.0 + (i % 4))
          for i, name in enumerate(_APPS)]


def _blocks_of(request):
    return _APPS[request.spec.name].num_blocks


def _by_id(request):
    return request.request_id


def _sjf_key(request):
    return (request.spec.service, request.request_id)


def _oracle(queue):
    """The per-pass rebuild ``try_drain`` did before this queue."""
    return np.fromiter((_APPS[r.spec.name].num_blocks for r in queue),
                       dtype=np.int64, count=len(queue))


def _check(queue, model):
    assert len(queue) == len(model)
    assert bool(queue) == bool(model)
    assert list(queue) == model
    assert [queue[i] for i in range(len(model))] == model
    demand = queue.demand
    assert demand.dtype == np.int64
    assert demand.tolist() == _oracle(model).tolist()
    assert demand.tolist() == _oracle(queue).tolist()


class _Driver:
    """Applies one operation to the queue and to the list model."""

    def __init__(self, key, seed):
        self.key = key
        self.rng = random.Random(seed)
        self.queue = RequestQueue(_blocks_of, key)
        self.model: list[Request] = []
        self.next_id = 0
        self.evicted: list[Request] = []   # left the queue, may return

    def fresh(self) -> Request:
        request = Request(request_id=self.next_id,
                          spec=self.rng.choice(_SPECS), arrival_s=0.0)
        self.next_id += 1
        return request

    def append(self):
        request = self.fresh()
        self.queue.append(request)
        self.model.append(request)

    def insort(self):
        request = self.fresh()
        self.queue.insort(request)
        insort(self.model, request, key=self.key)

    def delete(self, index=None):
        if not self.model:
            return
        if index is None:
            index = self.rng.choice(
                [0, len(self.model) - 1,
                 self.rng.randrange(len(self.model))])
        self.evicted.append(self.model[index])
        del self.queue[index]
        del self.model[index]

    def remove_all(self):
        count = self.rng.randint(0, min(5, len(self.model)))
        victims = self.rng.sample(self.model, count)
        self.queue.remove_all(victims)
        for request in victims:          # what maybe_shed used to do
            self.model.remove(request)

    def merge(self):
        count = self.rng.randint(0, min(4, len(self.evicted)))
        back = [self.evicted.pop(self.rng.randrange(len(self.evicted)))
                for _ in range(count)]
        self.queue.merge(back)
        self.model[:] = sorted(self.model + back, key=self.key)

    def clear(self):
        self.queue.clear()
        self.model.clear()


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("discipline", ["fifo", "sjf"])
def test_random_ops_match_list_model(discipline, seed):
    """append / keyed insert / delete / batched remove / merge-requeue /
    clear, growing well past the initial capacity."""
    sjf = discipline == "sjf"
    driver = _Driver(_sjf_key if sjf else _by_id, seed)
    enqueue = driver.insort if sjf else driver.append
    ops = [enqueue] * 6 + [driver.delete] * 3 \
        + [driver.remove_all, driver.merge]
    peak = 0
    for step in range(1500):
        op = driver.clear if step in (400, 401) \
            else driver.rng.choice(ops)
        op()
        _check(driver.queue, driver.model)
        peak = max(peak, len(driver.model))
    assert peak > 2 * INITIAL_CAPACITY, "never doubled twice"


def test_fifo_steady_state_slides_instead_of_growing():
    """Head deletions free the front of the buffer: a queue that stays
    short keeps its storage bounded however many requests pass."""
    driver = _Driver(_by_id, seed=0)
    for _ in range(5):
        driver.append()
    for _ in range(20 * INITIAL_CAPACITY):
        driver.append()
        driver.delete(0)
        _check(driver.queue, driver.model)
    assert len(driver.queue._buf) == INITIAL_CAPACITY
    assert len(driver.queue._items) <= INITIAL_CAPACITY


def test_view_not_stale_after_grow_then_delete():
    """A grow reallocates the buffer; the next ``demand`` must read the
    new one, and a delete after it must shift the new one."""
    driver = _Driver(_by_id, seed=1)
    for _ in range(INITIAL_CAPACITY):
        driver.append()
    before = driver.queue.demand
    driver.append()                      # full: doubles
    after = driver.queue.demand
    assert not np.shares_memory(before, after)
    driver.delete(1)
    _check(driver.queue, driver.model)
    driver.delete(0)
    for _ in range(INITIAL_CAPACITY):
        driver.append()                  # full again, head > 0: grows
    driver.delete(len(driver.model) - 1)
    _check(driver.queue, driver.model)


def test_delete_out_of_range_raises_and_changes_nothing():
    driver = _Driver(_by_id, seed=2)
    with pytest.raises(IndexError):
        del driver.queue[0]
    driver.append()
    driver.append()
    for index in (2, -1):
        with pytest.raises(IndexError):
            del driver.queue[index]
    _check(driver.queue, driver.model)


def test_merge_is_stable_for_equal_keys():
    """Queue entries come before merged ones on a key tie, like the
    ``sorted(list(queue) + requeue)`` it replaces."""
    queue = RequestQueue(_blocks_of, key=lambda r: 0)
    first, second, third = (Request(i, _SPECS[i], 0.0) for i in range(3))
    queue.append(second)
    queue.merge([first, third])
    assert list(queue) == [second, first, third]
    assert queue.demand.tolist() == [2, 1, 3]
