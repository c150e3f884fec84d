"""What a finished run still holds, bounded by shape.

A long run keeps per-request structures alive until it ends: the
controller's relocation memo, the collector's step functions and request
table and -- only when one is attached -- the controller's audit log.  Each test here runs
one 64-board, 2 000-request underload scenario under ``tracemalloc`` and
inspects the run at ``_Replay.result()``, the moment it has the most to
hold.  The limits are shapes -- entries per block kind, allocations per
step function, bytes per audit record, bytes per request -- so they
hold however long the run is, and on every supported Python.
"""

from __future__ import annotations

import gc
import inspect
import tracemalloc
import weakref

import pytest

from repro.cluster.cluster import make_cluster
from repro.hls.kernels import all_benchmarks
from repro.sim import experiment
from repro.sim.campaign import CampaignConfig, run_config
from repro.sim.events import TimeWeightedValue

#: a queue never forms: every request deploys on arrival
CONFIG = CampaignConfig(name="envelope", seed=42, set_index=1,
                        num_boards=64, num_requests=2_000,
                        mean_interarrival_s=0.4)

#: bytes an attached audit log alone keeps per record: the row's six
#: column slots, its detail-value tuple and the detail values no one
#: else holds (a deploy's board list, its rounded reconfiguration
#: time).  Measured 126 B on CPython 3.11; a log of one entry object,
#: boxed sequence number and kwargs dict per record kept 368 B.
AUDIT_BYTES_PER_RECORD = 126 * 1.10

#: everything a plain run still holds at ``result()`` (cluster,
#: controller, workload, request table), per request.  Measured 415 B
#: on CPython 3.11; with one ``RequestRecord`` object per request it was
#: 700 B, and when every run also kept an audit log 1 085 B.
RETAINED_BYTES_PER_REQUEST = 415 * 1.10


@pytest.fixture(scope="module")
def apps():
    return experiment.compile_benchmarks(
        make_cluster(num_boards=1),
        specs=[s for s in all_benchmarks() if s.size.value == "S"])


def _held(apps, attach: bool) -> dict:
    """Run ``CONFIG`` (``attach``: with an audit log attached before
    the first event) and measure what it holds at ``result()``."""
    seen: dict = {}
    run, result = experiment._Replay.run, experiment._Replay.result

    def attaching(replay):
        replay.manager.attach_audit()
        run(replay)

    def measuring(replay):
        manager = replay.manager
        gc.collect()
        seen["retained"] = tracemalloc.get_traced_memory()[0]
        seen["snapshot"] = tracemalloc.take_snapshot()
        seen["memo"] = len(manager._reloc_checked)
        seen["kinds"] = len({
            tuple((block.footprint, block.capacity)
                  for block in board.partition.blocks)
            for board in manager.cluster.boards})
        seen["unattached"] = manager.audit is None
        if attach:
            # drop the audit log: what that frees is what it alone held
            log = manager.audit
            seen["records"] = len(log)
            gone = weakref.ref(log)
            before = tracemalloc.get_traced_memory()[0]
            manager.audit = None
            del log
            seen["log_freed"] = gone() is None
            seen["audit_bytes"] = \
                before - tracemalloc.get_traced_memory()[0]
        return result(replay)

    if attach:
        experiment._Replay.run = attaching
    experiment._Replay.result = measuring
    tracemalloc.start(1)
    try:
        seen["summary"] = run_config(CONFIG, apps=apps)["summary"]
    finally:
        tracemalloc.stop()
        experiment._Replay.run, experiment._Replay.result = run, result
    seen["images"] = sum(app.num_blocks for app in apps.values())
    seen["blocks_per_board"] = make_cluster(num_boards=1) \
        .blocks_per_board
    return seen


@pytest.fixture(scope="module")
def held(apps):
    """A plain ``run_config``: nothing attached."""
    return _held(apps, attach=False)


@pytest.fixture(scope="module")
def held_attached(apps):
    return _held(apps, attach=True)


def test_the_run_is_an_underload(held):
    summary = held["summary"]
    assert summary["num_requests"] == CONFIG.num_requests
    assert summary["peak_queue_len"] == 0


def test_relocation_memo_is_per_block_kind(held):
    """At most images x board kinds x blocks per board entries, however
    many boards (64 here, one kind) the run placed onto."""
    assert held["kinds"] == 1
    bound = held["images"] * held["kinds"] * held["blocks_per_board"]
    assert 0 < held["memo"] <= bound


def test_step_functions_hold_no_per_point_objects(held):
    """The collector's three step functions allocate a fixed number of
    blocks each, however many state changes they recorded."""
    lines, first = inspect.getsourcelines(TimeWeightedValue)
    source = inspect.getsourcefile(TimeWeightedValue)
    stats = held["snapshot"].filter_traces(
        [tracemalloc.Filter(True, source)]).statistics("lineno")
    inside = [s for s in stats
              if first <= s.traceback[0].lineno < first + len(lines)]
    blocks = sum(s.count for s in inside)
    size = sum(s.size for s in inside)
    assert blocks <= 2 * 3
    # and they did record the run: thousands of breakpoints
    assert size > 3 * 1_000 * 16


def test_an_unattached_run_keeps_no_audit_log(held, held_attached):
    assert held["unattached"]
    assert not held_attached["unattached"]


def test_retained_bytes_per_request(held):
    per_request = held["retained"] / CONFIG.num_requests
    assert per_request <= RETAINED_BYTES_PER_REQUEST


def test_audit_log_bytes_per_record(held_attached):
    held = held_attached
    assert held["log_freed"]
    assert held["records"] >= 2 * CONFIG.num_requests
    per_record = held["audit_bytes"] / held["records"]
    assert per_record <= AUDIT_BYTES_PER_RECORD
