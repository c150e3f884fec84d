"""What a finished run still holds, bounded by shape.

A long run keeps per-request structures alive until it ends: the
controller's relocation memo, the collector's step functions and request
table and -- only when one is attached -- the controller's audit log.  Each test here runs
one 64-board, 2 000-request underload scenario under ``tracemalloc`` and
inspects the run at ``_Replay.result()``, the moment it has the most to
hold.  The limits are shapes -- entries per block kind, allocations per
step function, bytes per audit record, bytes per request -- so they
hold however long the run is, and on every supported Python.

The ring is checked on a 64-board rack-outage run with spanning
placements, live migration and the defragmenter, at two lengths: what
``cluster/network.py`` holds at ``result()`` must not grow with the
number of requests (it once kept one memo entry per board set the run
had ever spanned).
"""

from __future__ import annotations

import dataclasses
import gc
import inspect
import sys
import tracemalloc
import weakref

import pytest

from repro.cluster import network
from repro.cluster.cluster import make_cluster
from repro.cluster.network import RingNetwork
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


#: the ring's run: spanning placements under rack outages, moved by
#: migration on failure and by the defragmenter (``sim_chaos_64``'s
#: shape on a mixed-size workload set)
RING_CONFIG = CampaignConfig(
    name="ring-envelope", seed=42, set_index=7, num_boards=64,
    boards_per_rack=8, num_requests=1_000, mean_interarrival_s=0.3,
    fault_profile="rack-outage", guard=True, defrag=True,
    recovery="migrate-on-failure", horizon_s=1_800.0)


#: numpy keeps freed small buffers in a cache of its own, still traced
#: at the line that first allocated them (``RingNetwork.distances``
#: here): a few hundred bytes that move with the allocation history,
#: not with the run's length.  One memo entry per spanned board set
#: grew the ring from 0.26 to 1.5 MB between these two runs.
NUMPY_CACHE_SLACK = 2_048


def _ring_held(num_requests: int, monkeypatch) -> dict:
    """Run ``RING_CONFIG`` at ``num_requests`` and measure, at
    ``result()``, the bytes allocated by ``cluster/network.py`` that
    are still live, the flow table's share of them, and the most flows
    registered at once during the run."""
    seen = {"peak": 0}
    register, result = RingNetwork.register_flow, \
        experiment._Replay.result

    def registering(ring, flow_id, boards):
        register(ring, flow_id, boards)
        seen["peak"] = max(seen["peak"], len(ring._flows))
        assert type(ring._flows[flow_id]) is tuple

    def measuring(replay):
        manager = replay.manager
        ring = manager.cluster.network
        gc.collect()
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, network.__file__)])
        seen["bytes"] = sum(stat.size
                            for stat in snapshot.statistics("filename"))
        seen["table"] = sys.getsizeof(ring._flows) - sys.getsizeof({})
        seen["flows"] = len(ring._flows)
        seen["spanning"] = sum(d.placement.spans_boards
                               for d in manager.deployments.values())
        return result(replay)

    monkeypatch.setattr(RingNetwork, "register_flow", registering)
    monkeypatch.setattr(experiment._Replay, "result", measuring)
    config = dataclasses.replace(RING_CONFIG, num_requests=num_requests)
    tracemalloc.start(1)
    try:
        seen["summary"] = run_config(config)["summary"]
    finally:
        tracemalloc.stop()
        monkeypatch.undo()
    return seen


@pytest.fixture(scope="module")
def ring_held():
    with pytest.MonkeyPatch.context() as patch:
        return {n: _ring_held(n, patch) for n in (1_000, 3_000)}


def test_the_ring_run_spans_boards(ring_held):
    for held in ring_held.values():
        assert held["summary"]["multi_fpga_fraction"] > 0.05
        assert held["peak"] >= 20


def test_ring_bytes_do_not_grow_with_requests(ring_held):
    """Outside the flow table, the ring holds no more after 3 000
    requests than after 1 000; the table is a dict of live flows, sized
    by the most flows live at once (CPython gives a dict that saw
    deletions up to 3 slots per live entry, a fresh one 1.5), never by
    how many board sets the run has spanned."""
    short, long = ring_held[1_000], ring_held[3_000]
    assert long["bytes"] - long["table"] \
        <= short["bytes"] - short["table"] + NUMPY_CACHE_SLACK
    for held in (short, long):
        fresh = dict.fromkeys(range(held["peak"]))
        assert held["table"] <= 4 * (sys.getsizeof(fresh)
                                     - sys.getsizeof({}))


def test_the_ring_holds_one_run_tuple_per_live_flow(ring_held):
    for held in ring_held.values():
        assert held["flows"] == held["spanning"]
