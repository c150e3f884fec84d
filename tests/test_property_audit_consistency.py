"""Property-style consistency check: the audit log never lies.

A randomized operation stream (deploys, releases, board failures and
repairs) is replayed against a fresh controller; after every step the
log must re-derive exactly the controller's live state, and the
resource database must never double-book a block.  DRAM is deliberately
undersized so some deploys die mid-finalize with a MemoryError -- the
rollback path must leave no trace in either the log or the database.
"""

from __future__ import annotations

import random

import pytest

from repro.peripherals.dram import VirtualMemory
from repro.runtime.audit import AuditEvent
from repro.runtime.controller import DRAM_BYTES_PER_BLOCK, \
    SystemController
from repro.runtime.isolation import verify_isolation

STEPS = 120


def _check_consistency(controller: SystemController) -> None:
    # 1. the log's notion of "live" is exactly the controller's
    assert (controller.audit.live_requests()
            == set(controller.deployments.keys()))
    # 2. no double-booked blocks: every allocated block belongs to
    #    exactly one live deployment, and counts add up
    owners: dict[tuple, int] = {}
    for request_id, deployment in controller.deployments.items():
        for address in deployment.placement.addresses:
            assert address not in owners, \
                f"block {address} booked twice"
            owners[address] = request_id
            assert controller.resource_db.owner_of(address) \
                == request_id
    assert controller.resource_db.allocated_count() == len(owners)
    # 3. the full isolation invariant (blocks, DRAM, quotas)
    verify_isolation(controller)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_operations_keep_log_and_state_consistent(
        cluster, compiled_small, compiled_medium, compiled_large,
        seed):
    rng = random.Random(seed)
    controller = SystemController(cluster)
    controller.attach_audit()
    # undersize DRAM (4 blocks' worth per 15-block board) so deploys
    # regularly die in _map_memory and must roll back cleanly
    for board_id in list(controller.memories):
        controller.memories[board_id] = VirtualMemory(
            4 * DRAM_BYTES_PER_BLOCK)
    apps = [compiled_small, compiled_medium, compiled_large]

    next_request = 0
    clock = 0.0
    deploys = rejects = evictions = 0
    for _ in range(STEPS):
        clock += rng.random()
        op = rng.random()
        if op < 0.55:  # deploy attempt
            app = rng.choice(apps)
            deployment = controller.try_deploy(
                app, next_request, now=clock)
            if deployment is None:
                rejects += 1
            else:
                deploys += 1
            next_request += 1
        elif op < 0.80:  # release a random live deployment
            if controller.deployments:
                request_id = rng.choice(
                    sorted(controller.deployments))
                controller.release(
                    controller.deployments[request_id], now=clock)
        elif op < 0.90:  # fail a random healthy board
            healthy = controller.healthy_boards()
            if len(healthy) > 1:  # keep some capacity alive
                evictions += len(controller.fail_board(
                    rng.choice(healthy), now=clock))
        else:  # repair a random failed board
            failed = controller.failed_boards()
            if failed:
                controller.repair_board(rng.choice(failed),
                                        now=clock)
        _check_consistency(controller)

    # the stream must actually have exercised the interesting paths
    assert deploys > 0 and rejects > 0
    counts = controller.audit.counts()
    reject_reasons = {e.detail.get("reason") for e in
                      controller.audit.entries()
                      if e.event is AuditEvent.REJECT}
    assert "dram-exhausted" in reject_reasons, \
        "stream never hit the DRAM rollback path"

    # drain everything and verify the world is empty again
    for request_id in sorted(controller.deployments):
        controller.release(controller.deployments[request_id],
                           now=clock)
    for board_id in controller.failed_boards():
        controller.repair_board(board_id, now=clock)
    _check_consistency(controller)
    assert controller.resource_db.allocated_count() == 0
    assert controller.resource_db.failed_count() == 0
    for memory in controller.memories.values():
        assert memory.used_bytes() == 0
    if evictions:
        assert counts.get(AuditEvent.EVICT, 0) >= 1
