"""Differential tests for the resource database.

The production database keeps one owner row per board plus the count
vector and counters the hot path reads (see ``runtime/resource_db.py``).
These tests pin it to ``RescanResourceDB`` (the dict-per-block table
with scan-per-query semantics, ``tests/reference_runtime.py``): a
randomized operation mix is applied to both, every query is compared
after every transition, and ``verify()`` rescans the owner rows against
every summary (board health included: the kept failed-board set).  A
second group checks that ``verify()`` actually detects corruption --
one tamper per check -- so the cross-check itself cannot rot silently.

The same treatment covers the allocation policy: the pruned subset
search of :class:`CommunicationAwarePolicy` must pick the placement the
exhaustive enumeration (``ExhaustivePolicy``, same module) picks, on
random free maps.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.cluster import make_cluster
from repro.runtime.policy import CommunicationAwarePolicy
from repro.runtime.resource_db import FAILED, FREE, ResourceDB
from tests.reference_runtime import ExhaustivePolicy, RescanResourceDB


def _compare_queries(fast: ResourceDB, slow: RescanResourceDB) -> None:
    assert fast.free_blocks() == slow.free_blocks()
    assert fast.free_by_board() == slow.free_by_board()
    assert fast.allocated_count() == slow.allocated_count()
    assert fast.failed_count() == slow.failed_count()
    assert fast.failed_boards() == slow.failed_boards()
    ids = fast.board_ids_array().tolist()
    assert [b for b in ids if fast.is_failed(b)] \
        == sorted(slow.failed_boards())
    assert fast.utilization() == slow.utilization()


class TestIncrementalMatchesRescan:
    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_operation_mix(self, cluster, seed):
        rng = random.Random(seed)
        fast = ResourceDB(cluster)
        slow = RescanResourceDB(cluster)
        boards = [b.board_id for b in cluster.boards]
        live: list[int] = []
        next_id = 0
        for _ in range(300):
            roll = rng.random()
            if roll < 0.45:
                free = fast.free_blocks()
                if free:
                    blocks = rng.sample(free,
                                        rng.randint(1, min(8, len(free))))
                    next_id += 1
                    fast.allocate(next_id, blocks)
                    slow.allocate(next_id, blocks)
                    live.append(next_id)
            elif roll < 0.75 and live:
                rid = live.pop(rng.randrange(len(live)))
                assert fast.release(rid) == slow.release(rid)
            elif roll < 0.90:
                board = rng.choice(boards)
                if board in fast.failed_boards():
                    continue
                # the controller evicts a board's deployments before
                # failing it; mirror that contract here
                for rid in list(live):
                    if any(a[0] == board for a in fast.blocks_of(rid)):
                        live.remove(rid)
                        assert fast.release(rid) == slow.release(rid)
                fast.set_board_failed(board)
                slow.set_board_failed(board)
            else:
                failed = sorted(fast.failed_boards())
                if failed:
                    board = rng.choice(failed)
                    fast.set_board_repaired(board)
                    slow.set_board_repaired(board)
            _compare_queries(fast, slow)
            fast.verify()
            slow.verify()
        # per-request ownership also agrees at the end
        for rid in live:
            assert fast.blocks_of(rid) == sorted(slow.blocks_of(rid))

    def test_error_paths_agree(self, cluster):
        fast = ResourceDB(cluster)
        slow = RescanResourceDB(cluster)
        for db in (fast, slow):
            db.allocate(1, [(0, 0)])
            with pytest.raises(RuntimeError, match="already allocated"):
                db.allocate(2, [(0, 1), (0, 0)])
            with pytest.raises(RuntimeError, match="owns no blocks"):
                db.release(99)
            with pytest.raises(RuntimeError, match="still allocated"):
                db.set_board_failed(0)
        _compare_queries(fast, slow)
        fast.verify()

    def test_unknown_board_rejected_before_any_state_moves(self,
                                                           cluster):
        """Repairing a board that does not exist used to succeed and
        plant phantom state; it must raise like ``set_board_failed``
        and leave the database untouched."""
        unknown = len(cluster.boards) + 97
        for db in (ResourceDB(cluster), RescanResourceDB(cluster)):
            with pytest.raises(KeyError, match="no blocks on board"):
                db.set_board_failed(unknown)
            with pytest.raises(KeyError, match="no blocks on board"):
                db.set_board_repaired(unknown)
            assert unknown not in db.failed_boards()
            db.verify()

    def test_negative_request_ids_rejected(self, cluster):
        """Negative owner values are the free / failed sentinels."""
        db = ResourceDB(cluster)
        with pytest.raises(ValueError, match="negative"):
            db.allocate(-1, [(0, 0)])
        assert db.allocated_count() == 0
        db.verify()


class TestVerifyDetectsTampering:
    """``verify()`` is only a safety net if it actually trips."""

    @pytest.fixture()
    def db(self, cluster):
        db = ResourceDB(cluster)
        db.allocate(7, [(0, 0), (1, 3)])
        db.release(7)
        db.allocate(8, [(0, 1), (2, 2)])
        db.verify()  # sane before each tamper
        return db

    def test_clean_database_verifies(self, db):
        db.verify()

    def test_detects_free_count_vector_drift(self, db):
        db._free_counts[2] -= 1
        with pytest.raises(RuntimeError, match="free-count vector"):
            db.verify()

    def test_detects_total_free_counter_drift(self, db):
        db._total_free += 1
        with pytest.raises(RuntimeError, match="total-free counter"):
            db.verify()

    def test_detects_allocated_counter_drift(self, db):
        db._allocated += 1
        with pytest.raises(RuntimeError, match="allocated counter"):
            db.verify()

    def test_detects_owner_index_divergence(self, db):
        db._owned[8].discard((0, 1))
        with pytest.raises(RuntimeError, match="owner index diverges"):
            db.verify()

    def test_detects_partly_failed_row(self, db):
        db._owner[3][0] = FAILED
        with pytest.raises(RuntimeError, match="partly failed"):
            db.verify()

    def test_detects_phantom_failed_board(self, db):
        # a whole row failed behind the summaries' back: the board
        # reads as failed while its free count says in service
        db._owner[3][:] = [FAILED] * len(db._owner[3])
        with pytest.raises(RuntimeError, match="free-count vector"):
            db.verify()

    def test_detects_failed_set_drift(self, db):
        db._failed = frozenset({2})
        with pytest.raises(RuntimeError, match="failed-board set"):
            db.verify()

    def test_handed_out_failed_set_never_changes(self, db):
        """Callers may keep what ``failed_boards()`` returned: a later
        transition replaces the kept set rather than mutating it."""
        before = db.failed_boards()
        db.set_board_failed(3)
        assert before == frozenset() and db.failed_boards() == {3}
        during = db.failed_boards()
        db.set_board_repaired(3)
        assert during == {3} and db.failed_boards() == frozenset()
        db.verify()

    def test_detects_free_set_divergence(self, db):
        # (0, 1) is allocated to request 8; its row now calls it free
        db._owner[0][1] = FREE
        with pytest.raises(RuntimeError, match="free-count vector"):
            db.verify()

    def test_detects_state_owner_inconsistency(self, db):
        # the row names a different owner than the owner index
        db._owner[0][1] = 9
        with pytest.raises(RuntimeError, match="owner index diverges"):
            db.verify()


class TestPrunedPolicyMatchesExhaustive:
    """The branch-and-bound subset search must pick exactly the subset
    the exhaustive ``C(n, k)`` enumeration picks (same span, same
    leftover, same lexicographic tie-break), so placements -- and hence
    every downstream summary -- are bit-identical."""

    @pytest.fixture(scope="class")
    def big_cluster(self, partition):
        return make_cluster(num_boards=8, partition=partition)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_free_maps(self, big_cluster, compiled_apps, seed):
        rng = random.Random(seed)
        pruned = CommunicationAwarePolicy()
        exhaustive = ExhaustivePolicy()
        boards = [b.board_id for b in big_cluster.boards]
        per_board = big_cluster.blocks_per_board
        for _ in range(25):
            free = {b: sorted(rng.sample(range(per_board),
                                         rng.randint(0, per_board)))
                    for b in boards}
            for app in compiled_apps.values():
                got = pruned.allocate(app, {b: list(v)
                                            for b, v in free.items()},
                                      big_cluster.network)
                want = exhaustive.allocate(app, {b: list(v)
                                                 for b, v in free.items()},
                                           big_cluster.network)
                if want is None:
                    assert got is None
                else:
                    assert got is not None
                    assert got.mapping == want.mapping
