"""The deploy/release bookkeeping against the forms it replaced.

A deployment's per-board facts are read off one fold,
``Placement.per_board``; each board's DRAM allocator keeps a sorted span
index and per-tenant byte totals; teardown releases a ring flow only
for a placement that registered one.  Each is checked here against the
older form: the per-block ``blocks_on`` regrouping, the allocator that
rebuilt and sorted its spans on every call (``tests/reference_dram.py``)
and the teardown that released a flow for every deployment.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.cluster.cluster import make_cluster
from repro.peripherals.dram import ProtectionError, VirtualMemory
from repro.runtime.controller import SystemController
from repro.sim.chaos import run_scenario, standard_scenarios
from tests.reference_dram import ReferenceVirtualMemory

PAGE = 1 << 12
TENANTS = ["a", "b", "c"]

#: one allocator step: allocate (tenant, pages), release a tenant, or
#: release the k-th segment ever handed out (stale ones included)
_ops = st.lists(st.one_of(
    st.tuples(st.just("allocate"), st.sampled_from(TENANTS),
              st.integers(1, 9 * PAGE)),
    st.tuples(st.just("release"), st.sampled_from(TENANTS)),
    st.tuples(st.just("release_segment"), st.integers(0, 63))),
    max_size=60)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MemoryError as err:
        return f"MemoryError: {err}"


def _same_state(mine: VirtualMemory, ref: ReferenceVirtualMemory) -> None:
    assert mine.tenants() == ref.tenants()
    for tenant in TENANTS:
        assert mine.segments_of(tenant) == ref.segments_of(tenant)
        for segment in ref.segments_of(tenant):
            for vaddr in (segment.virt_base, segment.virt_end - 1):
                assert mine.translate(tenant, vaddr) \
                    == ref.translate(tenant, vaddr)
    assert mine.used_bytes() == ref.used_bytes()
    assert mine.free_bytes() == ref.free_bytes()
    mine.check_isolation()


class TestSpanIndexMatchesRescan:
    @given(_ops, st.integers(8, 40))
    def test_random_histories(self, ops, pages):
        """First-fit addresses, virtual bases, byte totals and the
        isolation check equal the rebuild-and-sort allocator's after
        every step, over allocations, whole-tenant releases, segment
        releases (stale ones too) and re-allocations into the holes."""
        mine = VirtualMemory(pages * PAGE, page_bytes=PAGE)
        ref = ReferenceVirtualMemory(pages * PAGE, page_bytes=PAGE)
        handed: list[tuple] = []
        for op, *args in ops:
            if op == "allocate":
                got = _outcome(mine.allocate, *args)
                want = _outcome(ref.allocate, *args)
                assert got == want
                if not isinstance(got, str):
                    handed.append((got, want))
            elif op == "release":
                mine.release(*args)
                ref.release(*args)
            elif handed:
                got, want = handed[args[0] % len(handed)]
                mine.release_segment(got)
                ref.release_segment(want)
            _same_state(mine, ref)

    def test_stale_segment_leaves_its_equal_successor(self):
        """Release is by identity: a released segment handed back again
        frees nothing, even when a live one now has the same value."""
        memory = VirtualMemory(16 * PAGE, page_bytes=PAGE)
        stale = memory.allocate("a", PAGE)
        memory.release_segment(stale)
        live = memory.allocate("a", PAGE)
        assert live == stale and live is not stale
        memory.release_segment(stale)
        assert memory.segments_of("a") == [live]
        assert memory.used_bytes() == PAGE
        memory.check_isolation()

    def test_isolation_check_reads_the_index(self):
        """A span index that drifted from the segments is caught."""
        memory = VirtualMemory(16 * PAGE, page_bytes=PAGE)
        memory.allocate("a", 2 * PAGE)
        memory.allocate("b", PAGE)
        memory._ends[-1] += PAGE
        try:
            memory.check_isolation()
        except ProtectionError as err:
            assert "span index" in str(err)
        else:
            raise AssertionError("a drifted span index verified")


def _blocks_on_fold(placement) -> tuple[tuple[int, int], ...]:
    """The fold as the per-block regrouping computed it."""
    boards = sorted({board for board, _ in placement.mapping.values()})
    return tuple((board, len(placement.blocks_on(board)))
                 for board in boards)


def test_fold_matches_blocks_on_over_a_chaos_run(monkeypatch):
    """Every placement the policy hands out in a chaos run with
    defragmentation (single-board and spanning deploys, migration
    probes) folds to what ``blocks_on`` regroups -- including the
    single-board answer, whose fold the policy supplies itself."""
    placements = []
    place = SystemController._place

    def recording(self, app, view, probe=False):
        placement = place(self, app, view, probe)
        if placement is not None:
            placements.append(placement)
        return placement

    monkeypatch.setattr(SystemController, "_place", recording)
    [scenario] = [s for s in standard_scenarios()
                  if s.name == "rack-outage-defrag"]
    run_scenario(scenario)
    assert any(p.spans_boards for p in placements)
    assert any(not p.spans_boards for p in placements)
    for placement in placements:
        fold = _blocks_on_fold(placement)
        assert placement.per_board == fold
        assert placement.boards == [board for board, _ in fold]
        assert placement.num_boards == len(fold)


class _ReleaseEveryFlow(SystemController):
    """Teardown as it was: a ring-flow release for every deployment,
    spanning or not."""

    def _teardown(self, deployment) -> None:
        super()._teardown(deployment)
        self.cluster.network.release_flow(
            self._flow_key(deployment.request_id))


def _flows(controller) -> tuple[dict, list]:
    """The network's registered flows by request id (their segment
    runs expanded to segment lists), and the per-segment flow counts."""
    network = controller.cluster.network
    return ({rid: [s for lo, hi in runs for s in range(lo, hi)]
             for (_, rid), runs in network._flows.items()},
            network._flow_counts.tolist())


def test_teardown_leaves_the_flows_of_the_old_path(compiled_large,
                                                   compiled_small):
    """Single-board, spanning and migrated deployments released,
    evicted and migrated on twin clusters: the ring's flows match the
    release-every-flow teardown after every step."""
    new, old = (cls(make_cluster(num_boards=4))
                for cls in (SystemController, _ReleaseEveryFlow))

    def step(action):
        assert action(new) == action(old)
        assert _flows(new) == _flows(old)

    def deploy(app, rid):
        def act(ctrl):
            d = ctrl.try_deploy(app, rid, 0.0)
            return None if d is None else d.placement.per_board
        return act

    rid = 0
    folds = []
    while True:
        fold = deploy(compiled_large, rid)(new)
        assert deploy(compiled_large, rid)(old) == fold
        assert _flows(new) == _flows(old)
        if fold is None:
            break
        folds.append((rid, fold))
        rid += 1
    spanning = [r for r, fold in folds if len(fold) > 1]
    single = [r for r, fold in folds if len(fold) == 1]
    assert spanning and single

    def release(rid):
        return lambda ctrl: ctrl.release(ctrl.deployments[rid], 1.0)

    def migrate(rid):
        return lambda ctrl: ctrl.migrate(rid, now=2.0)

    # a spanning and a single-board deployment leave; the freed space
    # lets a spanning one migrate (possibly onto one board) and then
    # leave in turn, and a small deploy joins before a board fails
    step(release(spanning[0]))
    step(release(single[0]))
    if len(spanning) > 1:
        step(migrate(spanning[1]))
        step(release(spanning[1]))
    step(migrate(single[-1]))
    step(deploy(compiled_small, rid))
    step(lambda ctrl: [d.request_id for d in ctrl.fail_board(0, 3.0)])
    for live in sorted(new.deployments):
        step(release(live))
    assert _flows(new) == ({}, [0] * len(_flows(new)[1]))
