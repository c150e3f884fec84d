"""Tests for heterogeneous-cluster support (Section 7 extension)."""

import pytest

from repro.cluster.cluster import FPGACluster, make_cluster, \
    make_heterogeneous_cluster
from repro.compiler.relocation import RelocationError
from repro.hls.kernels import benchmark
from repro.runtime.hetero import HeterogeneousController, \
    HeterogeneousStack
from repro.runtime.isolation import verify_isolation
from repro.runtime.types import Placement


@pytest.fixture(scope="module")
def hetero_cluster():
    return make_heterogeneous_cluster(
        ["XCVU37P", "XCVU37P", "VU13P", "VU13P"])


@pytest.fixture()
def stack(hetero_cluster):
    return HeterogeneousStack(hetero_cluster)


class TestMixedCluster:
    def test_two_footprint_groups(self, hetero_cluster):
        assert len(hetero_cluster.footprints()) == 2

    def test_footprint_property_rejects_ambiguity(self, hetero_cluster):
        with pytest.raises(ValueError, match="no single footprint"):
            _ = hetero_cluster.footprint

    def test_homogeneous_check_still_enforced(self):
        a = make_cluster(num_boards=1)
        b = make_heterogeneous_cluster(["VU13P"])
        with pytest.raises(ValueError, match="allow_heterogeneous"):
            FPGACluster(boards=[a.boards[0], b.boards[0]],
                        network=a.network)

    def test_same_type_boards_share_footprint(self, hetero_cluster):
        groups = {fp: hetero_cluster.boards_with_footprint(fp)
                  for fp in hetero_cluster.footprints()}
        assert all(len(boards) == 2 for boards in groups.values())

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            make_heterogeneous_cluster([])


class TestHeterogeneousStack:
    def test_compiles_once_per_footprint(self, stack):
        artifacts = stack.compile(benchmark("alexnet", "M"))
        assert set(artifacts) == stack.cluster.footprints()
        block_counts = {app.num_blocks for app in artifacts.values()}
        # bigger blocks on the VU13P group => fewer blocks there
        assert len(block_counts) == 2

    def test_deploy_targets_matching_group(self, stack):
        spec = benchmark("svhn", "L")
        d = stack.deploy(spec)
        assert d is not None
        app_fp = stack.controller.deployments[
            d.request_id].app.footprint
        boards = stack.cluster.boards_with_footprint(app_fp)
        assert set(d.placement.boards) \
            <= {b.board_id for b in boards}
        stack.release(d)

    def test_never_mixes_groups_in_one_placement(self, stack):
        spec = benchmark("resnet18", "L")
        live = []
        while (d := stack.deploy(spec)) is not None:
            live.append(d)
            fps = {stack.cluster.board(b).partition.blocks[0].footprint
                   for b in d.placement.boards}
            assert len(fps) == 1
        assert live
        for d in live:
            stack.release(d)

    def test_spills_to_second_group(self, stack):
        """When the preferred group fills up, the other serves."""
        spec = benchmark("mlp-mnist", "M")
        live = []
        while (d := stack.deploy(spec)) is not None:
            live.append(d)
        groups_used = set()
        for d in live:
            fp = stack.cluster.board(
                d.placement.boards[0]).partition.blocks[0].footprint
            groups_used.add(fp)
        assert groups_used == stack.cluster.footprints()
        for d in live:
            stack.release(d)
        assert stack.controller.busy_blocks() == 0

    @pytest.mark.parametrize("front_door", ["stack", "adapter"])
    def test_quarantined_group_does_not_outrank_a_serviceable_one(
            self, hetero_cluster, front_door):
        """Group ranking counts allocatable boards only.  With the
        roomier (higher-ranked) group fully quarantined, the request
        goes straight to the serviceable group -- no futile search,
        so no REJECT in the audit log.  Before PR 17 the quarantined
        group's idle blocks still ranked it first."""
        from repro.runtime.audit import AuditEvent
        from repro.runtime.guard import DegradedModeGuard, GuardConfig
        from repro.runtime.hetero import HeterogeneousManagerAdapter
        adapter = HeterogeneousManagerAdapter(hetero_cluster)
        stack = adapter.stack
        controller = stack.controller
        controller.attach_audit()
        spec = benchmark("cifar10", "M")
        artifacts = stack.compile(spec)
        roomier, serviceable = sorted(
            artifacts, key=lambda fp: -sum(
                b.num_blocks
                for b in hetero_cluster.boards_with_footprint(fp)))
        guard = DegradedModeGuard(GuardConfig(failure_threshold=1))
        controller.attach_guard(guard)
        for board in hetero_cluster.boards_with_footprint(roomier):
            guard.record_board_failure(board.board_id, now=1.0)
        assert guard.excluded_boards() == {
            b.board_id
            for b in hetero_cluster.boards_with_footprint(roomier)}
        if front_door == "stack":
            deployment = stack.deploy(spec, now=2.0)
        else:
            deployment = adapter.try_deploy(artifacts[roomier], 77, 2.0)
        assert deployment is not None
        assert deployment.app.footprint == serviceable
        assert AuditEvent.REJECT not in controller.audit.counts()

    def test_isolation_holds_across_groups(self, stack):
        for i, (fam, size) in enumerate([("vgg16", "S"),
                                         ("cifar10", "L"),
                                         ("lenet5", "M")]):
            stack.deploy(benchmark(fam, size))
        verify_isolation(stack.controller)

    def test_manager_adapter_protocol(self, hetero_cluster,
                                      compiled_medium):
        from repro.baselines.base import ClusterManager
        from repro.runtime.hetero import HeterogeneousManagerAdapter
        adapter = HeterogeneousManagerAdapter(hetero_cluster)
        assert isinstance(adapter, ClusterManager)
        d = adapter.try_deploy(compiled_medium, 0, 0.0)
        assert d is not None
        assert adapter.busy_blocks() == d.num_blocks
        adapter.release(d, 1.0)
        assert adapter.busy_blocks() == 0

    def test_adapter_replays_workload(self, hetero_cluster,
                                      compiled_apps):
        from repro.runtime.hetero import HeterogeneousManagerAdapter
        from repro.sim.experiment import run_experiment
        from repro.sim.workload import WorkloadGenerator
        requests = [r for r in WorkloadGenerator(seed=3).generate(
            7, num_requests=25, mean_interarrival_s=3.0)
            if r.spec.name in compiled_apps]
        result = run_experiment(
            HeterogeneousManagerAdapter(hetero_cluster), requests,
            compiled_apps)
        assert result.summary.num_requests == len(requests)

    def test_register_rejects_foreign_footprint(self, hetero_cluster,
                                                cluster):
        from repro.compiler.flow import CompilationFlow
        controller = HeterogeneousController(hetero_cluster)
        # compile against the homogeneous test cluster: same device
        # type, so the footprint matches the XCVU37P group and registers
        flow = CompilationFlow(fabric=cluster.partition)
        app = flow.compile(benchmark("vgg16", "S"))
        controller.register(app)  # accepted: footprint group exists
        # now fake an unknown footprint
        import dataclasses
        alien = dataclasses.replace(app, footprint="unknown-device")
        with pytest.raises(ValueError, match="matches no board group"):
            controller.register(alien)


class TestRelocationMemo:
    """The controller memoises relocation checks per (image, board
    kind, block index); a kind is a board's block signature."""

    def test_clones_of_one_partition_share_a_kind(self, hetero_cluster):
        homogeneous = HeterogeneousController(make_cluster(num_boards=6))
        assert len(set(homogeneous._board_kind)) == 1
        kinds = HeterogeneousController(hetero_cluster)._board_kind
        assert kinds[0] == kinds[1] != kinds[2] == kinds[3]

    def test_incompatible_kind_still_raises(self, hetero_cluster,
                                            cluster):
        from repro.compiler.flow import CompilationFlow
        controller = HeterogeneousController(hetero_cluster)
        # an XCVU37P-group artifact (boards 0 and 1)
        app = CompilationFlow(fabric=cluster.partition).compile(
            benchmark("vgg16", "S"))
        controller.register(app)
        memo = controller._reloc_checked

        def place(request_id, board):
            return controller._finalize_deploy(
                app, request_id, 0.0, "t",
                Placement(mapping={0: (board, 0)}), [board])

        assert place(1, 0) is not None
        assert len(memo) == 1
        assert place(2, 1) is not None    # same kind: a memo hit
        assert len(memo) == 1
        # same image, same block index, the other kind: the memoised
        # success must not vouch for it
        with pytest.raises(RelocationError, match="incompatible"):
            place(3, 2)
        assert len(memo) == 1
        assert set(controller.deployments) == {1, 2}
