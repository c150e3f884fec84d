"""Tests for the system controller and isolation guarantees."""

import pytest

from repro.runtime.controller import SystemController
from repro.runtime.isolation import IsolationViolation, verify_isolation
from repro.runtime.policy import SpreadPolicy


@pytest.fixture()
def controller(cluster):
    return SystemController(cluster)


class TestDeployRelease:
    def test_deploy_allocates_blocks(self, controller, compiled_medium):
        d = controller.try_deploy(compiled_medium, 1, now=0.0)
        assert d is not None
        assert controller.busy_blocks() == compiled_medium.num_blocks
        assert controller.resource_db.blocks_of(1) \
            == d.placement.addresses

    def test_release_frees_everything(self, controller,
                                      compiled_medium):
        d = controller.try_deploy(compiled_medium, 1, now=0.0)
        controller.release(d)
        assert controller.busy_blocks() == 0
        assert controller.running() == []
        for memory in controller.memories.values():
            assert memory.tenants() == []

    def test_double_release_rejected(self, controller, compiled_small):
        d = controller.try_deploy(compiled_small, 1, now=0.0)
        controller.release(d)
        with pytest.raises(RuntimeError, match="not deployed"):
            controller.release(d)

    def test_register_makes_lookup_work(self, controller,
                                        compiled_small):
        controller.register(compiled_small)
        assert compiled_small.name in controller.bitstream_db

    def test_returns_none_when_full(self, controller, compiled_large):
        deployed = []
        rid = 0
        while True:
            d = controller.try_deploy(compiled_large, rid, now=0.0)
            if d is None:
                break
            deployed.append(d)
            rid += 1
        assert deployed  # at least some fit
        assert controller.try_deploy(compiled_large, 999, 0.0) is None

    def test_memory_mapped_per_board(self, controller, compiled_large):
        d = controller.try_deploy(compiled_large, 1, now=0.0)
        for board in d.placement.boards:
            assert d.tenant in controller.memories[board].tenants()

    def test_reconfig_time_scales_with_blocks(self, controller,
                                              compiled_small,
                                              compiled_large):
        ds = controller.try_deploy(compiled_small, 1, now=0.0)
        dl = controller.try_deploy(compiled_large, 2, now=0.0)
        assert dl.reconfig_time_s > ds.reconfig_time_s

    def test_partial_reconfig_cheaper_than_full_device(self, controller,
                                                       compiled_small,
                                                       cluster):
        d = controller.try_deploy(compiled_small, 1, now=0.0)
        assert d.reconfig_time_s \
            < cluster.reconfigurer.full_device_time_s()


class TestServiceModel:
    def test_single_board_no_overhead(self, controller,
                                      compiled_medium):
        d = controller.try_deploy(compiled_medium, 1, now=0.0)
        assert d.placement.num_boards == 1
        assert d.comm_slowdown == 1.0
        assert d.latency_overhead_s == 0.0
        assert d.service_time_s \
            == pytest.approx(compiled_medium.service_time_s())

    def test_spanning_overhead_negligible(self, cluster,
                                          compiled_large):
        """Section 5.5: the LI interface overhead is <0.03% of the total
        execution time under the communication-aware policy."""
        controller = SystemController(cluster)
        # fill boards so the large app must span
        filler = []
        rid = 0
        for _ in range(8):
            d = controller.try_deploy(compiled_large, rid, 0.0)
            if d is None:
                break
            filler.append(d)
            rid += 1
        d = None
        while d is None and filler:
            controller.release(filler.pop())
            d = controller.try_deploy(compiled_large, 100, 0.0)
        assert d is not None
        if d.spans_boards:
            assert d.latency_overhead_fraction < 3e-4

    def test_spread_policy_pays_more_overhead(self, cluster,
                                              compiled_large):
        aware = SystemController(cluster)
        spread = SystemController(cluster, policy=SpreadPolicy())
        da = aware.try_deploy(compiled_large, 1, 0.0)
        ds = spread.try_deploy(compiled_large, 1, 0.0)
        assert ds.placement.num_boards > da.placement.num_boards
        assert ds.latency_overhead_s >= da.latency_overhead_s
        aware.release(da)
        spread.release(ds)

    def test_completion_time_composition(self, controller,
                                         compiled_small):
        d = controller.try_deploy(compiled_small, 1, now=10.0)
        assert d.completion_time \
            == pytest.approx(10.0 + d.reconfig_time_s
                             + d.service_time_s)



class _FlowApp:
    """The two things the service model reads off a compiled app."""

    def __init__(self, flows, base_s):
        self.flows = flows
        self._base_s = base_s

    def service_time_s(self):
        return self._base_s


def _per_flow_model(ctrl, app, placement):
    """The spanning service model as a per-flow loop: one
    ``bits / effective_bits`` and one hop lookup per crossing flow."""
    from repro.interconnect.links import LINKS, LinkClass
    from repro.runtime.controller import COMPUTE_CYCLES_PER_BEAT
    network = ctrl.cluster.network
    contention = max(1, network.contention_factor(placement.boards))
    effective = LINKS[LinkClass.INTER_FPGA].bits_per_cycle / contention
    worst, hops = 0.0, 0
    for (src, dst), bits in app.flows.items():
        a, b = placement.board_of(src), placement.board_of(dst)
        if a != b:
            worst = max(worst, bits / effective)
            hops = max(hops, network.distance(a, b))
    slowdown = max(1.0, worst / COMPUTE_CYCLES_PER_BEAT) \
        * ctrl._dram_slowdown(placement)
    latency = 2 * hops * network.hop_latency_us * 1e-6
    base = app.service_time_s()
    return (base * slowdown + latency, slowdown,
            base * (slowdown - 1.0) + latency)


class TestSpanningModelEqualsPerFlowLoop:
    """One pass over the flows (largest crossing ``bits`` divided once)
    gives exactly the per-flow ``max(bits / effective_bits)`` loop's
    figures: zero-bit flows, placements with no crossing flow, 2-4
    boards, other flows sharing the ring and a degraded segment."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_flows_and_mappings(self, seed):
        import random

        from repro.cluster.cluster import make_cluster
        from repro.runtime.types import Placement

        rng = random.Random(seed)
        cluster = make_cluster(num_boards=rng.randint(4, 8))
        network = cluster.network
        boards = list(range(network.num_nodes))
        ctrl = SystemController(cluster)
        if seed % 2:
            # the contention slow path: a degraded segment on the ring
            network.degrade_segment(rng.randrange(network.num_nodes),
                                    rng.choice((0.25, 0.5, 0.8)))
        for flow in range(rng.randint(0, 6)):
            network.register_flow(("other", flow),
                                  rng.sample(boards, rng.randint(2, 4)))
        cases = 0
        for _ in range(40):
            span = rng.sample(boards, rng.randint(2, 4))
            blocks = rng.randint(len(span), 12)
            mapping = {vb: (span[vb] if vb < len(span)
                            else rng.choice(span), vb)
                       for vb in range(blocks)}
            if rng.random() < 0.2:
                # no crossing flow: every flow stays on one board
                flows = {(v, v): rng.uniform(0.0, 900.0)
                         for v in range(blocks)}
            else:
                # widths from zero to far past the ~51 200 bits at
                # which serialization outruns compute on a quiet ring
                flows = {(rng.randrange(blocks), rng.randrange(blocks)):
                         rng.choice((0.0, 0, rng.uniform(0.0, 1500.0),
                                     10 ** rng.uniform(3.0, 6.5),
                                     float(rng.randint(1, 1 << 20))))
                         for _ in range(rng.randint(0, 20))}
            app = _FlowApp(flows, rng.uniform(0.5, 200.0))
            placement = Placement(mapping=mapping)
            # (service time, comm slowdown, latency overhead)
            got = ctrl._service_model(app, placement)
            assert got == _per_flow_model(ctrl, app, placement)
            assert all(type(x) is float for x in got)
            cases += 1
        assert cases == 40


class TestQuotas:
    def test_quota_blocks_admission(self, controller, compiled_medium):
        audit = controller.attach_audit()
        controller.set_quota("acme", compiled_medium.num_blocks)
        d1 = controller.try_deploy(compiled_medium, 1, 0.0,
                                   tenant="acme")
        assert d1 is not None
        d2 = controller.try_deploy(compiled_medium, 2, 0.0,
                                   tenant="acme")
        assert d2 is None
        rejected = audit.by_request(2)
        assert rejected[-1].detail["reason"] == "quota-exceeded"

    def test_quota_frees_with_release(self, controller,
                                      compiled_medium):
        controller.set_quota("acme", compiled_medium.num_blocks)
        d1 = controller.try_deploy(compiled_medium, 1, 0.0,
                                   tenant="acme")
        controller.release(d1)
        assert controller.try_deploy(compiled_medium, 2, 0.0,
                                     tenant="acme") is not None

    def test_quota_per_tenant(self, controller, compiled_medium):
        controller.set_quota("acme", 0)
        assert controller.try_deploy(compiled_medium, 1, 0.0,
                                     tenant="acme") is None
        assert controller.try_deploy(compiled_medium, 2, 0.0,
                                     tenant="globex") is not None

    def test_remove_quota(self, controller, compiled_small):
        controller.set_quota("acme", 0)
        controller.remove_quota("acme")
        assert controller.try_deploy(compiled_small, 1, 0.0,
                                     tenant="acme") is not None

    def test_negative_quota_rejected(self, controller):
        with pytest.raises(ValueError):
            controller.set_quota("acme", -1)

    def test_blocks_held_accounting(self, controller, compiled_small,
                                    compiled_medium):
        controller.try_deploy(compiled_small, 1, 0.0, tenant="acme")
        controller.try_deploy(compiled_medium, 2, 0.0, tenant="acme")
        controller.try_deploy(compiled_small, 3, 0.0, tenant="globex")
        assert controller.blocks_held_by("acme") \
            == compiled_small.num_blocks + compiled_medium.num_blocks

    def test_same_tenant_deployments_release_independently(
            self, controller, compiled_small):
        """Regression: releasing one of a tenant's deployments must not
        free the other's DRAM segments or bandwidth demand."""
        d1 = controller.try_deploy(compiled_small, 1, 0.0,
                                   tenant="acme")
        d2 = controller.try_deploy(compiled_small, 2, 0.0,
                                   tenant="acme")
        board2 = d2.placement.boards[0]
        controller.release(d1)
        # d2's memory is still mapped and its demand still attached
        assert "acme" in controller.memories[board2].tenants()
        assert controller.dram_arbiters[board2].total_demand() > 0
        controller.release(d2)
        assert controller.dram_arbiters[board2].total_demand() == 0
        for memory in controller.memories.values():
            assert memory.used_bytes() == 0


class TestIsolation:
    def test_verify_passes_under_load(self, controller, compiled_small,
                                      compiled_medium, compiled_large):
        rid = 0
        for app in (compiled_small, compiled_medium, compiled_large) * 3:
            controller.try_deploy(app, rid, now=0.0)
            rid += 1
        verify_isolation(controller)

    def test_verify_passes_through_churn(self, controller,
                                         compiled_medium):
        live = {}
        for rid in range(20):
            d = controller.try_deploy(compiled_medium, rid, now=0.0)
            if d is not None:
                live[rid] = d
            if rid % 3 == 2 and live:
                _, victim = live.popitem()
                controller.release(victim)
            verify_isolation(controller)

    def test_detects_ghost_allocation(self, controller,
                                      compiled_small):
        controller.try_deploy(compiled_small, 1, now=0.0)
        # corrupt: allocate a block in the DB with no deployment
        controller.resource_db.allocate(999, [(3, 14)])
        with pytest.raises(IsolationViolation, match="ghosts"):
            verify_isolation(controller)

    def test_detects_shared_block(self, controller, compiled_small):
        d1 = controller.try_deploy(compiled_small, 1, now=0.0)
        d2 = controller.try_deploy(compiled_small, 2, now=0.0)
        # corrupt d2's placement to point at d1's block
        vb = 0
        d2.placement.mapping[vb] = d1.placement.mapping[0]
        with pytest.raises(IsolationViolation, match="shared"):
            verify_isolation(controller)
