"""Regression tests for three availability-accounting bugs.

Each test pins one fix:

1. ``SystemController.snapshot``/``restore`` dropped the
   ``model_dram_contention`` flag, so a restarted controller stopped
   charging the DRAM-contention slowdown it was configured with;
2. ``_average_summaries`` reported replica 0's ``num_requests`` instead
   of the replica mean -- under fault schedules replicas complete
   different numbers of requests, so the reported count misstated the
   set;
3. the requeue-redeploy path overwrote ``record.reconfig_time_s`` with
   ``=`` while the migration path accumulates with ``+=``, so an
   eviction victim's earlier (real) reconfigurations vanished from
   ``mean_reconfig_s``.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.cluster.cluster import make_cluster
from repro.faults.schedule import BoardDown, BoardUp, FaultSchedule
from repro.runtime.bitstream_db import BitstreamDB
from repro.runtime.controller import SystemController
from repro.sim.experiment import _average_summaries, run_experiment
from repro.sim.metrics import SummaryMetrics
from repro.sim.workload import Request


class TestSnapshotCarriesDramContentionFlag:
    def test_flag_survives_restart(self, cluster):
        controller = SystemController(cluster,
                                      model_dram_contention=True)
        restored = SystemController.restore(
            cluster, controller.snapshot(),
            BitstreamDB(cluster.footprint))
        assert restored.model_dram_contention is True

    def test_default_stays_off(self, cluster):
        controller = SystemController(cluster)
        restored = SystemController.restore(
            cluster, controller.snapshot(),
            BitstreamDB(cluster.footprint))
        assert restored.model_dram_contention is False

    def test_legacy_snapshot_without_flag(self, cluster):
        """Snapshots taken before the fix have no flag: restore must
        fall back to off, not crash."""
        snapshot = SystemController(cluster).snapshot()
        snapshot.pop("model_dram_contention")
        restored = SystemController.restore(
            cluster, snapshot, BitstreamDB(cluster.footprint))
        assert restored.model_dram_contention is False


def _summary(num_requests: int, mean_response_s: float) -> SummaryMetrics:
    return SummaryMetrics(
        manager="m", num_requests=num_requests,
        mean_response_s=mean_response_s, p50_response_s=0.0,
        p95_response_s=0.0, mean_wait_s=0.0, mean_service_s=0.0,
        makespan_s=0.0, block_utilization=0.0,
        block_utilization_pressured=0.0, mean_concurrency=0.0,
        peak_concurrency=0, multi_fpga_fraction=0.0,
        max_latency_overhead=0.0, mean_reconfig_s=0.0)


class TestAverageSummariesAveragesRequestCount:
    def test_unequal_replicas_average(self):
        """Fault replicas complete different counts (permanent
        failures); the report must carry the mean, not replica 0's."""
        averaged = _average_summaries([_summary(120, 10.0),
                                       _summary(90, 20.0),
                                       _summary(105, 30.0)])
        assert averaged.num_requests == pytest.approx(105.0)
        assert averaged.mean_response_s == pytest.approx(20.0)

    def test_single_replica_passthrough(self):
        only = _summary(42, 5.0)
        assert _average_summaries([only]) is only

    def test_every_field_is_the_mean_or_the_max(self):
        """Distinct values per field and replica: ``manager`` comes from
        replica 0, ``peak_*`` / ``max_*`` take the maximum, every other
        field the replica mean, in the ``sum(...) / n`` float order."""
        names = [f.name for f in dataclasses.fields(SummaryMetrics)]
        replicas = [
            SummaryMetrics(manager=f"m{r}", **{
                name: (i + 1) * 10.0 + (r * 7 + i) % 5 * 0.1
                for i, name in enumerate(names) if name != "manager"})
            for r in range(3)]
        averaged = _average_summaries(replicas)
        assert averaged.manager == "m0"
        for name in names[1:]:
            column = [getattr(s, name) for s in replicas]
            assert len(set(column)) == 3, name
            expected = max(column) \
                if name.startswith(("peak_", "max_")) \
                else sum(getattr(s, name) for s in replicas) / 3
            assert getattr(averaged, name) == expected, name
        assert {"peak_concurrency", "peak_queue_len",
                "max_latency_overhead"} < set(names)


class TestRequeueAccumulatesReconfigTime:
    def test_victim_counts_both_attempts(self, partition,
                                         compiled_small):
        """A requeued eviction victim redeploys, paying a second real
        reconfiguration; its record must carry the sum of both."""
        from repro.hls.kernels import benchmark
        spec = benchmark("mlp-mnist", "S")
        request = Request(request_id=0, spec=spec, arrival_s=0.0)
        apps = {spec.name: compiled_small}

        clean = run_experiment(
            SystemController(make_cluster(2, partition=partition)),
            [request], apps)
        single = clean.records[0].reconfig_time_s
        assert single > 0.0

        # fail the hosting board mid-service; the victim restarts on
        # the surviving board (fail-requeue loses its progress)
        record = clean.records[0]
        mid = (record.deployed_s + record.reconfig_time_s
               + record.completed_s) / 2
        # the first-fit fresh controller places the lone request on
        # board 0; the interruptions assert below trips if that drifts
        faults = FaultSchedule([BoardDown(time_s=mid, board=0),
                                BoardUp(time_s=mid + 30.0, board=0)])
        faulty = run_experiment(
            SystemController(make_cluster(2, partition=partition)),
            [request], apps, faults=faults, recovery="fail-requeue")
        victim = faulty.records[0]
        assert victim.interruptions == 1
        assert victim.lost_service_s > 0.0
        assert victim.reconfig_time_s == pytest.approx(2 * single)
        assert not math.isnan(victim.completed_s)
