"""The request table: a run's per-request records as typed columns.

``run_experiment`` keeps one :class:`~repro.sim.metrics.RequestTable`
row per admitted request instead of one ``RequestRecord`` object, and
``ExperimentResult.records`` reads the rows back as records.  These
tests hold the table to the object-per-request bookkeeping it replaced:

- the materialized records of five runs (requeue and migrate chaos, a
  backfill, an sjf and a guard-shedding run) hash to the digests the
  object-per-request code produced, field for field;
- the summary equals the old record fold (:func:`_fold_records`, its
  code verbatim over the materialized records), compared exactly;
- the table behaves as the read-only sequence and the id-keyed store
  the old ``list`` / ``dict`` of records did.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import pytest

from repro.cluster.cluster import make_cluster
from repro.faults.schedule import BoardDown, FaultSchedule
from repro.obs.stats import percentile
from repro.runtime.controller import SystemController
from repro.runtime.defrag import DefragConfig
from repro.runtime.guard import DegradedModeGuard
from repro.sim import campaign
from repro.sim.campaign import CampaignConfig
from repro.sim.experiment import compile_benchmarks, run_experiment, \
    specs_for
from repro.sim.metrics import MetricsCollector, RequestRecord, \
    RequestTable

_CHAOS = dict(num_boards=8, set_index=7, num_requests=200,
              mean_interarrival_s=1.5, seed=3, fault_profile="rack-outage",
              horizon_s=400.0)

#: scenario -> its config; "chaos-requeue" also loses every board at
#: ``CLUSTER_LOST_AT`` for good, so its tail fails permanently
CONFIGS = {
    "chaos-requeue": CampaignConfig(name="pin", recovery="requeue",
                                    **_CHAOS),
    "chaos-migrate": CampaignConfig(name="pin",
                                    recovery="migrate-on-failure",
                                    defrag=True, **_CHAOS),
    "backfill": CampaignConfig(name="pin", num_boards=8, set_index=10,
                               num_requests=300, mean_interarrival_s=0.2,
                               seed=5, discipline="backfill"),
    "sjf": CampaignConfig(name="pin", num_boards=8, set_index=7,
                          num_requests=300, mean_interarrival_s=0.3,
                          seed=5, discipline="sjf"),
    "guard-shed": CampaignConfig(name="pin", num_boards=8, set_index=8,
                                 num_requests=300, mean_interarrival_s=0.3,
                                 seed=11, fault_profile="zone-cascade",
                                 guard=True, horizon_s=300.0),
}
CLUSTER_LOST_AT = 250.0

#: sha256 of ``repr([dataclasses.astuple(r) for r in result.records])``
#: as the object-per-request bookkeeping produced it
PINNED = {
    "chaos-requeue":
        "cb04aed539ea29d1c75ed90f4012340a9724ab68e1f3c7db5a15a8800dd49561",
    "chaos-migrate":
        "5671119e63e98bc5dd7a7f11039fd247cdf40a6d369817182d5cdd5079b97c22",
    "backfill":
        "c06aefdc344a7d93cf49f2df4e2cee327d18e37f4b8fd28b0781457a3ba0180a",
    "sjf":
        "39efaf88f86355e6323318d0648ebd67196705ed61c94da40a538de6b2df7bdc",
    "guard-shed":
        "76cc52df5d6ead0adee7f10d6624032c506f150099d688aebc648af7c9b701a3",
}


def _run(name: str):
    config = CONFIGS[name]
    requests = campaign._requests(config)
    schedule = campaign._fault_schedule(config)
    if name == "chaos-requeue":
        schedule = FaultSchedule(
            [e for e in schedule if e.time_s < CLUSTER_LOST_AT]
            + [BoardDown(time_s=CLUSTER_LOST_AT, board=b)
               for b in range(config.num_boards)])
    apps = compile_benchmarks(make_cluster(num_boards=1),
                              specs=specs_for(requests))
    return run_experiment(
        SystemController(make_cluster(num_boards=config.num_boards)),
        requests, apps, discipline=config.discipline, faults=schedule,
        recovery=config.recovery,
        guard=DegradedModeGuard() if config.guard else None,
        defrag=DefragConfig() if config.defrag else None)


@pytest.fixture(scope="module")
def results():
    return {name: _run(name) for name in CONFIGS}


def _fold_records(records: list[RequestRecord]) -> dict:
    """The summary fields the record fold computed, verbatim."""
    done = [r for r in records if r.finished]
    responses = sorted(r.response_s for r in done)
    useful = sum(r.service_time_s for r in done)
    lost = sum(r.lost_service_s for r in records)
    return dict(
        num_requests=len(done),
        mean_response_s=sum(responses) / len(responses),
        p50_response_s=percentile(responses, 0.50),
        p95_response_s=percentile(responses, 0.95),
        mean_wait_s=sum(r.wait_s for r in done) / len(done),
        mean_service_s=(sum(r.service_time_s for r in done)
                        / len(done)),
        multi_fpga_fraction=(sum(1 for r in done if r.spans_boards)
                             / len(done)),
        max_latency_overhead=max(
            (r.latency_overhead_fraction for r in done), default=0.0),
        mean_reconfig_s=(sum(r.reconfig_time_s for r in done)
                         / len(done)),
        interruptions=float(sum(r.interruptions for r in records)),
        recoveries=float(sum(r.recoveries for r in records)),
        permanently_failed=float(
            sum(1 for r in records if r.permanently_failed)),
        goodput_fraction=useful / (useful + lost)
        if useful + lost else 1.0,
        shed_requests=float(sum(1 for r in records if r.shed)),
        readmitted_requests=float(
            sum(1 for r in records if r.readmitted)),
    )


class TestRunsMatchTheRecordObjects:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_materialized_records_are_pinned(self, results, name):
        rows = [dataclasses.astuple(r) for r in results[name].records]
        assert len(rows) == CONFIGS[name].num_requests
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == PINNED[name]

    def test_the_runs_reach_every_fault_field(self, results):
        """Each sparse column is exercised by some pinned run."""
        records = [r for result in results.values()
                   for r in result.records]
        assert any(r.interruptions for r in records)
        assert any(r.recoveries for r in records)
        assert any(r.lost_service_s for r in records)
        assert any(r.permanently_failed for r in records)
        assert any(r.shed for r in records)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_summary_equals_the_record_fold(self, results, name):
        result = results[name]
        summary = dataclasses.asdict(result.summary)
        records = list(result.records)
        folded = _fold_records(records)
        assert {key: summary[key] for key in folded} == folded

    def test_a_fault_free_run_keeps_no_sparse_entries(self, results):
        table = results["backfill"].records
        assert not (table.interruptions or table.recoveries
                    or table.lost_service_s or table.permanently_failed
                    or table.shed or table.readmitted)

    def test_rows_point_at_their_requests(self, results):
        config = CONFIGS["sjf"]
        table = results["sjf"].records
        requests = {r.request_id: r for r in campaign._requests(config)}
        for source in table.sources:
            assert source == requests[source.request_id]


def _record(rid: int, **fields) -> RequestRecord:
    return RequestRecord(request_id=rid, app_name="a", size="S",
                         num_blocks=1, arrival_s=float(rid), **fields)


class TestTable:
    def test_hand_built_records_round_trip(self):
        """``add_request`` keeps every field of the record it is given,
        the sparse ones included."""
        records = [
            _record(0),
            _record(1, deployed_s=1.5, completed_s=4.0, boards=2,
                    spans_boards=True, comm_slowdown=1.25,
                    latency_overhead_fraction=0.01, reconfig_time_s=0.2,
                    service_time_s=2.0),
            _record(2, interruptions=2, recoveries=1, lost_service_s=0.5,
                    readmitted=True),
            _record(3, permanently_failed=True),
            _record(4, shed=True),
        ]
        collector = MetricsCollector("m", 10)
        for record in records:
            collector.add_request(record)
        table = collector.records
        assert list(table) == records
        assert [dataclasses.astuple(r) for r in table] \
            == [dataclasses.astuple(r) for r in records]
        assert table.interruptions == {2: 2}
        assert table.readmitted == {2}
        assert table.permanently_failed == {3}
        assert table.shed == {4}

    def test_read_only_sequence(self):
        collector = MetricsCollector("m", 10)
        records = [_record(rid) for rid in range(4)]
        for record in records:
            collector.add_request(record)
        table = collector.records
        assert len(table) == 4
        assert table[-1] == records[-1]
        assert table[1:3] == records[1:3]
        assert table == records and table == tuple(records)
        assert table != records[:3]
        assert records[2] in table
        with pytest.raises(IndexError):
            table[4]
        with pytest.raises(TypeError):
            table[0] = records[0]
        assert RequestTable() == []

    def test_unset_times_are_the_nan_object(self):
        """Two unfinished records compare equal, as two defaults do."""
        collector = MetricsCollector("m", 10)
        collector.add_request(_record(0))
        record = collector.records[0]
        assert record.deployed_s is math.nan
        assert record.completed_s is math.nan
        assert record == _record(0)

    def test_ids_that_are_not_row_numbers(self):
        """The first id that is not its row number switches the table
        to a dict index; lookups by id keep working."""
        collector = MetricsCollector("m", 10)
        for rid in (0, 1, 7, 3):
            collector.add_request(_record(rid))
        table = collector.records
        assert [table.row(rid) for rid in (0, 1, 7, 3)] == [0, 1, 2, 3]
        collector.complete(7, 9.0)
        assert table[2].completed_s == 9.0
        with pytest.raises(KeyError):
            table.row(2)

    @pytest.mark.parametrize("ids", [(0, 1, 2), (5, 9, 7)])
    def test_an_id_has_one_row(self, ids):
        collector = MetricsCollector("m", 10)
        for rid in ids:
            collector.add_request(_record(rid))
        with pytest.raises(ValueError, match="already has a row"):
            collector.add_request(_record(ids[1]))
        assert len(collector.records) == 3

    def test_unknown_ids_raise(self):
        collector = MetricsCollector("m", 10)
        collector.add_request(_record(0))
        for rid in (1, -1):
            with pytest.raises(KeyError):
                collector.complete(rid, 1.0)
