"""Tests for the audit log and its controller integration."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.runtime.audit import AuditEvent, AuditLog
from repro.runtime.controller import SystemController
from repro.runtime.defrag import DefragmentingController
from repro.sim.chaos import run_scenario, standard_scenarios
from tests.reference_audit import ReferenceAuditLog


class TestAuditLog:
    def test_sequence_and_order(self):
        log = AuditLog()
        a = log.record(1.0, AuditEvent.DEPLOY, 1, "t1")
        b = log.record(2.0, AuditEvent.RELEASE, 1, "t1")
        assert (a.sequence, b.sequence) == (0, 1)
        assert len(log) == 2

    def test_strict_rejects_time_travel(self):
        log = AuditLog(strict=True)
        log.record(5.0, AuditEvent.DEPLOY, 1, "t1")
        with pytest.raises(ValueError, match="backwards"):
            log.record(4.0, AuditEvent.RELEASE, 1, "t1")

    def test_lenient_clamps_and_annotates(self):
        log = AuditLog()
        log.record(5.0, AuditEvent.DEPLOY, 1, "t1")
        entry = log.record(4.0, AuditEvent.RELEASE, 1, "t1")
        assert entry.time_s == 5.0
        assert entry.detail["reported_t"] == 4.0

    def test_queries(self):
        log = AuditLog()
        log.record(1.0, AuditEvent.DEPLOY, 1, "alice")
        log.record(2.0, AuditEvent.DEPLOY, 2, "bob")
        log.record(3.0, AuditEvent.RELEASE, 1, "alice")
        assert len(log.by_tenant("alice")) == 2
        assert len(log.by_request(2)) == 1
        assert len(log.window(1.5, 2.5)) == 1
        assert log.counts()[AuditEvent.DEPLOY] == 2

    def test_live_requests_rederivation(self):
        log = AuditLog()
        log.record(1.0, AuditEvent.DEPLOY, 1, "a")
        log.record(2.0, AuditEvent.DEPLOY, 2, "b")
        log.record(3.0, AuditEvent.RELEASE, 1, "a")
        assert log.live_requests() == {2}

    def test_jsonl_roundtrips(self):
        log = AuditLog()
        log.record(1.0, AuditEvent.DEPLOY, 7, "t", app="x")
        lines = log.to_jsonl().splitlines()
        parsed = json.loads(lines[0])
        assert parsed["event"] == "deploy"
        assert parsed["detail"]["app"] == "x"


class TestControllerIntegration:
    def test_deploy_release_recorded(self, cluster, compiled_small):
        controller = SystemController(cluster)
        d = controller.try_deploy(compiled_small, 1, 1.0)
        controller.release(d, 9.0)
        events = [e.event for e in controller.audit.entries()]
        assert events == [AuditEvent.DEPLOY, AuditEvent.RELEASE]
        deploy = controller.audit.entries()[0]
        assert deploy.detail["app"] == compiled_small.name
        assert deploy.detail["blocks"] == compiled_small.num_blocks

    def test_rejection_recorded_with_reason(self, cluster,
                                            compiled_large):
        controller = SystemController(cluster)
        rid = 0
        while controller.try_deploy(compiled_large, rid, 0.0):
            rid += 1
        rejected = controller.audit.by_request(rid)
        assert rejected[-1].event is AuditEvent.REJECT
        assert rejected[-1].detail["reason"] == "no-free-blocks"

    def test_log_agrees_with_live_state(self, cluster, compiled_small,
                                        compiled_medium):
        controller = SystemController(cluster)
        live = []
        for rid in range(8):
            d = controller.try_deploy(
                compiled_small if rid % 2 else compiled_medium,
                rid, float(rid))
            if d is not None:
                live.append(d)
        controller.release(live.pop(0), 100.0)
        assert controller.audit.live_requests() \
            == set(controller.deployments)

    def test_migration_recorded(self, cluster, compiled_medium,
                                compiled_large):
        controller = DefragmentingController(cluster)
        live = []
        rid = 0
        while (d := controller.try_deploy(compiled_medium, rid, 0.0)) \
                is not None:
            live.append(d)
            rid += 1
        freed = {}
        for d in sorted(live, key=lambda d: d.request_id):
            b = d.placement.boards[0]
            if freed.get(b, 0) < compiled_large.num_blocks - 2:
                controller.release(d, 1.0)
                freed[b] = freed.get(b, 0) + d.num_blocks
        controller.try_deploy(compiled_large, 900, 2.0)
        if controller.migrations_performed:
            migrations = [e for e in controller.audit.entries()
                          if e.event is AuditEvent.MIGRATE]
            assert len(migrations) == controller.migrations_performed
            assert all(e.detail["pause_s"] > 0 for e in migrations)


def _assert_same_log(log: AuditLog, ref: ReferenceAuditLog) -> None:
    """Every query of the column log equals the entry-list oracle's."""
    entries = ref.entries()
    assert len(log) == len(ref)
    assert log.entries() == entries
    assert log.to_jsonl() == ref.to_jsonl()
    assert log.counts() == ref.counts()
    assert list(log.counts()) == list(ref.counts())
    assert log.live_requests() == ref.live_requests()
    for tenant in {e.tenant for e in entries} | {"nobody"}:
        assert log.by_tenant(tenant) == ref.by_tenant(tenant)
    for rid in {e.request_id for e in entries} | {-7}:
        assert log.by_request(rid) == ref.by_request(rid)
    times = sorted({e.time_s for e in entries})
    for t0, t1 in zip(times[::3], times[2::3]):
        assert log.window(t0, t1) == ref.window(t0, t1)


class TestColumnsMatchEntryList:
    """The column store against the one-entry-per-record log it
    replaced (``tests/reference_audit.py``)."""

    @pytest.mark.parametrize("scenario",
                             ["rack-outage", "rack-outage-defrag"])
    def test_chaos_run_replays_identically(self, monkeypatch, scenario):
        calls, logs = [], []
        append = AuditLog.append

        def recording(self, *args, **detail):
            append(self, *args, **detail)
            calls.append((args, detail, self._entry(len(self) - 1)))
            if not logs or logs[-1] is not self:
                logs.append(self)

        # the runtime logs through ``append`` (no entry built per
        # record); each record's entry is read back off the columns
        monkeypatch.setattr(AuditLog, "append", recording)
        [chosen] = [s for s in standard_scenarios()
                    if s.name == scenario]
        run_scenario(chosen)
        [log] = logs
        seen = {args[1] for args, _, _ in calls}
        # the run logged placements, rejects, faults and evictions
        assert {AuditEvent.DEPLOY, AuditEvent.RELEASE, AuditEvent.REJECT,
                AuditEvent.FAIL, AuditEvent.EVICT,
                AuditEvent.REPAIR} <= seen
        ref = ReferenceAuditLog()
        for args, detail, entry in calls:
            assert ref.record(*args, **detail) == entry
        _assert_same_log(log, ref)

    @given(st.lists(st.tuples(
        st.floats(-3.0, 6.0, allow_nan=False),
        st.sampled_from(list(AuditEvent)),
        st.integers(-1, 4),
        st.sampled_from(["alice", "bob", "-"]),
        st.sampled_from([
            {}, {"app": "x"}, {"app": "y", "was_guest": True},
            {"board": 3, "victims": 2},
            {"app": "x", "boards": [0, 1], "blocks": 4, "spans": True,
             "reconfig_s": 0.25},
            {"reported_t": 1.5}])),
        max_size=30), st.booleans())
    def test_random_streams_incl_clamps(self, records, strict):
        """Backwards times clamp (and add ``reported_t`` after the
        caller's keys) or raise in strict mode, identically."""
        log, ref = AuditLog(strict=strict), ReferenceAuditLog(strict)
        for time_s, event, rid, tenant, detail in records:
            outcomes = []
            for target in (log, ref):
                try:
                    outcomes.append(target.record(
                        time_s, event, rid, tenant, **detail))
                except ValueError as err:
                    outcomes.append(str(err))
            assert outcomes[0] == outcomes[1]
        _assert_same_log(log, ref)
