"""Tests for the audit log and its controller integration."""

import json

import pytest
from hypothesis import given, strategies as st

from repro.runtime.audit import AuditEvent, AuditLog
from repro.runtime.controller import SystemController
from repro.runtime.defrag import DefragmentingController
from repro.runtime.sharing import FunctionSharingController
from repro.sim.chaos import run_scenario, standard_scenarios
from tests.reference_audit import ReferenceAuditLog, record_as_before


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
    def test_unattached_controller_keeps_no_log(self, cluster,
                                                compiled_small):
        """No log until ``attach_audit``; then from that record on."""
        from repro.obs.tracer import Tracer
        controller = SystemController(cluster, tracer=Tracer())
        first = controller.try_deploy(compiled_small, 1, 1.0)
        assert controller.audit is None
        audit = controller.attach_audit()
        assert controller.audit is audit and len(audit) == 0
        controller.release(first, 2.0)
        assert [(e.event, e.request_id) for e in audit.entries()] \
            == [(AuditEvent.RELEASE, 1)]

    def test_tracer_assigned_directly_still_records(self, cluster,
                                                    compiled_small):
        from repro.obs.tracer import Tracer
        controller = SystemController(cluster)
        controller.tracer = tracer = Tracer()
        controller.try_deploy(compiled_small, 1, 1.0)
        assert [e["name"] for e in tracer.entries()] == ["ctrl.deploy"]
        controller.tracer = None
        controller.try_deploy(compiled_small, 2, 2.0)
        assert len(tracer) == 1

    def test_deploy_release_recorded(self, cluster, compiled_small):
        controller = SystemController(cluster)
        controller.attach_audit()
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
        controller.attach_audit()
        rid = 0
        while controller.try_deploy(compiled_large, rid, 0.0):
            rid += 1
        rejected = controller.audit.by_request(rid)
        assert rejected[-1].event is AuditEvent.REJECT
        assert rejected[-1].detail["reason"] == "no-free-blocks"

    def test_log_agrees_with_live_state(self, cluster, compiled_small,
                                        compiled_medium):
        controller = SystemController(cluster)
        controller.attach_audit()
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
        controller.attach_audit()
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


def _tap(monkeypatch) -> tuple[list, list]:
    """Record every write into any :class:`AuditLog`: ``("record", name,
    t, fields, tenant)`` per controller record, ``("append", args,
    detail)`` per direct append (the sharing controller's own rows).
    Returns ``(writes, logs written to)``."""
    writes, logs = [], []
    on_record, append = AuditLog.on_record, AuditLog.append
    inside = [False]

    def tapped_record(self, name, t, fields, tenant=None):
        writes.append(("record", name, t, dict(fields), tenant))
        inside[0] = True
        try:
            on_record(self, name, t, fields, tenant)
        finally:
            inside[0] = False

    def tapped_append(self, *args, **detail):
        if not inside[0]:
            writes.append(("append", args, dict(detail)))
        append(self, *args, **detail)
        if self not in logs:
            logs.append(self)

    monkeypatch.setattr(AuditLog, "on_record", tapped_record)
    monkeypatch.setattr(AuditLog, "append", tapped_append)
    return writes, logs


def _as_before(writes) -> ReferenceAuditLog:
    """The entry-list log, filled as the controller filled it when every
    run kept one."""
    ref = ReferenceAuditLog()
    for write in writes:
        if write[0] == "record":
            record_as_before(ref, *write[1:])
        else:
            ref.record(*write[1], **write[2])
    return ref


#: every ``ctrl.*`` record the log keeps, with the traced fields each
#: carries (board-scoped records name no request or tenant; a retry is
#: traced without its tenant)
_TRACED_KEYS = {
    "ctrl.reject": ("request", "tenant", "app", "reason", "needed"),
    "ctrl.deploy": ("request", "tenant", "app", "reason", "boards",
                    "blocks", "spans", "blocks_by_board", "reconfig_s",
                    "comm_slowdown", "candidates"),
    "ctrl.release": ("request", "tenant", "app", "reason"),
    "ctrl.board_fail": ("board", "victims"),
    "ctrl.evict": ("request", "tenant", "app", "reason"),
    "ctrl.board_repair": ("board",),
    "ctrl.recover": ("request", "tenant", "app", "reason", "boards"),
    "ctrl.migrate": ("request", "tenant", "app", "reason", "from_boards",
                     "boards", "to_boards", "blocks", "blocks_by_board",
                     "spans", "dram_bytes", "fifo_beats", "pause_s"),
    "ctrl.reconfig_retry": ("request", "board", "reason", "attempt",
                            "backoff_s"),
}
_SECONDS = st.floats(0.0, 2.0, allow_nan=False)
_FIELD_VALUES = {
    "request": st.integers(0, 4), "tenant": st.sampled_from(["a", "b"]),
    "app": st.sampled_from(["x", "y"]),
    "reason": st.sampled_from(["placed", "no-free-blocks"]),
    "needed": st.integers(1, 9), "boards": st.lists(st.integers(0, 3)),
    "blocks": st.integers(1, 9), "spans": st.booleans(),
    "blocks_by_board": st.just(((0, 2),)), "reconfig_s": _SECONDS,
    "comm_slowdown": st.just(1.0), "candidates": st.just((0, 1)),
    "board": st.integers(0, 3), "victims": st.lists(st.integers(0, 4)),
    "from_boards": st.lists(st.integers(0, 3)),
    "to_boards": st.lists(st.integers(0, 3)),
    "dram_bytes": st.integers(0, 9), "fifo_beats": st.integers(0, 9),
    "pause_s": _SECONDS, "attempt": st.integers(1, 5),
    "backoff_s": _SECONDS,
}


@st.composite
def _records(draw):
    name = draw(st.sampled_from(sorted(_TRACED_KEYS)))
    fields = {key: draw(_FIELD_VALUES[key])
              for key in _TRACED_KEYS[name]}
    tenant = draw(st.sampled_from(["a", "b"])) \
        if name == "ctrl.reconfig_retry" else None
    return draw(st.floats(-3.0, 6.0, allow_nan=False)), name, fields, \
        tenant


class TestColumnsMatchEntryList:
    """The log the controller feeds through ``on_record`` against the
    entry-list log filled the way the controller's paired call sites
    did (``tests/reference_audit.py``)."""

    @pytest.mark.parametrize("scenario",
                             ["rack-outage", "rack-outage-defrag"])
    def test_chaos_run_replays_identically(self, monkeypatch, scenario):
        writes, logs = _tap(monkeypatch)
        [chosen] = [s for s in standard_scenarios()
                    if s.name == scenario]
        run_scenario(chosen)
        [log] = logs
        # the run logged placements, rejects, faults and evictions
        assert {"ctrl.deploy", "ctrl.release", "ctrl.reject",
                "ctrl.board_fail", "ctrl.evict", "ctrl.board_repair"} \
            <= {write[1] for write in writes}
        _assert_same_log(log, _as_before(writes))

    def test_sharing_run_replays_identically(self, monkeypatch, cluster,
                                             compiled_large):
        """Guest admissions, guest releases and heir promotions are the
        sharing controller's own appends, interleaved with the records
        of its exclusive path."""
        writes, _ = _tap(monkeypatch)
        controller = FunctionSharingController(cluster, max_sharers=3)
        log = controller.attach_audit()
        live = []
        while (d := controller.try_deploy(compiled_large, len(live),
                                          float(len(live)))) is not None:
            live.append(d)
        guests = [d for d in live if d.reconfig_time_s == 0.0]
        host = controller.deployments[
            controller._shared_with[guests[0].request_id]]
        controller.release(host, 100.0)          # promotes an heir
        controller.release(guests[-1], 101.0)    # a guest leaves
        for d in sorted(controller.running(),
                        key=lambda d: d.request_id):
            controller.release(d, 102.0)
        details = {key for write in writes if write[0] == "append"
                   for key in write[2]}
        assert {"shared_with", "was_guest", "promoted_heir"} <= details
        assert log.live_requests() == set()
        _assert_same_log(log, _as_before(writes))

    @given(st.lists(_records(), max_size=30), st.booleans())
    def test_random_records_incl_clamps(self, records, strict):
        """Every record name, backwards times clamped or (strict)
        raised, exactly as the hand-written appends logged them."""
        log, ref = AuditLog(strict=strict), ReferenceAuditLog(strict)
        for t, name, fields, tenant in records:
            outcomes = []
            for write in (log.on_record, lambda *a: record_as_before(
                    ref, *a)):
                try:
                    outcomes.append(write(name, t, fields, tenant))
                except ValueError as err:
                    outcomes.append(str(err))
            assert outcomes[0] == outcomes[1]
        _assert_same_log(log, ref)

    @given(st.lists(st.tuples(
        # an int clock too: the log reads back each time as given
        st.floats(-3.0, 6.0, allow_nan=False) | st.integers(-3, 6),
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
