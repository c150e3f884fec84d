"""The compiled trace export against the dict-per-entry exporter.

``Tracer`` keeps each entry as a row of its shape's table and writes
JSONL through one template per shape (DESIGN §19).
:class:`tests.reference_tracer.ReferenceTrace`, subscribed to the same
tracer as a sink, keeps what the tracer was handed the way the old
tracer did and exports it through the one ``json.JSONEncoder``.  Every
test here records the same stream into both and requires byte-equal
``to_jsonl()`` and equal ``entries()``: over every JSON value type and
its edge cases (bool and big ints, -0.0, infinities, NaN, subnormals,
int-typed times, non-ASCII / control / quote / backslash / ``%`` text
in values, keys and names), nested containers, sets, spans, empty
fields, and the identity memo of tuple values.

The timeline's cached bucket edge is checked against ``_bucket_of`` at
the ``math.nextafter`` neighbours of bucket boundaries, and a streamed
timeline against one that tests every event's time.
"""

from __future__ import annotations

import enum
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.timeline import TimelineAggregator
from repro.obs.tracer import Tracer
from tests.reference_tracer import ReferenceTrace


class _Level(enum.IntEnum):
    LOW = 1


class _Ratio(float):
    pass


class _Tag(str):
    pass


def _pair() -> "tuple[Tracer, ReferenceTrace]":
    tracer = Tracer()
    reference = ReferenceTrace()
    tracer.add_sink(reference)
    return tracer, reference


def _assert_same(tracer: Tracer, reference: ReferenceTrace) -> None:
    assert tracer.to_jsonl() == reference.to_jsonl()
    assert list(tracer.entries()) == list(reference.entries())
    assert len(tracer) == len(reference)


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
#: text with every code point category, surrogates included
_TEXT = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=8),
    st.sampled_from(['"', "\\", "%", "%s", "%%", "%(x)s", "\x00",
                     "\x1f", "\x7f", "é", " ", "\U0001f600",
                     "\ud800", "a\"b\\c%d"]))
_INTS = st.one_of(st.integers(-10, 10), st.integers(),
                  st.integers(-(2 ** 200), 2 ** 200))
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324,
                     -5e-324, 1e308, -1e308, 0.1, 1e16, 1e-7]))
_ODD = st.sampled_from([_Level.LOW, _Ratio(2.5), _Ratio(math.inf),
                        _Tag("tag")])
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, _FLOATS, _TEXT,
                     _ODD)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=3),
        st.frozensets(st.integers(-50, 50), max_size=4),
        st.sets(st.text(max_size=3), max_size=4)),
    max_leaves=10)
#: columns of one type exercise the table-wide conversions
_COLUMN_KINDS = [st.none(), st.booleans(), _INTS, _FLOATS, _TEXT,
                 st.lists(st.integers(0, 9), max_size=3),
                 st.tuples(st.integers(0, 9), st.integers(0, 9)),
                 _SCALARS, _VALUES]
#: keyword-argument names the tracer's own parameters do not take
_KEYS = _TEXT.filter(lambda key: key not in ("t", "name"))
_NAMES = st.one_of(st.sampled_from(["sim.deploy", "ctrl.deploy", 'q"%s',
                                    "é"]), _TEXT)
_TIMES = st.one_of(st.floats(0.0, 1e6), st.integers(0, 10 ** 6), _FLOATS)


# ----------------------------------------------------------------------
# values, keys, names
# ----------------------------------------------------------------------
class TestEventsMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_shapes_with_typed_columns(self, data):
        """A few shapes, each column drawn from one value kind (or the
        mixed ones), rows of the shapes interleaved."""
        tracer, reference = _pair()
        shapes = data.draw(st.lists(st.tuples(
            _NAMES,
            st.lists(st.tuples(_KEYS, st.sampled_from(_COLUMN_KINDS)),
                     max_size=5, unique_by=lambda kv: kv[0])),
            min_size=1, max_size=4))
        for pick in data.draw(st.lists(
                st.integers(0, len(shapes) - 1), max_size=25)):
            name, columns = shapes[pick]
            fields = {key: data.draw(kind) for key, kind in columns}
            tracer.event(name, t=data.draw(_TIMES), **fields)
        _assert_same(tracer, reference)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(
        _NAMES, _TIMES, st.dictionaries(_KEYS, _VALUES, max_size=4)),
        max_size=15))
    def test_mixed_events(self, events):
        tracer, reference = _pair()
        for name, t, fields in events:
            tracer.event(name, t=t, **fields)
        _assert_same(tracer, reference)

    def test_edge_values_by_hand(self):
        tracer, reference = _pair()
        for value in (True, False, 0, -1, 2 ** 64, -(2 ** 100), -0.0,
                      math.inf, -math.inf, math.nan, 5e-324, 1e308,
                      None, "", 'x"y', "a\\b", "50%", "\x01\n\t",
                      "ünï", "\U0001f600", _Level.LOW, _Ratio(0.5),
                      _Tag("t"), [], (), {}, frozenset({3, 1}), {"b", "a"},
                      [1, [2, (3, {"k": {4, 5}})]], {"z": 1, "a": [()]}):
            tracer.event("v", t=1.0, value=value)
            tracer.event("v", t=2, value=value, other=value)
        for t in (0, 7, -0.0, 1e-300, math.inf, math.nan):
            tracer.event("t", t=t)
        _assert_same(tracer, reference)

    def test_keys_and_names_with_format_characters(self):
        tracer, reference = _pair()
        fields = {"%": 1, "%s": 2, '"': 3, "\\": 4, "%(a)s": 5, "é": 6,
                  "": 7, "\x00": 8}
        for t in range(3):
            tracer.event('n%s"\\%%', t=float(t), **fields)
            tracer.event("%d", t=t)
        _assert_same(tracer, reference)

    def test_empty_fields(self):
        tracer, reference = _pair()
        tracer.event("a", t=0.0)
        tracer.event("a", t=1.0, x=1)
        tracer.event("a", t=2.0)
        tracer.span("s", t=3.0).end(t=4.0)
        _assert_same(tracer, reference)


# ----------------------------------------------------------------------
# spans, wall-clock fields
# ----------------------------------------------------------------------
class TestSpansMatchReference:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(
        _NAMES, _TIMES, _TIMES, st.dictionaries(_KEYS, _VALUES,
                                                max_size=3),
        st.dictionaries(_KEYS, _SCALARS, max_size=3)), max_size=10))
    def test_spans_interleaved_with_events(self, spans):
        tracer, reference = _pair()
        for name, t0, t1, opened, closed in spans:
            tracer.event(name, t=t0, **opened)
            tracer.span(name, t=t0, **opened).end(t=t1, **closed)
        _assert_same(tracer, reference)

    def test_record_wall_spans_and_context_manager(self):
        tracer = Tracer(record_wall=True)
        reference = ReferenceTrace()
        tracer.add_sink(reference)
        for stage in range(3):
            span = tracer.span("compile.pnr", t=float(stage), app="x")
            span.end(t=stage + 0.5, cost=1.5, wall_s=0.0123 * stage)
        with tracer.span("compile.synth", t=9.0, app="y"):
            tracer.now = 11.0
        with pytest.raises(ValueError):
            with tracer.span("compile.synth", t=12.0, app="y"):
                raise ValueError("boom")
        _assert_same(tracer, reference)

    def test_span_with_non_str_keys_exports_through_the_encoder(self):
        tracer, reference = _pair()
        span = tracer.span("s", t=0.0, a=1)
        span.fields[3] = "x"
        del span.fields["a"]
        span.end(t=1.0)
        tracer.event("e", t=2.0, b=2)
        assert tracer.to_jsonl() == reference.to_jsonl()
        assert '"fields":{"3":"x"}' in tracer.to_jsonl()


# ----------------------------------------------------------------------
# the identity memo
# ----------------------------------------------------------------------
class TestTupleMemo:
    def test_memoised_view_then_replacement_view(self):
        """One view tuple recorded many times, then a same-length
        replacement, then the first again: each entry reads its own."""
        tracer, reference = _pair()
        first = tuple(range(128))
        second = tuple(range(1, 129))
        for view in (first, first, second, second, first):
            tracer.event("ctrl.deploy", t=1.0, candidates=view,
                         boards=[view[0]])
        nested = ((0, 1), (2, 3))
        tracer.event("ctrl.deploy", t=2.0, candidates=nested,
                     boards=[0])
        tracer.event("ctrl.deploy", t=3.0, candidates=(), boards=[])
        _assert_same(tracer, reference)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    max_size=20))
    def test_views_from_a_pool(self, picks):
        tracer, reference = _pair()
        pool = [tuple(range(4)), tuple(range(1, 5)), (1.5, "a", None),
                ([1], 2)]
        for view, other in picks:
            tracer.event("d", t=0.0, candidates=pool[view],
                         boards=pool[other])
        _assert_same(tracer, reference)

    def test_export_reads_values_at_export_time(self):
        """Nothing survives from one export to the next: a list (and a
        tuple holding it) edited after an export exports as edited."""
        tracer, reference = _pair()
        boards = [1, 2]
        holder = (boards,)
        view = (5, 6)
        tracer.event("e", t=0.0, boards=boards, holder=holder, view=view)
        _assert_same(tracer, reference)
        boards.append(3)
        tracer.event("e", t=1.0, boards=boards, holder=holder, view=view)
        _assert_same(tracer, reference)

    def test_unencodable_value_raises_like_the_encoder(self):
        tracer, reference = _pair()
        tracer.event("e", t=0.0, thing=object())
        with pytest.raises(TypeError):
            reference.to_jsonl()
        with pytest.raises(TypeError):
            tracer.to_jsonl()


class TestStorage:
    def test_clear_then_record_again(self):
        tracer, reference = _pair()
        tracer.event("a", t=0.0, x=1)
        tracer.clear()
        assert len(tracer) == 0 and tracer.to_jsonl() == ""
        fresh = ReferenceTrace()
        tracer.add_sink(fresh)
        tracer.event("b", t=1.0, y=(1, 2))
        tracer.event("a", t=2.0, x=3)
        _assert_same(tracer, fresh)

    def test_same_name_different_keys_are_different_shapes(self):
        tracer, reference = _pair()
        tracer.event("a", t=0.0, x=1, y=2)
        tracer.event("a", t=1.0, y=2, x=1)   # same keys, other order
        tracer.event("a", t=2.0, x=1)
        tracer.span("a", t=3.0, x=1).end(t=4.0)
        _assert_same(tracer, reference)


# ----------------------------------------------------------------------
# the timeline's cached bucket edge
# ----------------------------------------------------------------------
def _neighbours(x: float, steps: int = 3) -> list[float]:
    out = [x]
    down = up = x
    for _ in range(steps):
        down = math.nextafter(down, -math.inf)
        up = math.nextafter(up, math.inf)
        out += [down, up]
    return out


class _EveryEvent(TimelineAggregator):
    """A timeline that tests every event's time against the buckets."""

    def _edge_of(self, bucket: int) -> float:
        return -math.inf


class TestBucketEdge:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.floats(1e-6, 1e6), st.sampled_from(
               [0.1, 0.3, 1.0, 10.0, 1 / 3, 7.0, 0.7])),
           st.one_of(st.integers(0, 50), st.integers(0, 10 ** 9)))
    def test_no_time_under_the_edge_closes_a_bucket(self, interval,
                                                    bucket):
        tl = TimelineAggregator(interval_s=interval)
        edge = tl._edge_of(bucket)
        boundary = (bucket + 1) * interval
        snapped = boundary * (1.0 - 1e-9)
        for t in (_neighbours(edge) + _neighbours(boundary)
                  + _neighbours(snapped)):
            if t < edge:
                assert tl._bucket_of(t) <= bucket, (t, edge)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_a_time_without_a_bucket_still_raises(self, t):
        """The edge skips only times it can bucket: NaN and infinity
        still reach ``_bucket_of`` and fail there."""
        tl = TimelineAggregator(interval_s=10.0)
        tl.on_record("event", "sim.arrival", 1.0, None, {"request": 0})
        with pytest.raises((ValueError, OverflowError)):
            tl.on_record("event", "sim.arrival", t, None, {"request": 1})

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([0.1, 0.3, 1.0, 10.0, 1 / 3, 0.7]),
           st.lists(st.tuples(st.integers(0, 40), st.integers(-3, 3)),
                    min_size=1, max_size=30))
    def test_streamed_boundaries_match_every_event(self, interval,
                                                   marks):
        """Events at the ulps around boundaries (and their snap zone):
        the edge-skipping timeline closes exactly the same buckets."""
        times = []
        for k, step in marks:
            t = k * interval * (1.0 - 1e-9 * (step % 2))
            for _ in range(abs(step)):
                t = math.nextafter(t, math.copysign(math.inf, step))
            times.append(max(0.0, t))
        times.sort()
        timelines = [cls(interval_s=interval, capacity_blocks=8,
                         num_boards=2)
                     for cls in (TimelineAggregator, _EveryEvent)]
        for tl in timelines:
            for rid, t in enumerate(times):
                tl.on_record("event", "sim.arrival", t, None,
                             {"request": rid})
                tl.on_record("event", "ctrl.deploy", t, None,
                             {"request": rid, "blocks": 1, "tenant": "a",
                              "blocks_by_board": ((rid % 2, 1),)})
            tl.finish(times[-1])
        assert timelines[0].to_json() == timelines[1].to_json()
        # the cache follows the bucket being filled, through a restore
        streamed = timelines[0]
        restored = TimelineAggregator.restore(streamed.snapshot())
        for tl in (streamed, restored):
            assert tl._next_edge == tl._edge_of(tl._bucket) > 0.0
