"""Tests for the event queue and time-weighted statistics."""

import random
import struct

import pytest
from hypothesis import given, strategies as st

from repro.sim.events import ArrayEventQueue, TimeWeightedValue
from tests.reference_events import ReferenceEventQueue, \
    ReferenceTimeWeightedValue


class TestEventQueue:
    """The heapq reference queue itself: an oracle has to be right."""

    def test_orders_by_time(self):
        q = ReferenceEventQueue()
        q.push(5.0, "b")
        q.push(1.0, "a")
        q.push(3.0, "c")
        assert [q.pop().kind for _ in range(3)] == ["a", "c", "b"]

    def test_stable_for_ties(self):
        q = ReferenceEventQueue()
        q.push(1.0, "first")
        q.push(1.0, "second")
        assert q.pop().kind == "first"
        assert q.pop().kind == "second"

    def test_payload_carried(self):
        q = ReferenceEventQueue()
        q.push(0.0, "k", payload={"x": 1})
        assert q.pop().payload == {"x": 1}

    def test_empty_pop_raises(self):
        with pytest.raises(IndexError):
            ReferenceEventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ReferenceEventQueue().push(-1.0, "bad")

    def test_len_and_bool(self):
        q = ReferenceEventQueue()
        assert not q and len(q) == 0
        q.push(0.0, "x")
        assert q and len(q) == 1

    def test_peek_time(self):
        q = ReferenceEventQueue()
        q.push(7.0, "x")
        q.push(2.0, "y")
        assert q.peek_time() == 2.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), max_size=60))
    def test_pop_order_sorted(self, times):
        q = ReferenceEventQueue()
        for t in times:
            q.push(t, "e")
        popped = [q.pop().time for _ in times]
        assert popped == sorted(popped)

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), max_size=60))
    def test_push_many_pops_like_sequential_pushes(self, times):
        """The bulk heapify load is indistinguishable from one push
        per event -- same (time, insertion order) pop sequence."""
        one_by_one = ReferenceEventQueue()
        for i, t in enumerate(times):
            one_by_one.push(t, f"e{i}")
        bulk = ReferenceEventQueue()
        bulk.push_many((t, f"e{i}", None)
                       for i, t in enumerate(times))
        for _ in times:
            a, b = one_by_one.pop(), bulk.pop()
            assert (a.time, a.kind) == (b.time, b.kind)
        assert not bulk

    def test_push_many_interleaves_with_push(self):
        q = ReferenceEventQueue()
        q.push(2.0, "mid")
        q.push_many([(1.0, "early", None), (2.0, "mid-later", None),
                     (3.0, "late", None)])
        assert [q.pop().kind for _ in range(4)] \
            == ["early", "mid", "mid-later", "late"]

    def test_push_many_rejects_negative_time(self):
        with pytest.raises(ValueError):
            ReferenceEventQueue().push_many([(0.0, "ok", None),
                                             (-1.0, "bad", None)])


#: tiny time domain -> heavy timestamp ties, the regime where a pop
#: order bug between the engines would hide
_tie_times = st.lists(st.integers(min_value=0, max_value=5),
                      max_size=50)
_kind_flags = st.lists(st.booleans(), max_size=50)


def _static_schedule(times, arrival_flags):
    """(time, kind, payload) triples with unique payloads."""
    return [(float(t), "arrival" if flag else "fault", i)
            for i, (t, flag) in enumerate(
                zip(times, arrival_flags + [True] * len(times)))]


class TestArrayEventQueue:
    """The flat-array engine against the heapq oracle."""

    def test_static_beats_dynamic_on_time_tie(self):
        q = ArrayEventQueue()
        q.push_many([(3.0, "arrival", "static")])
        q.push(3.0, "completion", "dynamic")
        assert q.pop3() == (3.0, "arrival", "static")
        assert q.pop3() == (3.0, "completion", "dynamic")

    def test_push_many_after_seal_falls_back_to_dynamic(self):
        q = ArrayEventQueue()
        q.push_many([(1.0, "arrival", "a")])
        q.push(5.0, "completion", "c")  # seals
        q.push_many([(2.0, "fault", "f")])
        assert [q.pop3()[2] for _ in range(3)] == ["a", "f", "c"]

    def test_empty_pop_raises(self):
        with pytest.raises(IndexError):
            ArrayEventQueue().pop3()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            ArrayEventQueue().push_many([(-1.0, "arrival", None)])
        q = ArrayEventQueue()
        with pytest.raises(ValueError):
            q.push(-0.5, "completion")

    def test_len_bool_peek_unsealed_and_sealed(self):
        q = ArrayEventQueue()
        assert not q and len(q) == 0
        q.push_many([(2.0, "arrival", "a"), (1.0, "arrival", "b")])
        assert q and len(q) == 2           # still staged
        assert q.peek_time() == 1.0        # seals
        q.push(0.5, "completion", "c")
        assert len(q) == 3
        assert q.peek_time() == 0.5

    def test_arrival_run_stops_at_fault(self):
        q = ArrayEventQueue()
        q.push_many([(1.0, "arrival", 0), (1.0, "arrival", 1),
                     (1.0, "fault", 2), (2.0, "arrival", 3)])
        assert q.pop_arrival_run() == [0, 1]
        assert q.pop_arrival_run() == []
        assert q.pop3()[1] == "fault"
        assert q.pop_arrival_run() == [3]

    def test_arrival_run_clipped_by_dynamic_head_with_tie_kept(self):
        q = ArrayEventQueue()
        q.push_many([(1.0, "arrival", 0), (2.0, "arrival", 1),
                     (3.0, "arrival", 2)])
        q.push(2.0, "completion", "c")
        # the t=2.0 arrival ties the dynamic head and still pops first,
        # so it belongs to the run; the t=3.0 arrival does not
        assert q.pop_arrival_run() == [0, 1]
        assert q.pop3() == (2.0, "completion", "c")
        assert q.pop_arrival_run() == [2]

    @given(_tie_times, _kind_flags, st.integers(0, 2**16))
    def test_lockstep_pop_order_matches_oracle(self, times, flags,
                                               seed):
        """Interleaved static load + dynamic pushes: every pop3 equals
        the oracle's, under heavy timestamp ties."""
        static = _static_schedule(times, flags)
        rng = random.Random(seed)
        oracle, array = ReferenceEventQueue(), ArrayEventQueue()
        oracle.push_many(static)
        array.push_many(static)
        popped = 0
        while oracle or array:
            assert bool(array) == bool(oracle)
            assert len(array) == len(oracle)
            got, want = array.pop3(), oracle.pop3()
            assert got == want
            popped += 1
            if rng.random() < 0.3 and popped < 120:
                t = got[0] + rng.choice([0.0, 0.0, 1.0, 2.5])
                payload = f"d{popped}"
                kind = rng.choice(["completion", "fault"])
                array.push(t, kind, payload)
                oracle.push(t, kind, payload)

    @given(_tie_times, _kind_flags, st.integers(0, 2**16))
    def test_cohort_runs_reconstruct_oracle_order(self, times, flags,
                                                  seed):
        """pop_arrival_run batches are exactly the maximal arrival
        prefixes of the oracle's pop sequence."""
        static = _static_schedule(times, flags)
        rng = random.Random(seed ^ 0x5eed)
        oracle, array = ReferenceEventQueue(), ArrayEventQueue()
        oracle.push_many(static)
        array.push_many(static)
        popped = 0
        while oracle or array:
            run = array.pop_arrival_run()
            if run:
                for payload in run:
                    t, kind, got = oracle.pop3()
                    assert kind == "arrival"
                    assert got == payload
                popped += len(run)
                continue
            assert bool(array) == bool(oracle)
            if not array:
                break
            got, want = array.pop3(), oracle.pop3()
            assert got == want
            # maximality: a popped-singly event is never a static
            # arrival the batch should have taken (dynamic events are
            # never kind "arrival" in the experiment loop)
            assert got[1] != "arrival" or isinstance(got[2], str)
            popped += 1
            if rng.random() < 0.3 and popped < 120:
                t = got[0] + rng.choice([0.0, 1.0])
                array.push(t, "completion", f"d{popped}")
                oracle.push(t, "completion", f"d{popped}")


class TestTimeWeightedValue:
    def test_constant_average(self):
        v = TimeWeightedValue(initial=3.0)
        assert v.average(0, 10) == pytest.approx(3.0)

    def test_step_average(self):
        v = TimeWeightedValue(initial=0.0)
        v.record(5.0, 10.0)
        assert v.average(0, 10) == pytest.approx(5.0)

    def test_average_sub_window(self):
        v = TimeWeightedValue(initial=0.0)
        v.record(5.0, 10.0)
        assert v.average(5, 10) == pytest.approx(10.0)
        assert v.average(0, 5) == pytest.approx(0.0)

    def test_value_at(self):
        v = TimeWeightedValue(initial=1.0)
        v.record(2.0, 7.0)
        assert v.value_at(1.9) == 1.0
        assert v.value_at(2.0) == 7.0

    def test_time_backwards_rejected(self):
        v = TimeWeightedValue()
        v.record(5.0, 1.0)
        with pytest.raises(ValueError):
            v.record(4.0, 2.0)

    def test_duplicate_value_coalesced(self):
        v = TimeWeightedValue(initial=2.0)
        v.record(1.0, 2.0)
        # no breakpoint was added at t=1: the last one is still t=0, so
        # an earlier time is not "backwards" and takes effect from 0.5
        v.record(0.5, 5.0)
        assert v.value_at(0.7) == 5.0
        assert v.average(0, 1) == pytest.approx(3.5)

    def test_average_where_mask(self):
        value = TimeWeightedValue(initial=10.0)
        mask = TimeWeightedValue(initial=0.0)
        mask.record(4.0, 1.0)    # mask on from t=4
        value.record(4.0, 20.0)  # value jumps with it
        assert value.average_where(mask, 0, 8) == pytest.approx(20.0)

    def test_average_where_empty_mask(self):
        value = TimeWeightedValue(initial=5.0)
        mask = TimeWeightedValue(initial=0.0)
        assert value.average_where(mask, 0, 10) == 0.0

    def test_degenerate_window(self):
        v = TimeWeightedValue(initial=4.0)
        assert v.average(3, 3) == 4.0

    @given(st.lists(st.tuples(
        st.floats(min_value=0.01, max_value=100, allow_nan=False),
        st.floats(min_value=0, max_value=50, allow_nan=False)),
        min_size=1, max_size=30))
    def test_average_bounded_by_extremes(self, steps):
        v = TimeWeightedValue(initial=0.0)
        t = 0.0
        values = [0.0]
        for dt, value in steps:
            t += dt
            v.record(t, value)
            values.append(value)
        avg = v.average(0, t + 1)
        assert min(values) - 1e-9 <= avg <= max(values) + 1e-9


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


#: (time step, value) pairs: equal times, repeated values (dedup),
#: integer counts and fractional levels; a negative step goes backwards
_steps = st.lists(st.tuples(
    st.one_of(st.just(0.0), st.just(-1.0),
              st.floats(0.0, 50.0, allow_nan=False),
              st.integers(0, 5)),
    st.one_of(st.integers(0, 6),
              st.floats(0.0, 64.0, allow_nan=False))),
    max_size=40)
_windows = st.lists(st.tuples(st.floats(-5.0, 400.0, allow_nan=False),
                              st.floats(-5.0, 400.0, allow_nan=False)),
                    min_size=1, max_size=6)


def _replay(steps, initial=0.0):
    """Feed ``steps`` to the production and the tuple-list step
    function; a backwards step must be refused by both, alike."""
    mine = TimeWeightedValue(initial=initial)
    theirs = ReferenceTimeWeightedValue(initial=initial)
    t = 0.0
    for dt, value in steps:
        t = t + dt
        outcomes = []
        for fn in (mine.record, theirs.record):
            try:
                fn(t, value)
                outcomes.append(None)
            except ValueError as err:
                outcomes.append(str(err).split(":")[0])
        assert outcomes[0] == outcomes[1]
        if outcomes[0] is not None:
            t -= dt
    return mine, theirs, t


class TestTimeWeightedValueMatchesTupleList:
    """The flat double column against the tuple list it replaced:
    every float bit-equal, every ``value_at`` equal."""

    @given(_steps, _steps, _windows, st.integers(0, 3))
    def test_random_histories(self, steps, mask_steps, windows,
                              initial):
        mine, theirs, end = _replay(steps, initial)
        mask, mask_ref, _ = _replay(mask_steps)
        for t0, t1 in windows + [(0.0, end + 1.0), (end, end)]:
            assert _bits(mine.average(t0, t1)) \
                == _bits(theirs.average(t0, t1))
            assert _bits(mine.average_where(mask, t0, t1)) \
                == _bits(theirs.average_where(mask_ref, t0, t1))
            assert mine.value_at(t0) == theirs.value_at(t0)
            assert mine.value_at(t1) == theirs.value_at(t1)

    @given(_steps, _windows, st.integers(0, 3))
    def test_mask_never_above_zero_in_the_window(self, steps, windows,
                                                 initial):
        """A mask at zero all through ``[t0, t1]`` -- zero everywhere,
        or positive only before and after the window -- selects no
        interval: 0.0 without the sweep, equal to the sweep's answer."""
        mine, theirs, end = _replay(steps, initial)
        zero, zero_ref, _ = _replay([(1.0, 0), (2.0, 0.0)])
        # 2 on [5, 10), 0 on [10, 20), 3 from 20 on
        outside, outside_ref, _ = _replay([(5.0, 2), (5.0, 0), (10.0, 3)])
        # 2 from its initial value (before time 0 too) until 5, then 0
        early, early_ref, _ = _replay([(5.0, 0)], initial=2)
        quiet = [(10.0, 20.0), (12.5, 15.0), (10.0, 10.5)]
        for t0, t1 in windows + quiet + [(0.0, end + 1.0), (-4.0, -1.0),
                                         (-1.0, 0.0), (5.0, 9.0)]:
            for m, m_ref in ((zero, zero_ref), (outside, outside_ref),
                             (early, early_ref)):
                assert _bits(mine.average_where(m, t0, t1)) \
                    == _bits(theirs.average_where(m_ref, t0, t1))
        for t0, t1 in quiet:
            assert mine.average_where(zero, t0, t1) == 0.0
            assert mine.average_where(outside, t0, t1) == 0.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_numpy_path_above_4096_points(self, seed):
        """Long histories take the array integration; a run's three
        series record integer counts and fractional levels."""
        rng = random.Random(seed)
        steps = [(rng.choice([0.0, rng.expovariate(2.0)]),
                  rng.randrange(40) if rng.random() < 0.7
                  else rng.random() * 40)
                 for _ in range(9000)]
        mine, theirs, end = _replay(steps)
        mask, mask_ref, _ = _replay(
            [(rng.expovariate(1.0), rng.randrange(3))
             for _ in range(6000)])
        assert len(theirs._points) > 4096
        for t0, t1 in [(0.0, end), (rng.random() * end, end),
                       (end / 3, 2 * end / 3), (0.0, end * 2)]:
            assert _bits(mine.average(t0, t1)) \
                == _bits(theirs.average(t0, t1))
            assert _bits(mine.average_where(mask, t0, t1)) \
                == _bits(theirs.average_where(mask_ref, t0, t1))
            assert mine.value_at(t1 / 2) == theirs.value_at(t1 / 2)
