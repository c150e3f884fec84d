"""Tests for workload-set generation (Table 3) and metrics records."""

import math
import random

import pytest

from repro.sim.metrics import (
    MetricsCollector,
    RequestRecord,
    jain_fairness,
    per_size_response,
)
from repro.hls.kernels import BENCHMARKS, SizeClass, benchmark
from repro.sim.arrivals import PoissonArrivals
from repro.sim.workload import COMPOSITIONS, Request, WorkloadGenerator


def choices_stream(seed, set_index, replica, num_requests,
                   mean_interarrival_s):
    """The generator as written with ``rng.choices`` per request."""
    rng = random.Random(f"{seed}/{set_index}/{replica}")
    families = sorted(BENCHMARKS)
    sizes = (SizeClass.SMALL, SizeClass.MEDIUM, SizeClass.LARGE)
    arrivals = PoissonArrivals(mean_interarrival_s).times(num_requests,
                                                          rng)
    requests = []
    for rid, arrival in enumerate(arrivals):
        size = rng.choices(sizes, weights=COMPOSITIONS[set_index], k=1)[0]
        family = rng.choice(families)
        requests.append(Request(request_id=rid,
                                spec=benchmark(family, size),
                                arrival_s=arrival))
    return requests


class TestCompositions:
    def test_ten_sets(self):
        assert sorted(COMPOSITIONS) == list(range(1, 11))

    def test_shares_sum_to_one(self):
        for idx, shares in COMPOSITIONS.items():
            assert sum(shares) == pytest.approx(1.0), idx

    def test_pure_sets(self):
        assert COMPOSITIONS[1] == (1.0, 0.0, 0.0)
        assert COMPOSITIONS[3] == (0.0, 0.0, 1.0)


class TestGenerator:
    @pytest.mark.parametrize("seed", range(10))
    def test_stream_equals_the_choices_draw(self, seed):
        """Cumulative weights built once draw exactly what
        ``random.choices`` draws per call: every set, two replicas."""
        generator = WorkloadGenerator(seed=seed)
        for set_index in COMPOSITIONS:
            for replica in (0, 1):
                assert generator.generate(
                    set_index, num_requests=200, mean_interarrival_s=2.5,
                    replica=replica) == choices_stream(
                        seed, set_index, replica, 200, 2.5)

    def test_respects_composition(self):
        requests = WorkloadGenerator(seed=1).generate(
            1, num_requests=50)
        assert all(r.spec.size.value == "S" for r in requests)

    def test_mixed_composition_rough_shares(self):
        requests = WorkloadGenerator(seed=1).generate(
            10, num_requests=400)
        small = sum(1 for r in requests if r.spec.size.value == "S")
        assert 0.5 < small / 400 < 0.7  # 60% +- sampling noise

    def test_arrivals_increasing(self):
        requests = WorkloadGenerator(seed=2).generate(5,
                                                      num_requests=30)
        arrivals = [r.arrival_s for r in requests]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0

    def test_mean_interarrival_close_to_target(self):
        requests = WorkloadGenerator(seed=3).generate(
            7, num_requests=800, mean_interarrival_s=4.0)
        mean = requests[-1].arrival_s / len(requests)
        assert mean == pytest.approx(4.0, rel=0.15)

    def test_request_ids_sequential(self):
        requests = WorkloadGenerator().generate(1, num_requests=10)
        assert [r.request_id for r in requests] == list(range(10))

    def test_replicas_differ(self):
        gen = WorkloadGenerator(seed=4)
        a, b = gen.replicas(7, count=2, num_requests=20)
        assert [r.spec.name for r in a] != [r.spec.name for r in b]

    def test_same_replica_deterministic(self):
        gen = WorkloadGenerator(seed=4)
        a = gen.generate(7, num_requests=20, replica=1)
        b = gen.generate(7, num_requests=20, replica=1)
        assert [(r.spec.name, r.arrival_s) for r in a] \
            == [(r.spec.name, r.arrival_s) for r in b]

    def test_unknown_set_rejected(self):
        with pytest.raises(KeyError, match="Table 3"):
            WorkloadGenerator().generate(11)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            WorkloadGenerator().generate(1, num_requests=0)


class TestMetricsCollector:
    def make_record(self, rid, arrival, deployed, completed):
        r = RequestRecord(request_id=rid, app_name="a", size="S",
                          num_blocks=1, arrival_s=arrival)
        r.deployed_s = deployed
        return r, completed

    def test_summary_basic(self):
        c = MetricsCollector("m", capacity_blocks=10)
        r, done = self.make_record(0, 0.0, 1.0, None)
        r.service_time_s = 8.0
        c.add_request(r)
        c.record_state(0.0, 5, 1, 0)
        c.complete(0, 9.0)
        s = c.summarize()
        assert s.mean_response_s == pytest.approx(9.0)
        assert s.p50_response_s == pytest.approx(9.0)
        assert s.mean_wait_s == pytest.approx(1.0)
        assert s.num_requests == 1
        assert s.makespan_s == pytest.approx(9.0)

    def test_p50_and_peak_queue(self):
        c = MetricsCollector("m", capacity_blocks=10)
        for rid, resp in enumerate([2.0, 4.0, 100.0]):
            r, _ = self.make_record(rid, 0.0, 0.0, None)
            c.add_request(r)
            c.complete(rid, resp)
        c.record_state(0.5, 1, 1, 7)
        s = c.summarize()
        assert s.p50_response_s == pytest.approx(4.0)
        assert s.mean_response_s > s.p50_response_s  # outlier pulls mean
        assert s.peak_queue_len == 7

    def test_unfinished_requests_excluded(self):
        c = MetricsCollector("m", capacity_blocks=10)
        r1, _ = self.make_record(0, 0.0, 0.0, None)
        r2, _ = self.make_record(1, 0.0, math.nan, None)
        c.add_request(r1)
        c.add_request(r2)
        c.complete(0, 4.0)
        assert c.summarize().num_requests == 1

    def test_no_completions_raises(self):
        c = MetricsCollector("m", capacity_blocks=10)
        with pytest.raises(RuntimeError):
            c.summarize()

    def test_multi_fpga_fraction(self):
        c = MetricsCollector("m", capacity_blocks=10)
        for rid, spans in enumerate([True, False, False, True]):
            r, _ = self.make_record(rid, 0.0, 0.0, None)
            r.spans_boards = spans
            c.add_request(r)
            c.complete(rid, 1.0)
        assert c.summarize().multi_fpga_fraction == pytest.approx(0.5)

    def test_per_size_response(self):
        records = []
        for rid, (size, resp) in enumerate(
                [("S", 10.0), ("S", 20.0), ("L", 40.0)]):
            r = RequestRecord(request_id=rid, app_name="a", size=size,
                              num_blocks=1, arrival_s=0.0)
            r.deployed_s = 0.0
            r.completed_s = resp
            records.append(r)
        out = per_size_response(records)
        assert out["S"] == pytest.approx(15.0)
        assert out["L"] == pytest.approx(40.0)

    def test_per_size_skips_unfinished(self):
        r = RequestRecord(request_id=0, app_name="a", size="M",
                          num_blocks=1, arrival_s=0.0)
        assert per_size_response([r]) == {}

    def test_jain_fairness_perfect(self):
        records = []
        for rid in range(4):
            r = RequestRecord(request_id=rid, app_name="a", size="S",
                              num_blocks=1, arrival_s=0.0)
            r.deployed_s = 0.0
            r.completed_s = 20.0
            r.service_time_s = 10.0
            records.append(r)
        assert jain_fairness(records) == pytest.approx(1.0)

    def test_jain_fairness_skewed(self):
        records = []
        for rid, resp in enumerate([10.0, 10.0, 10.0, 100.0]):
            r = RequestRecord(request_id=rid, app_name="a", size="S",
                              num_blocks=1, arrival_s=0.0)
            r.deployed_s = 0.0
            r.completed_s = resp
            r.service_time_s = 10.0
            records.append(r)
        assert jain_fairness(records) < 0.5

    def test_jain_fairness_empty(self):
        assert jain_fairness([]) == 1.0

    def test_normalized_response(self):
        c1 = MetricsCollector("a", 10)
        r, _ = self.make_record(0, 0.0, 0.0, None)
        c1.add_request(r)
        c1.complete(0, 10.0)
        c2 = MetricsCollector("b", 10)
        r2, _ = self.make_record(0, 0.0, 0.0, None)
        c2.add_request(r2)
        c2.complete(0, 5.0)
        assert c2.summarize().normalized_response(c1.summarize()) \
            == pytest.approx(0.5)
