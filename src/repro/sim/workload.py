"""Workload-set generation (Table 3, Section 5.1).

"Each workload set comprises a sequence of DNN benchmarks (from the second
benchmark set), and the requests for deploying these benchmarks are issued
with a random time interval to emulate the dynamic cloud environment.  For
each condition (composition and time interval), multiple workload sets are
generated and the average result is reported."

The ten compositions are Table 3 verbatim (set 7's published row reads
"33% S + 33% L + 34% L", an obvious typo for S/M/L).
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate

from repro.hls.kernels import BENCHMARKS, KernelSpec, SizeClass, benchmark

__all__ = ["COMPOSITIONS", "Request", "WorkloadGenerator"]

_S, _M, _L = SizeClass.SMALL, SizeClass.MEDIUM, SizeClass.LARGE

#: Table 3: set index -> (share of S, share of M, share of L).
COMPOSITIONS: dict[int, tuple[float, float, float]] = {
    1: (1.00, 0.00, 0.00),
    2: (0.00, 1.00, 0.00),
    3: (0.00, 0.00, 1.00),
    4: (0.50, 0.50, 0.00),
    5: (0.50, 0.00, 0.50),
    6: (0.00, 0.50, 0.50),
    7: (0.33, 0.33, 0.34),
    8: (0.20, 0.20, 0.60),
    9: (0.20, 0.60, 0.20),
    10: (0.60, 0.20, 0.20),
}


@dataclass(frozen=True, slots=True)
class Request:
    """One deployment request of a workload set."""

    request_id: int
    spec: KernelSpec
    arrival_s: float
    #: load-shedding rank: lower sheds first (0 = best-effort default;
    #: the degraded-mode guard never sheds running deployments, only
    #: queued requests, lowest priority first)
    priority: int = 0


class WorkloadGenerator:
    """Deterministic workload-set factory."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def generate(self, set_index: int, num_requests: int = 120,
                 mean_interarrival_s: float = 4.0,
                 replica: int = 0,
                 arrival_process=None) -> list[Request]:
        """One workload set of Table 3's composition ``set_index``.

        ``replica`` varies the RNG stream so "multiple workload sets are
        generated and the average result is reported" is reproducible.
        ``arrival_process`` (an :class:`repro.sim.arrivals
        .ArrivalProcess`) replaces the default Poisson stream.
        """
        if set_index not in COMPOSITIONS:
            raise KeyError(f"unknown workload set {set_index}; "
                           f"Table 3 defines {sorted(COMPOSITIONS)}")
        if num_requests < 1:
            raise ValueError("a workload set needs at least one request")
        shares = COMPOSITIONS[set_index]
        rng = random.Random(f"{self.seed}/{set_index}/{replica}")
        families = sorted(BENCHMARKS)
        sizes = (_S, _M, _L)

        if arrival_process is None:
            from repro.sim.arrivals import PoissonArrivals
            arrival_process = PoissonArrivals(mean_interarrival_s)
        arrivals = arrival_process.times(num_requests, rng)

        # rng.choices(sizes, weights=shares)[0] per request, with the
        # cumulative weights and total built once: the same arithmetic on
        # the same draws, so the same stream
        cum = list(accumulate(shares))
        total = cum[-1] + 0.0
        last = len(sizes) - 1
        draw, choice = rng.random, rng.choice
        requests = []
        for rid, arrival in enumerate(arrivals):
            size = sizes[bisect(cum, draw() * total, 0, last)]
            family = choice(families)
            requests.append(Request(
                request_id=rid,
                spec=benchmark(family, size),
                arrival_s=arrival,
            ))
        return requests

    def replicas(self, set_index: int, count: int,
                 num_requests: int = 120,
                 mean_interarrival_s: float = 4.0,
                 ) -> list[list[Request]]:
        """Several independent sets of one composition (for averaging)."""
        return [self.generate(set_index, num_requests,
                              mean_interarrival_s, replica=i)
                for i in range(count)]
