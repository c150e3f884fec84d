"""Ablation -- the communication-aware policy (Section 3.4).

Swaps ViTAL's multi-round, span-minimizing policy for two strawmen
(first-fit over the global block pool; round-robin spreading) and
measures what the policy is buying: fewer board-spanning deployments,
lower communication overhead, and no loss in response time.  Also checks
the scheduling-discipline knob (strict FIFO vs backfill).
"""

import statistics

from repro.analysis.report import format_table
from repro.runtime.controller import SystemController
from repro.runtime.policy import (
    CommunicationAwarePolicy,
    FirstFitPolicy,
    SpreadPolicy,
)
from repro.sim.experiment import run_experiment
from repro.sim.workload import WorkloadGenerator


POLICIES = {
    "communication-aware": CommunicationAwarePolicy,
    "first-fit": FirstFitPolicy,
    "spread": SpreadPolicy,
}


def replay(cluster, apps, policy_factory, discipline="fifo"):
    generator = WorkloadGenerator(seed=77)
    summaries = []
    for replica in range(3):
        requests = generator.generate(8, replica=replica)
        manager = SystemController(cluster,
                                   policy=policy_factory())
        summaries.append(run_experiment(manager, requests, apps,
                                        discipline=discipline).summary)
    return summaries


def test_ablation_allocation_policy(benchmark, cluster, apps, emit):
    results = {name: replay(cluster, apps, factory)
               for name, factory in POLICIES.items()}
    benchmark(lambda: replay(cluster, apps, CommunicationAwarePolicy)[0])

    rows = []
    for name, summaries in results.items():
        rows.append([
            name,
            f"{statistics.mean(s.mean_response_s for s in summaries):.1f}",
            f"{statistics.mean(s.multi_fpga_fraction for s in summaries):.0%}",
            f"{max(s.max_latency_overhead for s in summaries):.2e}",
        ])
    emit("ablation_policy", format_table(
        ["policy", "mean response (s)", "multi-FPGA deployments",
         "worst latency overhead"], rows,
        title="ablation -- allocation policy on workload set #8 "
              "(L-heavy)"))

    aware = results["communication-aware"]
    spread = results["spread"]
    mean_spans = lambda ss: statistics.mean(s.multi_fpga_fraction
                                            for s in ss)
    # the paper's policy minimizes spanning; spreading maximizes it
    assert mean_spans(aware) < mean_spans(spread) * 0.6
    # and pays no more communication overhead than any strawman
    assert max(s.max_latency_overhead for s in aware) \
        <= max(s.max_latency_overhead for s in spread)
    # response time is no worse than first-fit's
    mean_resp = lambda ss: statistics.mean(s.mean_response_s
                                           for s in ss)
    assert mean_resp(aware) <= mean_resp(results["first-fit"]) * 1.10


def test_ablation_scheduling_discipline(benchmark, cluster, apps, emit):
    strict = replay(cluster, apps, CommunicationAwarePolicy,
                    discipline="fifo")
    backfill = replay(cluster, apps, CommunicationAwarePolicy,
                      discipline="backfill")
    benchmark(lambda: None)

    mean = lambda ss, attr: statistics.mean(getattr(s, attr)
                                            for s in ss)
    emit("ablation_backfill", format_table(
        ["discipline", "mean response (s)", "mean wait (s)",
         "block util"],
        [["strict FIFO", f"{mean(strict, 'mean_response_s'):.1f}",
          f"{mean(strict, 'mean_wait_s'):.1f}",
          f"{mean(strict, 'block_utilization'):.0%}"],
         ["backfill", f"{mean(backfill, 'mean_response_s'):.1f}",
          f"{mean(backfill, 'mean_wait_s'):.1f}",
          f"{mean(backfill, 'block_utilization'):.0%}"]],
        title="ablation -- queueing discipline (set #8)"))
    # backfill can only improve mean response (small jobs jump gaps)
    assert mean(backfill, "mean_response_s") \
        <= mean(strict, "mean_response_s") * 1.02
