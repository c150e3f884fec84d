"""Fig. 10 / Section 5.5 scalars -- utilization, concurrency, spanning.

The paper's secondary System-Layer claims:

- resource utilization improves by 15.9% over AmorphOS-HT;
- 2.3x more applications run concurrently than the baseline;
- 5~40% of applications end up partitioned across multiple FPGAs;
- block utilization stays above 93% under load;
- the latency-insensitive interface overhead is below 0.03%.
"""

import statistics

from repro.analysis.report import format_table
from repro.sim.workload import COMPOSITIONS


def test_fig10_utilization_and_concurrency(benchmark, system_results,
                                           emit):
    benchmark(lambda: {
        mgr: statistics.mean(s.block_utilization
                             for s in per_set.values())
        for mgr, per_set in system_results.items()})

    rows = []
    for mgr, per_set in system_results.items():
        rows.append([
            mgr,
            f"{statistics.mean(s.block_utilization for s in per_set.values()):.1%}",
            f"{statistics.mean(s.mean_concurrency for s in per_set.values()):.1f}",
            f"{statistics.mean(s.multi_fpga_fraction for s in per_set.values()):.1%}",
        ])
    text = format_table(
        ["manager", "avg block util", "avg concurrency",
         "multi-FPGA deployments"], rows,
        title="Fig. 10 / Section 5.5 -- utilization and concurrency")

    vital = system_results["vital"]
    base = system_results["per-device"]
    amorphos = system_results["amorphos-ht"]

    util_gain = (
        statistics.mean(s.block_utilization for s in vital.values())
        / statistics.mean(s.block_utilization
                          for s in amorphos.values()) - 1)
    conc_ratio = (
        statistics.mean(s.mean_concurrency for s in vital.values())
        / statistics.mean(s.mean_concurrency for s in base.values()))
    pressured = [s.block_utilization_pressured for s in vital.values()
                 if s.block_utilization_pressured > 0]
    spans = [s.multi_fpga_fraction for s in vital.values()]
    overhead = max(s.max_latency_overhead for s in vital.values())

    text += (f"\n\nViTAL utilization vs AmorphOS-HT: +{util_gain:.1%} "
             "(paper: +15.9%)"
             f"\nViTAL concurrency vs baseline: {conc_ratio:.1f}x "
             "(paper: 2.3x)"
             f"\nblock utilization under load: "
             f"{statistics.mean(pressured):.1%} (paper: >93%)"
             f"\nmulti-FPGA deployments: {min(spans):.0%}..."
             f"{max(spans):.0%} (paper: 5%~40%)"
             f"\nworst LI-interface latency overhead: {overhead:.2e} "
             "(paper: <0.03%)")
    emit("fig10", text)

    assert util_gain > 0.08
    assert 1.7 < conc_ratio < 3.0
    assert statistics.mean(pressured) > 0.90
    assert max(spans) >= 0.30 and min(spans) >= 0.0
    assert overhead < 3e-4


def test_fig10_relocation_snapshots(benchmark, cluster, apps, emit):
    """Fig. 10 proper: applications relocated into whatever blocks are
    free, rendered as occupancy snapshots from the audit log."""
    from repro.analysis.occupancy import occupancy_timeline
    from repro.runtime.controller import SystemController
    from repro.sim.experiment import run_experiment
    from repro.sim.workload import WorkloadGenerator

    controller = SystemController(cluster)
    audit = controller.attach_audit()
    requests = WorkloadGenerator(seed=10).generate(
        7, num_requests=40, mean_interarrival_s=5.0)
    benchmark.pedantic(run_experiment,
                       args=(controller, requests, apps),
                       rounds=1, iterations=1)
    timeline = occupancy_timeline(audit, cluster, max_snapshots=6)
    emit("fig10_snapshots",
         "Fig. 10 -- flexible sharing via relocation "
         "(occupancy snapshots; letters are deployments)\n\n"
         + timeline)
    # multiple concurrent deployments visible in at least one frame
    frames = timeline.split("\n\n")
    assert any(len({c for c in frame if c.isalnum()
                    and not c.isdigit()} - {"b", "o", "a", "r", "d",
                                            "t", "s"}) >= 3
               for frame in frames)


def test_fig10_per_set_spanning(benchmark, system_results, emit):
    """Spanning tracks workload size: Large-heavy sets split more."""
    vital = system_results["vital"]
    benchmark(lambda: [vital[i].multi_fpga_fraction
                       for i in COMPOSITIONS])
    rows = [[f"#{i}", f"{vital[i].multi_fpga_fraction:.0%}",
             f"{vital[i].block_utilization_pressured:.0%}"]
            for i in sorted(COMPOSITIONS)]
    emit("fig10_spanning", format_table(
        ["workload set", "multi-FPGA deployments",
         "block util under load"], rows,
        title="Section 5.5 -- spanning and pressure per workload set"))
    # all-S never needs to span; L-heavy sets span the most
    assert vital[1].multi_fpga_fraction < 0.05
    assert vital[3].multi_fpga_fraction > 0.25
