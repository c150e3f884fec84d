"""System-Layer simulation (Section 5.5's methodology).

A discrete-event simulator replays synthetically generated workload sets
(Table 3) against any cluster manager -- ViTAL's system controller or a
baseline -- and collects the paper's metrics: response time (wait +
service), resource utilization, concurrency, multi-FPGA spanning and
latency overhead.

- :mod:`repro.sim.events` -- event queue and time-weighted statistics;
- :mod:`repro.sim.workload` -- Table 3 workload-set generation;
- :mod:`repro.sim.metrics` -- per-request records and summaries;
- :mod:`repro.sim.request_queue` -- the pending-request queue of the
  event loop (all disciplines), carrying its own block-demand vector;
- :mod:`repro.sim.experiment` -- the event loop and multi-manager
  comparison drivers;
- :mod:`repro.sim.chaos` -- chaos campaign harness (correlated/gray
  scenario matrix with per-event invariants);
- :mod:`repro.sim.campaign` -- content-addressed, cached, parallel
  scenario-campaign service over declarative config grids.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ArrayEventQueue",
    "TimeWeightedValue",
    "COMPOSITIONS",
    "Request",
    "WorkloadGenerator",
    "RequestRecord",
    "RequestTable",
    "SummaryMetrics",
    "MetricsCollector",
    "ExperimentResult",
    "run_experiment",
    "compile_benchmarks",
    "compare_managers",
    "specs_for",
    "MANAGER_FACTORIES",
    "CAMPAIGN_VERSION",
    "CampaignCache",
    "CampaignConfig",
    "CampaignRunner",
    "campaign_fingerprint",
    "extended_grid",
    "run_config",
    "smoke_grid",
    "standard_grid",
    "CampaignResult",
    "ChaosInvariantError",
    "ChaosScenario",
    "ScenarioResult",
    "run_campaign",
    "run_scenario",
    "standard_scenarios",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "events": ("ArrayEventQueue", "TimeWeightedValue"),
    "workload": ("COMPOSITIONS", "Request", "WorkloadGenerator"),
    "metrics": ("RequestRecord", "RequestTable", "SummaryMetrics",
                "MetricsCollector"),
    "experiment": (
        "ExperimentResult", "run_experiment", "compile_benchmarks",
        "compare_managers", "specs_for", "MANAGER_FACTORIES",
    ),
    "campaign": (
        "CAMPAIGN_VERSION", "CampaignCache", "CampaignConfig",
        "CampaignRunner", "campaign_fingerprint", "extended_grid",
        "run_config", "smoke_grid", "standard_grid",
    ),
    "chaos": (
        "CampaignResult", "ChaosInvariantError", "ChaosScenario",
        "ScenarioResult", "run_campaign", "run_scenario", "standard_scenarios",
    ),
})
