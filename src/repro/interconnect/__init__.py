"""Latency-insensitive interconnect substrate.

Cycle-level models of the communication paths a deployed ViTAL application
uses, and of the latency-insensitive interface that hides their differences
(Section 3.2):

- :mod:`repro.interconnect.links` -- the three link classes (on-chip,
  inter-die, inter-FPGA) with the bandwidth/latency parameters behind
  Table 4;
- :mod:`repro.interconnect.fifo` -- bounded FIFOs and credit counters;
- :mod:`repro.interconnect.channel` -- one latency-insensitive channel
  with credit-based back-pressure and clock-enable semantics;
- :mod:`repro.interconnect.simulator` -- a dataflow-firing simulator over
  blocks and channels; drives the random-traffic microbenchmark
  (benchmark set 1) and the deadlock-freedom tests.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DeploymentSimResult",
    "link_class_for",
    "simulate_deployment",
    "LinkClass",
    "LinkModel",
    "LINKS",
    "BoundedFifo",
    "CreditCounter",
    "Channel",
    "BlockNode",
    "TrafficSimulator",
    "measure_channel_bandwidth",
    "random_traffic_experiment",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "links": ("LinkClass", "LinkModel", "LINKS"),
    "fifo": ("BoundedFifo", "CreditCounter"),
    "channel": ("Channel",),
    "simulator": (
        "BlockNode", "TrafficSimulator", "measure_channel_bandwidth",
        "random_traffic_experiment",
    ),
    "appsim": (
        "DeploymentSimResult", "link_class_for", "simulate_deployment",
    ),
})
