"""FPGA cluster substrate.

Models the paper's custom-built evaluation platform (Section 5.2): four
Xilinx UltraScale+ XCVU37P boards, each with two DDR4 DIMM sites and four
QSFP cages, sharing a 100 Gb/s bidirectional ring.

- :mod:`repro.cluster.board` -- one board (device + partition + DRAM +
  transceivers);
- :mod:`repro.cluster.network` -- the bidirectional ring;
- :mod:`repro.cluster.cluster` -- the cluster and its factory;
- :mod:`repro.cluster.reconfig` -- partial and full reconfiguration
  timing.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DimmSite",
    "FPGABoard",
    "RingNetwork",
    "FPGACluster",
    "make_cluster",
    "Reconfigurer",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "board": ("DimmSite", "FPGABoard"),
    "network": ("RingNetwork",),
    "cluster": ("FPGACluster", "make_cluster"),
    "reconfig": ("Reconfigurer",),
})
