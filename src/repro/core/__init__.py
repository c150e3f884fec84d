"""The paper's primary contribution, packaged as a user-facing API.

- :mod:`repro.core.programming` -- the Programming Layer (Section 3.1):
  the illusion of a single, infinitely large FPGA, plus helpers for
  defining custom kernels;
- :mod:`repro.core.stack` -- :class:`ViTALStack`, the full-stack facade
  tying the architecture abstraction, compilation flow and runtime
  controller together.
"""

from repro._lazy import lazy_exports

__all__ = ["VirtualFPGA", "custom_kernel", "ViTALStack"]

__getattr__, __dir__ = lazy_exports(__name__, {
    "programming": ("VirtualFPGA", "custom_kernel"),
    "stack": ("ViTALStack",),
})
