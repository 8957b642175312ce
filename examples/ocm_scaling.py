#!/usr/bin/env python3
"""Optically connected memory: daisy-chain expansion and hot-spot behaviour.

Two small studies of the OCM design from Section 3.3 of the paper:

1. **Expansion**: add OCM modules to one controller's fiber loop and show that
   access latency stays nearly flat: light passes through each module
   without retiming, so a module further down the chain adds only one
   optical pass-through each way, unlike a store-and-forward electrical
   chain.  The replayed controller drives one module; the chain's extra
   pass-throughs come from :func:`~repro.memory.dram.daisy_chain_delay`.
2. **Hot spot**: drive a single controller at increasing request rates on the
   OCM and ECM channels and show where each saturates -- the effect behind the
   paper's Hot Spot synthetic benchmark.

Run with::

    python examples/ocm_scaling.py
"""

from __future__ import annotations

from repro.memory.channel import ElectricalMemoryChannel, OpticalMemoryChannel
from repro.memory.controller import MemoryController
from repro.memory.dram import daisy_chain_delay


def expansion_study() -> None:
    print("1. Daisy-chain expansion: latency vs modules on the loop")
    print(f"{'modules':>8}{'capacity (modules)':>20}{'avg read latency (ns)':>24}")
    # An idle read through the controller and the module next to it.
    controller = MemoryController(
        controller_id=0, channel=OpticalMemoryChannel("loop")
    )
    nearest = controller.access(now=0.0, size_bytes=64, is_write=False).memory_latency
    for module_count in (1, 2, 4, 8):
        # Reads spread evenly over the chain: module k adds its pass-through
        # delay on the way out and again on the way back.
        chain = sum(2 * daisy_chain_delay(k) for k in range(module_count))
        average = nearest + chain / module_count
        print(f"{module_count:>8}{module_count:>20}{average * 1e9:>24.2f}")


def hot_spot_study() -> None:
    print("\n2. Single-controller saturation: OCM vs ECM channel")
    print(f"{'requests':>10}{'OCM achieved (GB/s)':>22}{'ECM achieved (GB/s)':>22}")
    for count in (500, 2000, 8000):
        achieved = {}
        for label, channel_factory in (
            ("OCM", OpticalMemoryChannel),
            ("ECM", ElectricalMemoryChannel),
        ):
            controller = MemoryController(
                controller_id=0, channel=channel_factory(f"{label}-hot")
            )
            finish = 0.0
            for i in range(count):
                result = controller.access(
                    now=0.0, size_bytes=64, is_write=False, address=i * 64
                )
                finish = max(finish, result.completion_time)
            achieved[label] = controller.bytes_transferred / finish / 1e9
        print(f"{count:>10}{achieved['OCM']:>22.1f}{achieved['ECM']:>22.1f}")
    print("\nThe OCM channel sustains roughly an order of magnitude more "
          "bandwidth per controller, which is the paper's Table 4 in action.")


def main() -> None:
    expansion_study()
    hot_spot_study()


if __name__ == "__main__":
    main()
