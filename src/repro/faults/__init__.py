"""Deterministic fault injection for the modeled hardware.

The package has three layers:

* :mod:`repro.faults.spec` -- :class:`FaultSpec`, the frozen, seeded,
  JSON-round-tripping description of *which* hardware faults a run injects
  (ring-resonator detuning, arbitration token loss, dead waveguides/links,
  transient DRAM timeouts).  It travels through the Scenario/sweep JSON tree
  like every other spec node.
* :mod:`repro.faults.inject` -- :class:`FaultInjector`, which turns a spec
  into concrete degradations of a freshly built system (per-channel
  bandwidth, per-link slowdowns, token-regeneration waits, DRAM retries) and
  counts what it did in :class:`FaultStats`.
* :mod:`repro.faults.chaos` -- *harness* chaos (worker crashes, hangs,
  injected errors) driven by the ``CORONA_CHAOS`` environment variable; used
  by the resilience tests and ``scripts/smoke.py``'s chaos section, never by
  the simulation itself.

Every fault decision is a pure function of ``(seed, site, counter)`` via
:func:`repro.faults.determinism.stable_uniform`, so identical seeds produce
identical fault schedules regardless of worker count or execution order.
"""

from repro.faults.determinism import stable_uniform
from repro.faults.inject import FaultInjector, FaultStats
from repro.faults.spec import FaultError, FaultSpec

__all__ = [
    "FaultError",
    "FaultInjector",
    "FaultSpec",
    "FaultStats",
    "stable_uniform",
]
