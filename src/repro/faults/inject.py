"""Turning a :class:`~repro.faults.spec.FaultSpec` into concrete degradation.

A :class:`FaultInjector` is built fresh for each simulator (its counters are
per-replay) and *installs* the spec's faults into the just-built network and
memory system:

* **Optical crossbar** -- per-channel detuned-wavelength draws plus
  dead-bundle draws shrink each channel's usable bandwidth (the
  ``_fault_channel_bw`` table the transfer hot path consults), and a
  per-grant token-loss draw, installed as each channel arbiter's
  ``token_loss`` hook, adds the regeneration timeout to the grant time.
  A channel is as many wavelengths wide as the system's
  ``CoronaConfig.crossbar_channel_width_bits`` (256 by default), and a
  partially detuned channel keeps the bandwidth of its surviving
  wavelengths, each at its full per-wavelength rate.
* **Electrical mesh** -- per-link dead draws install serialization
  multipliers (``_fault_link_slow``); a degraded link still delivers, just
  slower, so routes never sever and replays never deadlock.
* **Memory controllers** -- a per-access transient-timeout draw (keyed by
  the controller's deterministic access counter) adds the retry latency to
  the DRAM stage.

Every draw keys :func:`~repro.faults.determinism.stable_uniform` with a
static site code plus static coordinates, so the schedule depends only on
the spec's seed -- never on worker count or pair execution order.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.determinism import stable_uniform
from repro.faults.spec import FaultSpec
from repro.network.crossbar import OpticalCrossbar
from repro.network.mesh import ElectricalMesh

# Static site codes keying stable_uniform draws; one per decision class.
_SITE_DETUNING = 1
_SITE_DEAD_OPTICAL = 2
_SITE_DEAD_LINK = 3
_SITE_TOKEN = 4
_SITE_DRAM = 5


class FaultStats:
    """Mutable per-replay counters of what the injector actually did."""

    __slots__ = (
        "wavelengths_disabled",
        "links_degraded",
        "tokens_lost",
        "token_regen_wait_s",
        "dram_timeouts",
        "dram_retry_s",
    )

    def __init__(self) -> None:
        self.wavelengths_disabled = 0
        self.links_degraded = 0
        self.tokens_lost = 0
        self.token_regen_wait_s = 0.0
        self.dram_timeouts = 0
        self.dram_retry_s = 0.0


class FaultInjector:
    """Installs one spec's faults into a freshly built system."""

    __slots__ = ("spec", "stats", "_token_regen_s", "on_fault")

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self.stats = FaultStats()
        self._token_regen_s = 0.0
        #: Optional observability hook ``(kind, site, delay_s)`` fired when a
        #: per-event fault actually triggers; the timeline recorder installs
        #: it (:mod:`repro.obs.timeline`).  ``None`` costs one check per
        #: *triggered* fault, never per event.
        self.on_fault = None

    # -- installation --------------------------------------------------------
    def install(self, network, memory, channel_wavelengths: int) -> None:
        """Degrade ``network`` and ``memory`` according to the spec.

        ``channel_wavelengths`` is the width of one crossbar channel, the
        number of wavelengths that can detune.  Interconnect types the
        injector does not model (user-registered networks) are left
        untouched; their runs simply report zero fault counters.
        """
        if isinstance(network, OpticalCrossbar):
            self._install_crossbar(network, channel_wavelengths)
        elif isinstance(network, ElectricalMesh):
            self._install_mesh(network)
        if memory is not None and self.spec.dram_timeout_rate > 0.0:
            for controller in memory.controllers.values():
                controller.fault_dram = self.dram_extra_delay

    def _install_crossbar(self, network: OpticalCrossbar, wavelengths: int) -> None:
        spec = self.spec
        detune = spec.ring_detuning_fraction
        dead = spec.dead_link_fraction
        if detune > 0.0 or dead > 0.0:
            base = network.channel_bandwidth_bytes_per_s
            table = []
            degraded = False
            for channel in range(network.num_clusters):
                disabled = 0
                if detune > 0.0:
                    for wavelength in range(wavelengths):
                        if (
                            stable_uniform(
                                spec.seed, _SITE_DETUNING, channel, wavelength
                            )
                            < detune
                        ):
                            disabled += 1
                # Clamp: at least one surviving wavelength per channel, so a
                # fully detuned channel degrades instead of deadlocking.
                disabled = min(disabled, wavelengths - 1)
                self.stats.wavelengths_disabled += disabled
                bandwidth = base * (wavelengths - disabled) / wavelengths
                if (
                    dead > 0.0
                    and stable_uniform(spec.seed, _SITE_DEAD_OPTICAL, channel)
                    < dead
                ):
                    bandwidth *= spec.dead_link_bandwidth_scale
                    self.stats.links_degraded += 1
                if bandwidth != base:
                    degraded = True
                table.append(bandwidth)
            if degraded:
                network._fault_channel_bw = table
        if spec.token_loss_rate > 0.0:
            self._token_regen_s = (
                spec.token_regeneration_cycles / network.clock_hz
            )
            # On the crossbar's channel tokens only: the broadcast bus's
            # token stays fault-free.
            for channel_arbiter in network.arbiter.channels.values():
                channel_arbiter.token_loss = self.token_extra_delay

    def _install_mesh(self, network: ElectricalMesh) -> None:
        spec = self.spec
        if spec.dead_link_fraction <= 0.0:
            return
        slowdown = 1.0 / spec.dead_link_bandwidth_scale
        slow = {}
        for src, dst in network.links:
            if (
                stable_uniform(spec.seed, _SITE_DEAD_LINK, src, dst)
                < spec.dead_link_fraction
            ):
                slow[src * network.num_clusters + dst] = slowdown
                self.stats.links_degraded += 1
        if slow:
            network._fault_link_slow = slow

    # -- per-event hooks (called from the grant/access hot paths) ------------
    def token_extra_delay(self, channel: int, grant_index: int) -> float:
        """Extra grant delay if this grant's token re-injection was lost."""
        spec = self.spec
        if (
            stable_uniform(spec.seed, _SITE_TOKEN, channel, grant_index)
            < spec.token_loss_rate
        ):
            self.stats.tokens_lost += 1
            self.stats.token_regen_wait_s += self._token_regen_s
            hook = self.on_fault
            if hook is not None:
                hook("token_lost", channel, self._token_regen_s)
            return self._token_regen_s
        return 0.0

    def dram_extra_delay(self, controller_id: int, access_index: int) -> float:
        """Extra DRAM latency if this access timed out and was retried."""
        spec = self.spec
        if (
            stable_uniform(spec.seed, _SITE_DRAM, controller_id, access_index)
            < spec.dram_timeout_rate
        ):
            retry = spec.dram_retry_latency_ns * 1e-9
            self.stats.dram_timeouts += 1
            self.stats.dram_retry_s += retry
            hook = self.on_fault
            if hook is not None:
                hook("dram_timeout", controller_id, retry)
            return retry
        return 0.0


def build_injector(spec: Optional[FaultSpec]) -> Optional[FaultInjector]:
    """An injector for ``spec``, or None when the spec is absent/inactive."""
    if spec is None or not spec.any_active:
        return None
    return FaultInjector(spec)
