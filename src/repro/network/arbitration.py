"""Optical token-ring arbitration (Section 3.2.3 of the Corona paper).

Every crossbar channel (and the broadcast bus) is guarded by a one-bit optical
token circulating on an arbitration waveguide.  A cluster that wants to send
on channel ``d`` diverts (absorbs) wavelength ``d`` from the arbitration
waveguide; possession of the token is an exclusive grant.  When the cluster
finishes transmitting it re-injects the token, which then travels around the
ring to the next requester.

The model tracks, per channel, where and when the token was last released.
A request from cluster ``c`` at time ``t`` is granted at::

    grant = max(t, release_time) + travel(release_position -> c)

where travel time is the serpentine propagation delay between the two
clusters (a full revolution takes
``CoronaConfig.token_ring_round_trip_cycles``, 8 processor clocks in the
paper).  This reproduces the paper's behaviour: under contention the token
moves only a short distance between back-to-back holders so utilization is
high, while an uncontested requester may wait up to a full revolution (8
cycles) for the token to come around.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple


@functools.lru_cache(maxsize=8)
def token_travel_times(
    num_clusters: int, ring_round_trip_s: float
) -> Tuple[float, ...]:
    """Token propagation time along the ring, by distance.

    Entry ``(to_cluster - from_cluster) % num_clusters`` is the time a token
    takes from one cluster to the other.  The ring is unidirectional
    (cyclically increasing cluster order); a token released at its owner
    immediately after a transmission must travel a full revolution before
    that same cluster could re-acquire it, which is how the detectors are
    positioned in the paper (Figure 5), so distance 0 costs a revolution.
    The table depends only on the ring, so every channel arbiter of a ring
    shares one.
    """
    return tuple(
        ring_round_trip_s * (distance or num_clusters) / num_clusters
        for distance in range(num_clusters)
    )


@dataclass(slots=True)
class TokenChannelArbiter:
    """Arbiter for a single channel's token."""

    channel_id: int
    num_clusters: int
    ring_round_trip_s: float
    #: Cluster just downstream of which the token was last released.
    release_position: int = 0
    #: Time the token was last released (or created): 0 at construction.
    release_time: float = field(init=False)
    grants: int = field(init=False, repr=False)
    total_wait_s: float = field(init=False, repr=False)
    #: Fault injection hook (:mod:`repro.faults.inject`):
    #: ``token_loss(channel_id, grant_index)`` returns the extra delay of a
    #: grant whose token was lost.  ``None`` on fault-free builds, so a
    #: grant pays one ``is None`` check and computes bit-identical results.
    token_loss: Optional[Callable[[int, int], float]] = field(
        init=False, repr=False, compare=False
    )
    #: :func:`token_travel_times` of this ring.
    _travel: Tuple[float, ...] = field(init=False, repr=False, compare=False)
    #: Token hop time between adjacent clusters (the contended case).  When
    #: many clusters are waiting for the same channel the token only travels
    #: as far as the next requester downstream, which on average is a
    #: neighbouring cluster; this is why the paper notes that "when
    #: contention is high, token transfer time is low and channel
    #: utilization is high".
    handoff_s: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_clusters < 1:
            raise ValueError(
                f"cluster count must be >= 1, got {self.num_clusters}"
            )
        if self.ring_round_trip_s < 0:
            raise ValueError(
                f"round-trip time must be non-negative, got {self.ring_round_trip_s}"
            )
        self.release_time = 0.0
        self.grants = 0
        self.total_wait_s = 0.0
        self.token_loss = None
        self._travel = token_travel_times(self.num_clusters, self.ring_round_trip_s)
        self.handoff_s = self.ring_round_trip_s / self.num_clusters

    def acquire(self, cluster: int, now: float) -> float:
        """Request the token from ``cluster`` at time ``now``; returns grant time."""
        if not 0 <= cluster < self.num_clusters:
            raise ValueError(
                f"cluster {cluster} outside ring of {self.num_clusters}"
            )
        if now >= self.release_time:
            # Uncontested: the token is circulating.  It arrives at the
            # requester one travel time after its last release; if it has
            # already swept past, it must complete further revolutions.
            arrival = self.release_time + self._travel[
                (cluster - self.release_position) % self.num_clusters
            ]
            while arrival < now and self.ring_round_trip_s > 0:
                arrival += self.ring_round_trip_s
            grant = max(arrival, now)
        else:
            # Contested: the channel is still granted into the future; the
            # token hops from the current holder to the next requester, which
            # under heavy contention is nearby on the ring.
            grant = self.release_time + self.handoff_s
        token_loss = self.token_loss
        if token_loss is not None:
            # Lost token: the home cluster regenerates it after the timeout,
            # so this grant (keyed by the channel's deterministic grant
            # counter) completes late instead of deadlocking the channel.
            grant += token_loss(self.channel_id, self.grants)
        self.grants += 1
        self.total_wait_s += grant - now
        return grant

    def release(self, cluster: int, release_time: float) -> None:
        """Re-inject the token at ``cluster`` at ``release_time``."""
        if release_time < self.release_time:
            raise ValueError(
                f"token for channel {self.channel_id} released at {release_time} "
                f"before previous release {self.release_time}"
            )
        self.release_position = cluster
        self.release_time = release_time


class TokenRingArbiter:
    """The full arbitration subsystem: one token per crossbar channel.

    The paper uses 64 wavelengths on the arbitration waveguide, one per
    crossbar channel (one channel per cluster), plus one wavelength for the
    broadcast bus; this class manages the channels' independent tokens,
    which share a single (logical) arbitration ring of round trip
    ``ring_round_trip_s``.
    """

    def __init__(self, num_clusters: int, ring_round_trip_s: float) -> None:
        self.ring_round_trip_s = ring_round_trip_s
        self.channels: Dict[int, TokenChannelArbiter] = {
            channel: TokenChannelArbiter(
                channel_id=channel,
                num_clusters=num_clusters,
                ring_round_trip_s=ring_round_trip_s,
                # Tokens start spread around the ring, as they would be after
                # the channels have been idle for a revolution.
                release_position=channel,
            )
            for channel in range(num_clusters)
        }

    def average_wait_s(self) -> float:
        """Mean token wait over every grant, from the per-channel counters."""
        grants = sum(c.grants for c in self.channels.values())
        if grants == 0:
            return 0.0
        return sum(c.total_wait_s for c in self.channels.values()) / grants
