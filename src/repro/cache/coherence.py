"""A functional MOESI directory coherence protocol (Section 3.1.2).

Corona keeps the 64 L2 caches coherent with a MOESI directory protocol: each
cluster's directory tracks, for every line homed at that cluster, which
clusters cache it and in what state.  Invalidations of widely shared lines are
delivered over the optical broadcast bus (Section 3.2.2) as a single message
instead of a storm of unicasts.

The implementation here is functional rather than timed: it maintains
directory state, produces the list of coherence messages each transition
requires, and counts how many of those messages the broadcast bus saves.  The
paper itself excludes coherence traffic from its timed network simulations
("the coherence scheme ... has not yet been modeled in the system
simulation"); this reproduction goes one step further: the
:mod:`repro.coherence` subsystem drives this protocol from the replay engine
(:mod:`repro.core.system`), turning each transition's messages into timed
resource reservations for shared-tagged misses, with invalidations riding
the optical broadcast bus on photonic configurations.  The functional
protocol remains independently usable by the broadcast-bus experiments and
the coherence unit tests.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple


class MoesiState(enum.Enum):
    """Stable cache-line states of the MOESI protocol."""

    MODIFIED = "M"
    OWNED = "O"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


class DirectoryState(enum.Enum):
    """Directory-side summary of a line's global state."""

    UNCACHED = "uncached"
    SHARED = "shared"
    EXCLUSIVE = "exclusive"


@dataclass
class DirectoryEntry:
    """Directory record for one cache line."""

    line_address: int
    state: DirectoryState = DirectoryState.UNCACHED
    owner: Optional[int] = None
    sharers: Set[int] = field(default_factory=set)

    def holders(self) -> Set[int]:
        holders = set(self.sharers)
        if self.owner is not None:
            holders.add(self.owner)
        return holders


@dataclass(frozen=True)
class CoherenceAction:
    """One protocol step: messages to send and the requester's new state."""

    requester_state: MoesiState
    unicast_messages: int
    broadcast_messages: int
    invalidated_clusters: Tuple[int, ...] = ()
    data_from_memory: bool = False
    data_from_owner: Optional[int] = None


class CoherenceController:
    """The directory controller of one home cluster."""

    def __init__(
        self,
        home_cluster: int,
        broadcast_threshold: int = 4,
        line_bytes: int = 64,
    ) -> None:
        if broadcast_threshold < 1:
            raise ValueError(
                f"broadcast threshold must be >= 1, got {broadcast_threshold}"
            )
        self.home_cluster = home_cluster
        self.broadcast_threshold = broadcast_threshold
        self.line_bytes = line_bytes
        self.entries: Dict[int, DirectoryEntry] = {}
        self.read_requests = 0
        self.write_requests = 0
        self.invalidations_sent = 0
        self.broadcasts_used = 0
        self.unicasts_avoided = 0

    def _entry(self, address: int) -> DirectoryEntry:
        line = address // self.line_bytes
        if line not in self.entries:
            self.entries[line] = DirectoryEntry(line_address=line)
        return self.entries[line]

    # -- protocol transitions ---------------------------------------------------
    def handle_read(self, address: int, requester: int) -> CoherenceAction:
        """A cluster asks for a readable copy (GetS)."""
        self.read_requests += 1
        entry = self._entry(address)

        if entry.state is DirectoryState.UNCACHED:
            entry.state = DirectoryState.EXCLUSIVE
            entry.owner = requester
            return CoherenceAction(
                requester_state=MoesiState.EXCLUSIVE,
                unicast_messages=2,  # request + data response
                broadcast_messages=0,
                data_from_memory=True,
            )

        if entry.state is DirectoryState.EXCLUSIVE:
            owner = entry.owner
            if owner == requester:
                return CoherenceAction(
                    requester_state=MoesiState.EXCLUSIVE,
                    unicast_messages=0,
                    broadcast_messages=0,
                )
            # Owner is downgraded to Owned and supplies the data; the sharer
            # set tracks only non-owner holders.
            entry.state = DirectoryState.SHARED
            entry.sharers = {requester}
            entry.owner = owner
            return CoherenceAction(
                requester_state=MoesiState.SHARED,
                unicast_messages=3,  # request + forward + data
                broadcast_messages=0,
                data_from_owner=owner,
            )

        # SHARED: add the requester; data comes from the owner if one exists
        # (Owned state), otherwise from memory.
        if requester != entry.owner:
            entry.sharers.add(requester)
        supplier = entry.owner
        return CoherenceAction(
            requester_state=MoesiState.SHARED,
            unicast_messages=2 if supplier is None else 3,
            broadcast_messages=0,
            data_from_memory=supplier is None,
            data_from_owner=supplier,
        )

    def handle_write(self, address: int, requester: int) -> CoherenceAction:
        """A cluster asks for an exclusive, writable copy (GetM)."""
        self.write_requests += 1
        entry = self._entry(address)
        holders = entry.holders() - {requester}

        invalidated = tuple(sorted(holders))
        unicasts = 2  # request + data/ack
        broadcasts = 0
        if invalidated:
            self.invalidations_sent += len(invalidated)
            if len(invalidated) >= self.broadcast_threshold:
                # One broadcast-bus message invalidates every sharer at once.
                broadcasts = 1
                self.broadcasts_used += 1
                self.unicasts_avoided += len(invalidated) - 1
            else:
                unicasts += len(invalidated)

        data_from_owner = entry.owner if entry.owner not in (None, requester) else None
        entry.state = DirectoryState.EXCLUSIVE
        entry.owner = requester
        entry.sharers = set()
        return CoherenceAction(
            requester_state=MoesiState.MODIFIED,
            unicast_messages=unicasts,
            broadcast_messages=broadcasts,
            invalidated_clusters=invalidated,
            data_from_memory=data_from_owner is None and not invalidated,
            data_from_owner=data_from_owner,
        )

    # -- reporting ----------------------------------------------------------------
    def sharer_histogram(self) -> Dict[int, int]:
        """Distribution of sharer counts across tracked lines."""
        histogram: Dict[int, int] = {}
        for entry in self.entries.values():
            count = len(entry.holders())
            histogram[count] = histogram.get(count, 0) + 1
        return histogram

    def broadcast_savings(self) -> int:
        """Unicast messages avoided thanks to the broadcast bus."""
        return self.unicasts_avoided
