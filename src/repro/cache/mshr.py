"""Miss-status holding registers (MSHRs) with request coalescing.

The cluster L2 tracks its outstanding misses in an MSHR file: a new miss to a
line that already has an outstanding request is *coalesced* onto the existing
entry instead of generating a second network transaction.  The file has a
finite number of entries; when it is full the L2 stops accepting new misses,
which is one of the back-pressure mechanisms the paper's simulator enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class MshrEntry:
    """One outstanding miss."""

    line_address: int
    is_write: bool
    issue_time: float
    waiting_threads: List[int] = field(default_factory=list)

    def merge(self, thread_id: int, is_write: bool) -> None:
        """Coalesce another miss to the same line onto this entry."""
        self.waiting_threads.append(thread_id)
        self.is_write = self.is_write or is_write

    @property
    def coalesced_count(self) -> int:
        return len(self.waiting_threads)


class MshrFile:
    """A finite file of MSHR entries with coalescing."""

    def __init__(self, name: str, entries: int, line_bytes: int = 64) -> None:
        if entries < 1:
            raise ValueError(f"MSHR file needs at least one entry, got {entries}")
        if line_bytes <= 0:
            raise ValueError(f"line size must be positive, got {line_bytes}")
        self.name = name
        self.capacity = entries
        self.line_bytes = line_bytes
        self._entries: Dict[int, MshrEntry] = {}
        self.allocations = 0
        self.coalesced = 0
        self.rejections = 0

    def _line(self, address: int) -> int:
        return address // self.line_bytes

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def allocate(
        self, address: int, thread_id: int, is_write: bool, now: float
    ) -> Optional[MshrEntry]:
        """Allocate (or coalesce onto) an entry for a miss.

        Returns the entry, or ``None`` if the file is full and the miss must
        be retried (back-pressure).  A returned entry with
        ``coalesced_count > 1`` means no new network request is needed.
        """
        line = self._line(address)
        entry = self._entries.get(line)
        if entry is not None:
            entry.merge(thread_id, is_write)
            self.coalesced += 1
            return entry
        if self.full:
            self.rejections += 1
            return None
        entry = MshrEntry(
            line_address=line,
            is_write=is_write,
            issue_time=now,
            waiting_threads=[thread_id],
        )
        self._entries[line] = entry
        self.allocations += 1
        return entry

    def release(self, address: int) -> MshrEntry:
        """Retire the entry for ``address`` when its fill returns."""
        line = self._line(address)
        if line not in self._entries:
            raise KeyError(f"no outstanding MSHR for address {address:#x}")
        return self._entries.pop(line)
