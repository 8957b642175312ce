"""Set-associative cache model.

A functional (hit/miss/replacement) cache with LRU replacement, write-back /
write-allocate behaviour and a per-line MOESI state.  It is used by the
cluster hierarchy (:mod:`repro.cache.hierarchy`) to turn address traces into
L2-miss streams.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple


class CacheLineState(enum.Enum):
    """MOESI states plus Invalid for lines not present."""

    MODIFIED = "M"
    OWNED = "O"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


@dataclass
class CacheLine:
    """One resident cache line."""

    tag: int
    state: CacheLineState = CacheLineState.EXCLUSIVE
    dirty: bool = False


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one cache instance."""

    reads: int = 0
    writes: int = 0
    read_misses: int = 0
    write_misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def misses(self) -> int:
        return self.read_misses + self.write_misses

    @property
    def miss_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class SetAssociativeCache:
    """A set-associative, write-back, write-allocate cache with LRU."""

    def __init__(
        self,
        name: str,
        capacity_bytes: int,
        associativity: int,
        line_bytes: int = 64,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bytes}")
        if associativity < 1:
            raise ValueError(f"associativity must be >= 1, got {associativity}")
        if line_bytes <= 0 or capacity_bytes % (line_bytes * associativity):
            raise ValueError(
                "capacity must be a whole number of sets "
                f"(capacity={capacity_bytes}, assoc={associativity}, line={line_bytes})"
            )
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.associativity = associativity
        self.line_bytes = line_bytes
        self.num_sets = capacity_bytes // (line_bytes * associativity)
        # Each set is an OrderedDict tag -> CacheLine in LRU order (oldest first).
        self._sets: List[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.stats = CacheStats()

    # -- address helpers -------------------------------------------------------
    def line_address(self, address: int) -> int:
        return address // self.line_bytes

    def set_index(self, address: int) -> int:
        return self.line_address(address) % self.num_sets

    def tag(self, address: int) -> int:
        return self.line_address(address) // self.num_sets

    def address_of(self, set_index: int, tag: int) -> int:
        return (tag * self.num_sets + set_index) * self.line_bytes

    # -- lookups ----------------------------------------------------------------
    def lookup(self, address: int) -> Optional[CacheLine]:
        """Return the resident line for ``address`` (or ``None``), updating LRU."""
        cache_set = self._sets[self.set_index(address)]
        tag = self.tag(address)
        line = cache_set.get(tag)
        if line is not None:
            cache_set.move_to_end(tag)
        return line

    # -- accesses ----------------------------------------------------------------
    def access(
        self, address: int, is_write: bool
    ) -> Tuple[bool, Optional[Tuple[int, CacheLine]]]:
        """Access the cache.

        Returns ``(hit, victim)``: ``victim`` is ``(victim_address, line)`` if
        the access missed and allocating the new line evicted a valid one,
        otherwise ``None``.
        """
        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1

        line = self.lookup(address)
        if line is not None:
            if is_write:
                line.dirty = True
                if line.state in (CacheLineState.SHARED, CacheLineState.OWNED,
                                  CacheLineState.EXCLUSIVE):
                    line.state = CacheLineState.MODIFIED
            return True, None

        if is_write:
            self.stats.write_misses += 1
        else:
            self.stats.read_misses += 1
        victim = self._allocate(address, is_write)
        return False, victim

    def _allocate(
        self, address: int, is_write: bool
    ) -> Optional[Tuple[int, CacheLine]]:
        set_index = self.set_index(address)
        cache_set = self._sets[set_index]
        victim: Optional[Tuple[int, CacheLine]] = None
        if len(cache_set) >= self.associativity:
            victim_tag, victim_line = cache_set.popitem(last=False)
            self.stats.evictions += 1
            if victim_line.dirty:
                self.stats.writebacks += 1
            victim = (self.address_of(set_index, victim_tag), victim_line)
        state = CacheLineState.MODIFIED if is_write else CacheLineState.EXCLUSIVE
        cache_set[self.tag(address)] = CacheLine(
            tag=self.tag(address), state=state, dirty=is_write
        )
        return victim
