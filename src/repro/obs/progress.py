"""The wall-clock heartbeat: pairs done, pairs/s, ETA on stderr.

A :class:`ProgressReporter` is fed one :meth:`pair_done` per replayed
(configuration, workload) pair by whichever caller is executing --
:func:`repro.api.run` or the sweep engine -- and rate-limits its own output, so
callers just tick it.  It writes to stderr (never stdout) so heartbeats
interleave safely with piped reports and JSON output.
"""

from __future__ import annotations

import sys
import time
from typing import Optional, TextIO


class ProgressReporter:
    """Aggregates pair outcomes into periodic one-line heartbeats."""

    def __init__(
        self,
        total_pairs: int,
        interval_s: float = 2.0,
        stream: Optional[TextIO] = None,
        label: str = "run",
    ) -> None:
        self.total = max(total_pairs, 0)
        self.done = 0
        self.failed = 0
        self.retried = 0
        self.interval_s = interval_s
        self.stream = stream if stream is not None else sys.stderr
        self.label = label
        self._started = time.monotonic()
        self._last_emit = 0.0
        self._emit(force=True)

    def pair_done(self, failed: bool = False, retries: int = 0) -> None:
        """Record one finished pair (its retries and final outcome)."""
        self.done += 1
        if failed:
            self.failed += 1
        if retries > 0:
            self.retried += retries
        self._emit(force=self.done >= self.total)

    def finish(self) -> None:
        """Emit the final line unconditionally."""
        self._emit(force=True)

    # -- rendering -----------------------------------------------------------
    def _emit(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_emit < self.interval_s:
            return
        self._last_emit = now
        elapsed = max(now - self._started, 1e-9)
        rate = self.done / elapsed
        if self.done and self.total > self.done and rate > 0:
            eta = f"{(self.total - self.done) / rate:.0f}s"
        elif self.total > self.done:
            eta = "?"
        else:
            eta = "0s"
        percent = 100.0 * self.done / self.total if self.total else 100.0
        self.stream.write(
            f"[{self.label}] {self.done}/{self.total} pairs "
            f"({percent:.0f}%) | {rate:.2f} pairs/s | ETA {eta} | "
            f"retried {self.retried} | failed {self.failed}\n"
        )
        self.stream.flush()
