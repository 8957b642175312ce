"""Resilience policy and failure records for the execution harness.

A :class:`RetryPolicy` tells :func:`~repro.harness.parallel.run_pairs` (the
worker pool and the in-process ``jobs=1`` loop alike) how to treat
misbehaving pairs: how long one pair may run, how many
times to retry after a crash/timeout, how the backoff between attempts
grows, and whether the run as a whole tolerates pairs that stay broken.
A :class:`PairFailure` is the structured record of one pair that exhausted
its retries -- it flows into long-form sinks, the sweep ``points.jsonl``
checkpoint and ``sweep status`` instead of vanishing into a traceback.

Crash and timeout recovery is *unconditional*: a dead or hung worker is
always detected, respawned and its pair re-dispatched (the old pool hung
forever).  The policy only decides how many re-dispatches to attempt and
what happens when they run out.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Optional, Tuple

#: The failure kinds a pair can be quarantined with.
FAILURE_KINDS = ("crash", "timeout", "error", "setup")


@dataclass(frozen=True)
class RetryPolicy:
    """How the harness treats pairs that crash, hang or raise.

    Parameters
    ----------
    timeout_s:
        Wall-clock budget of one pair attempt in a pool worker (None = no
        limit).  A pair that exceeds it is killed and counts as a
        ``timeout`` failure.  Ignored on the in-process (``jobs=1``) path,
        which cannot preempt a replay.
    max_retries:
        Re-dispatches after the first failed attempt (so a pair runs at
        most ``1 + max_retries`` times).
    backoff_s / backoff_factor:
        Delay before retry ``n`` is ``backoff_s * backoff_factor**(n-1)``.
    retry_errors:
        Whether deterministic in-worker exceptions are retried too.  Off by
        default: a pair that raises will raise again, so retrying only
        delays the verdict (chaos-injected errors are the exception, which
        is what the flag is for).
    allow_failures:
        When True, pairs that exhaust retries become :class:`PairFailure`
        records and the run continues (partial-results mode).  When False,
        the first exhausted pair aborts the run with
        :class:`PairFailureError` -- or with the original exception when
        the pair failed on its only attempt.
    """

    timeout_s: Optional[float] = None
    max_retries: int = 2
    backoff_s: float = 0.25
    backoff_factor: float = 2.0
    retry_errors: bool = False
    allow_failures: bool = False

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {self.backoff_s}")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def retry_delay_s(self, retry_number: int) -> float:
        """Backoff before retry ``retry_number`` (1-based)."""
        return self.backoff_s * self.backoff_factor ** max(retry_number - 1, 0)

    def retries_for(self, kind: str) -> int:
        """How many retries a failure of ``kind`` earns under this policy."""
        if kind == "setup":
            return 0  # a missing module/configuration never heals on retry
        if kind == "error" and not self.retry_errors:
            return 0
        return self.max_retries


#: The default policy: recover crashes and hung-pool bugs, no per-pair
#: timeout, abort the run if a pair stays broken.
DEFAULT_POLICY = RetryPolicy()


@dataclass(frozen=True)
class PairFailure:
    """One (configuration, workload) pair that exhausted its retries."""

    configuration: str
    workload: str
    #: One of :data:`FAILURE_KINDS`.
    kind: str
    message: str
    #: Total attempts made (first run plus retries).
    attempts: int
    #: Whether the pair was set aside after persistent failures (always True
    #: for recorded failures; kept explicit for the status report).
    quarantined: bool = True

    def to_dict(self) -> Dict[str, object]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "PairFailure":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown PairFailure field {unknown[0]!r}; known: "
                f"{sorted(known)}"
            )
        return cls(**data)


class PairFailureError(RuntimeError):
    """One or more pairs failed after exhausting their retries.

    Carries the structured :class:`PairFailure` records so callers (the CLI,
    the sweep engine) can report them before exiting non-zero.
    """

    def __init__(self, failures: List[PairFailure]) -> None:
        self.failures = list(failures)
        lines = [
            f"  {failure.configuration} x {failure.workload}: "
            f"{failure.kind} after {failure.attempts} attempt(s) -- "
            f"{failure.message}"
            for failure in self.failures
        ]
        super().__init__(
            f"{len(self.failures)} pair(s) failed after retries "
            f"(use allow_failures / --allow-failures for partial results):\n"
            + "\n".join(lines)
        )


def summarize_failures(
    failures: List[PairFailure],
) -> Dict[str, int]:
    """Counts by failure kind, for progress lines and status output."""
    counts: Dict[str, int] = {}
    for failure in failures:
        counts[failure.kind] = counts.get(failure.kind, 0) + 1
    return counts


#: CSV header of a failure sink (sweeps prepend ``point_id``).
FAILURE_CSV_COLUMNS: Tuple[str, ...] = tuple(
    f.name for f in fields(PairFailure)
)
