"""Resilience policy and failure records for the execution harness.

A :class:`RetryPolicy` tells :func:`~repro.harness.parallel.run_pairs` (the
worker pool and the in-process ``jobs=1`` loop alike) how to treat
misbehaving pairs: how long one pair may run, how many times to retry after
a crash/timeout, and whether the run as a whole tolerates pairs that stay
broken.  An exception raised by a replay is never retried: a pair is a pure
function of its arguments, so it would raise again.  Retries wait
:func:`retry_delay_s`, a fixed schedule of 0.25 s doubling with each retry.
A :class:`PairFailure` is the structured record of one pair that exhausted
its retries -- it flows into long-form sinks, the sweep ``points.jsonl``
checkpoint and ``sweep status`` instead of vanishing into a traceback.

Crash and timeout recovery is *unconditional*: a dead or hung worker is
always detected, respawned and its pair re-dispatched (the old pool hung
forever).  The policy only decides how many re-dispatches to attempt and
what happens when they run out.  In process (``jobs=1``) neither can occur,
so there an error is the only failure and nothing is retried.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Mapping, Optional, Tuple

#: The failure kinds a pair can be quarantined with.
FAILURE_KINDS = ("crash", "timeout", "error", "setup")

#: Delay before the first retry of a pair; each further retry doubles it.
RETRY_BACKOFF_S = 0.25


def retry_delay_s(retry_number: int) -> float:
    """Backoff before retry ``retry_number`` (1-based): 0.25 s, 0.5 s, 1 s..."""
    return RETRY_BACKOFF_S * 2.0 ** max(retry_number - 1, 0)


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
        Re-dispatches of a crashed or timed-out pair after its first attempt
        (so such a pair runs at most ``1 + max_retries`` times).
    allow_failures:
        When True, pairs that exhaust retries become :class:`PairFailure`
        records and the run continues (partial-results mode).  When False,
        the first exhausted pair aborts the run with
        :class:`PairFailureError` -- or with the original exception when
        the pair failed on its only attempt.
    """

    timeout_s: Optional[float] = None
    max_retries: int = 2
    allow_failures: bool = False

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")

    def retries_for(self, kind: str) -> int:
        """How many retries a failure of ``kind`` earns under this policy:
        ``max_retries`` for a crash or a timeout, none for an error (it
        would raise again) or a setup failure (a missing module or
        configuration never heals)."""
        if kind in ("crash", "timeout"):
            return self.max_retries
        return 0


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
