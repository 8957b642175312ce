"""Harness chaos: injected worker crashes, hangs and errors.

This is the *test* side of the resilience layer -- it never touches the
simulation.  When the ``CORONA_CHAOS`` environment variable is set, worker
processes consult it before replaying each pair and may deterministically
crash (``os._exit``), hang (``time.sleep``) or raise, exercising the
supervised pool's crash detection, timeouts and retries, and the failure
records of pairs that raise.  The chaos section of ``scripts/smoke.py`` and
the resilience tests drive it; production runs never set the variable.

Format (comma-separated ``key=value``)::

    CORONA_CHAOS="crash=0.5,hang=0.0,error=0.0,seed=3,attempts=1,hang_s=30"

``crash``/``hang``/``error`` are per-pair probabilities; ``seed`` keys the
deterministic draws; ``attempts`` caps how many attempts of a pair are
sabotaged, so with the default 1 a crashed or hung pair's retry succeeds
(an error is never retried: an ``error`` draw fails its pair on the first
attempt whatever ``attempts`` says); ``hang_s`` is the sleep of a hang.
Draws key :func:`~repro.faults.determinism.stable_uniform` with the pair's
submission index, so the same pairs misbehave on every run.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.faults.determinism import stable_uniform

#: Environment variable carrying the chaos spec ("" / unset = no chaos).
CHAOS_ENV_VAR = "CORONA_CHAOS"

#: Exit status of an injected crash (distinctive in worker post-mortems).
CHAOS_EXIT_CODE = 86

# Site codes for the three sabotage kinds (disjoint from inject.py's sites
# by construction: chaos draws use its own seed space).
_SITE_CRASH = 101
_SITE_HANG = 102
_SITE_ERROR = 103


class ChaosError(RuntimeError):
    """The error kind of injected chaos (a deterministic worker failure)."""


@dataclass(frozen=True)
class ChaosSpec:
    """Parsed ``CORONA_CHAOS`` contents."""

    crash_rate: float = 0.0
    hang_rate: float = 0.0
    error_rate: float = 0.0
    seed: int = 0
    attempts: int = 1
    hang_s: float = 30.0

    @classmethod
    def parse(cls, text: str) -> "ChaosSpec":
        """Parse the comma-separated spec, raising ValueError on bad input."""
        values = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(
                    f"bad {CHAOS_ENV_VAR} entry {part!r}; expected key=value"
                )
            key, raw = part.split("=", 1)
            key = key.strip()
            try:
                value = float(raw.strip())
            except ValueError:
                raise ValueError(
                    f"bad {CHAOS_ENV_VAR} value for {key!r}: {raw!r}"
                ) from None
            values[key] = value
        known = {
            "crash": "crash_rate",
            "hang": "hang_rate",
            "error": "error_rate",
            "seed": "seed",
            "attempts": "attempts",
            "hang_s": "hang_s",
        }
        unknown = sorted(set(values) - set(known))
        if unknown:
            raise ValueError(
                f"unknown {CHAOS_ENV_VAR} key {unknown[0]!r}; "
                f"known: {sorted(known)}"
            )
        kwargs = {known[key]: value for key, value in values.items()}
        for int_field in ("seed", "attempts"):
            if int_field in kwargs:
                kwargs[int_field] = int(kwargs[int_field])
        return cls(**kwargs)


_CACHE: Tuple[Optional[str], Optional[ChaosSpec]] = (None, None)


def active_chaos() -> Optional[ChaosSpec]:
    """The current environment's chaos spec, or None when unset/empty.

    Parsed once per distinct variable value (workers inherit the parent's
    environment, so this is effectively parse-once per process).
    """
    global _CACHE
    # lint: ignore[det-wall-clock] the env var IS the chaos hook's interface
    text = os.environ.get(CHAOS_ENV_VAR, "")
    if not text.strip():
        return None
    cached_text, cached_spec = _CACHE
    if text != cached_text:
        _CACHE = (text, ChaosSpec.parse(text))
    return _CACHE[1]


def maybe_sabotage(pair_index: int, attempt: int, in_process: bool) -> None:
    """Possibly sabotage this attempt of pair ``pair_index``.

    Crash and hang sabotage only apply to pool workers (``in_process``
    False); the error kind applies everywhere, so the in-process failure
    path is testable too.  Attempts at or beyond the spec's ``attempts`` are
    always left alone, which is what lets retried pairs complete
    bit-identically.
    """
    spec = active_chaos()
    if spec is None or attempt >= spec.attempts:
        return
    if not in_process:
        if spec.crash_rate > 0.0 and (
            stable_uniform(spec.seed, _SITE_CRASH, pair_index, attempt)
            < spec.crash_rate
        ):
            os._exit(CHAOS_EXIT_CODE)
        if spec.hang_rate > 0.0 and (
            stable_uniform(spec.seed, _SITE_HANG, pair_index, attempt)
            < spec.hang_rate
        ):
            # lint: ignore[det-wall-clock] sabotage hangs real worker time
            time.sleep(spec.hang_s)
    if spec.error_rate > 0.0 and (
        stable_uniform(spec.seed, _SITE_ERROR, pair_index, attempt)
        < spec.error_rate
    ):
        raise ChaosError(
            f"injected chaos error (pair {pair_index}, attempt {attempt})"
        )
