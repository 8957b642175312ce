"""Runtime determinism sanitizer: replay a scenario twice, diff digests.

The dynamic counterpart to the static rules: ``corona-repro run
--check-determinism`` executes the scenario in N (default 2) *fresh
processes* -- spawned, not forked, so each replica gets its own interpreter
with its own ``PYTHONHASHSEED``-randomized string hashing, fresh module
state and a cold ``random`` module -- and compares SHA-256 digests of every
result record.  A scenario whose output depends on set iteration order,
module-level RNG state or anything else the static rules hunt will disagree
across replicas; the CLI maps that to exit code 4.

Replicas run with output sinks and observability stripped: the check
compares *results*, and must not clobber the user's report files or write
trace artifacts twice.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional

from repro.api.run import run as run_scenario
from repro.api.scenario import OutputSpec, Scenario

#: Number of fresh-process replays ``check_determinism`` compares by default.
DEFAULT_REPLICAS = 2


def result_digest(result) -> str:
    """SHA-256 over one result record's canonical JSON."""
    payload = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def scenario_digests(scenario: Scenario, jobs: Optional[int] = None) -> Dict[str, str]:
    """``"configuration/workload" -> digest`` for one in-process run."""
    stripped = replace(scenario, output=OutputSpec(), observability=None)
    outcome = run_scenario(stripped, jobs=jobs)
    digests: Dict[str, str] = {}
    for result in outcome.results:
        digests[f"{result.configuration}/{result.workload}"] = result_digest(result)
    return digests


def _replica_main(scenario_data: Dict, jobs: Optional[int], conn) -> None:
    """Spawn-process entry point: run the scenario, ship digests back."""
    try:
        scenario = Scenario.from_dict(scenario_data)
        conn.send({"digests": scenario_digests(scenario, jobs=jobs)})
    except BaseException as error:  # ship the failure; the parent re-raises
        conn.send({"error": f"{type(error).__name__}: {error}"})
    finally:
        conn.close()


@dataclass
class DeterminismCheck:
    """The outcome of a multi-replica determinism check."""

    #: Per-replica ``"configuration/workload" -> digest`` maps.
    replicas: List[Dict[str, str]] = field(default_factory=list)
    #: Pair keys whose digests disagree across replicas (sorted), plus pairs
    #: present in some replicas but not others.
    diverging: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.diverging

    @property
    def pairs(self) -> int:
        return len(self.replicas[0]) if self.replicas else 0

    def overall_digest(self) -> str:
        """One digest over replica 0's per-pair digests (the run identity)."""
        if not self.replicas:
            return hashlib.sha256(b"").hexdigest()
        payload = json.dumps(self.replicas[0], sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def summary(self) -> str:
        if self.ok:
            return (
                f"deterministic: {len(self.replicas)} fresh-process replays, "
                f"{self.pairs} result digests identical "
                f"({self.overall_digest()[:16]})"
            )
        return (
            f"NONDETERMINISTIC: {len(self.diverging)} of {self.pairs} "
            f"result digests diverge across {len(self.replicas)} replays: "
            f"{', '.join(self.diverging)}"
        )


def compare_replicas(replicas: List[Dict[str, str]]) -> DeterminismCheck:
    """Diff per-pair digest maps from independent replays."""
    check = DeterminismCheck(replicas=replicas)
    if len(replicas) < 2:
        return check
    keys = set()
    for digests in replicas:
        keys.update(digests)
    diverging = []
    for key in sorted(keys):
        values = {digests.get(key) for digests in replicas}
        if len(values) > 1:
            diverging.append(key)
    check.diverging = diverging
    return check


def _spawn_pythonpath() -> str:
    """PYTHONPATH for replicas: the parent's, plus wherever ``repro`` lives.

    Spawned interpreters rebuild ``sys.path`` from the environment, so a
    parent that imported ``repro`` off a manually-extended path (editable
    checkouts, test harnesses) must pass that location along explicitly.
    """
    import repro

    package_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = os.environ.get("PYTHONPATH", "")
    parts = [package_root] + [p for p in existing.split(os.pathsep) if p]
    seen = set()
    unique = [p for p in parts if not (p in seen or seen.add(p))]
    return os.pathsep.join(unique)


def check_determinism(
    scenario: Scenario,
    jobs: Optional[int] = None,
    replicas: int = DEFAULT_REPLICAS,
    timeout_s: float = 600.0,
) -> DeterminismCheck:
    """Replay ``scenario`` in ``replicas`` fresh processes and diff digests.

    Raises :class:`RuntimeError` if a replica fails or times out -- a crash
    is not a determinism verdict.
    """
    if replicas < 2:
        raise ValueError(f"need at least 2 replicas to compare, got {replicas}")
    import multiprocessing

    context = multiprocessing.get_context("spawn")
    scenario_data = scenario.to_dict()
    previous_pythonpath = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = _spawn_pythonpath()
    try:
        digest_maps: List[Dict[str, str]] = []
        for index in range(replicas):
            parent_conn, child_conn = context.Pipe(duplex=False)
            process = context.Process(
                target=_replica_main,
                args=(scenario_data, jobs, child_conn),
                name=f"determinism-replica-{index}",
            )
            process.start()
            child_conn.close()
            try:
                if not parent_conn.poll(timeout_s):
                    raise RuntimeError(
                        f"determinism replica {index} timed out after "
                        f"{timeout_s:.0f} s"
                    )
                message = parent_conn.recv()
            except EOFError:
                raise RuntimeError(
                    f"determinism replica {index} exited without a result"
                ) from None
            finally:
                process.join(timeout=30.0)
                if process.is_alive():  # pragma: no cover - stuck replica
                    process.terminate()
                    process.join()
                parent_conn.close()
            if "error" in message:
                raise RuntimeError(
                    f"determinism replica {index} failed: {message['error']}"
                )
            digest_maps.append(message["digests"])
    finally:
        if previous_pythonpath is None:
            os.environ.pop("PYTHONPATH", None)
        else:
            os.environ["PYTHONPATH"] = previous_pythonpath
    return compare_replicas(digest_maps)
