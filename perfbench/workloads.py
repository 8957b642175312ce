"""The benchmark's four workloads, driven only through the public API.

Each workload is closed loop: the replay issues a thread's next miss only
when its issue window allows it (window depth from the workload), and
``matrix-85`` replays its pairs one after another.  The
workload seed is the trace-generation seed; the program only ever sees the
generated traces.  README.md in this directory says why each workload exists
and which layers it loads and bypasses.

``setup`` covers what ``setup_s`` measures: imports (at module import),
trace generation and simulator or scenario construction.  ``prepare`` then
builds the fresh objects one timed repetition needs, outside the timer.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import (
    OutputSpec,
    ScaleSpec,
    Scenario,
    build_configuration,
    build_matrix,
    build_workload,
    run,
)
from repro.coherence import CoherenceConfig, SharingProfile
from repro.core.results import WorkloadResult
from repro.core.system import SystemSimulator

#: (configuration, workload) -- one replay, the unit of correctness checks.
Pair = Tuple[str, str]


@dataclass
class Outcome:
    """What one repetition produced."""

    results: List[WorkloadResult]
    #: ``repro.api.run``'s ScenarioResult (``matrix-85`` only).
    scenario_result: object = None


@dataclass
class Prepared:
    """A workload after set-up, ready for timed repetitions."""

    #: Simulated requests one repetition replays (the ``replay_rps`` numerator).
    requests: int
    #: Pair -> the record count of the trace the pair must replay in full.
    expected: Dict[Pair, int]
    #: Trace name -> records, for provenance.
    trace_records: Dict[str, int]
    #: ``prepare()`` builds one repetition, returns its timed callable.
    prepare: Callable[[], Callable[[], Outcome]]


@dataclass(frozen=True)
class ReplayWorkload:
    """In-process replays of one trace on one or more configurations."""

    name: str
    why: str
    workload: str
    requests: int
    tiny_requests: int
    configurations: Sequence[str]
    sharing: Optional[SharingProfile] = None

    def setup(self, seed: int, tiny: bool, scratch_dir: Path) -> Prepared:
        params = {"sharing": self.sharing} if self.sharing is not None else {}
        workload = build_workload(self.workload, **params)
        trace = workload.generate_packed(
            seed=seed, num_requests=self.tiny_requests if tiny else self.requests
        )
        coherence = CoherenceConfig() if self.sharing is not None else None
        configurations = [build_configuration(name) for name in self.configurations]

        def prepare() -> Callable[[], Outcome]:
            simulators = [
                SystemSimulator(
                    configuration, window_depth=workload.window, coherence=coherence
                )
                for configuration in configurations
            ]
            return lambda: Outcome([simulator.run(trace) for simulator in simulators])

        prepare()  # construction is part of set-up
        return Prepared(
            requests=len(trace) * len(configurations),
            expected={(name, trace.name): len(trace) for name in self.configurations},
            trace_records={trace.name: len(trace)},
            prepare=prepare,
        )


@dataclass(frozen=True)
class MatrixWorkload:
    """``repro.api.run`` on the default 5 x 17 scenario, with JSON/CSV sinks.

    It runs at ``jobs=1``, 1,000 requests per pair.  On a host with few
    CPUs a worker pool's timings follow the host more than the program:
    at ``jobs=2`` and 2,000 requests per pair, the spread of run medians
    over five seeds was 0.16-0.24, with or without host normalization,
    against 0.05-0.06 serial.  Wrappers also reach only this process.
    """

    name: str
    why: str
    requests_per_pair: int
    tiny_requests_per_pair: int

    def setup(self, seed: int, tiny: bool, scratch_dir: Path) -> Prepared:
        per_pair = self.tiny_requests_per_pair if tiny else self.requests_per_pair
        scale = ScaleSpec(
            synthetic_requests=per_pair,
            splash_min_requests=per_pair,
            splash_max_requests=per_pair,
            seed=seed,
        )
        scenario = Scenario(name=f"perfbench-{self.name}", scale=scale)
        matrix = build_matrix(scenario)
        expected = {
            (configuration, workload.name): matrix.requests_for(workload)
            for configuration in matrix.configuration_names
            for workload in matrix.workloads()
        }
        sinks = Path(tempfile.mkdtemp(prefix="sinks-", dir=scratch_dir))

        def prepare() -> Callable[[], Outcome]:
            shutil.rmtree(sinks, ignore_errors=True)
            output = OutputSpec(json=str(sinks / "results.json"), csv=str(sinks / "results.csv"))
            timed = Scenario(name=scenario.name, scale=scale, jobs=1, output=output)

            def repetition() -> Outcome:
                result = run(timed)
                return Outcome(result.results, result)

            return repetition

        return Prepared(
            requests=sum(expected.values()),
            expected=expected,
            trace_records={
                workload.name: matrix.requests_for(workload)
                for workload in matrix.workloads()
            },
            prepare=prepare,
        )


WORKLOADS = {
    workload.name: workload
    for workload in (
        ReplayWorkload(
            name="uniform-xbar",
            why=(
                "Corona's XBar/OCM on Uniform at 80k requests: core, calendar "
                "and crossbar dominate; coherence and harness are bypassed"
            ),
            workload="Uniform",
            requests=80_000,
            tiny_requests=2_000,
            configurations=("XBar/OCM",),
        ),
        ReplayWorkload(
            name="hotspot-ecm",
            why=(
                "LMesh/ECM on Hot Spot: every thread targets one home, so "
                "memory-controller admission dominates host time"
            ),
            workload="Hot Spot",
            requests=4_000,
            tiny_requests=400,
            configurations=("LMesh/ECM",),
        ),
        ReplayWorkload(
            name="coherent-mixed",
            why=(
                "the only coherence workload: shared reads and writes on "
                "XBar/OCM (broadcast bus) and LMesh/ECM (unicast fan-out)"
            ),
            workload="Uniform",
            requests=20_000,
            tiny_requests=1_000,
            configurations=("XBar/OCM", "LMesh/ECM"),
            sharing=SharingProfile(fraction=0.5, write_fraction=0.5),
        ),
        MatrixWorkload(
            name="matrix-85",
            why=(
                "the user path: repro.api.run on all 85 pairs with sinks; "
                "generation, harness and sinks take a real share; fidelity gaps"
            ),
            requests_per_pair=1_000,
            tiny_requests_per_pair=60,
        ),
    )
}
