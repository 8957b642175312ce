#!/usr/bin/env python3
"""Sweep API: a declarative parameter-grid study, end to end.

Builds a :class:`~repro.sweeps.SweepSpec` over the Scenario API -- a
(offered-load x interconnect) grid asking *where the electrical meshes run
out of steam*: the per-thread compute gap of a Uniform workload swept from
heavy to light load (zipped with a human-readable label axis), crossed with
three systems (the electrical baseline, the dense mesh, and Corona's
optical crossbar).  Twelve points, each one (configuration, workload) pair.

The study demonstrates the subsystem's three guarantees:

1. **Trace reuse** -- the grid has 12 points but only 4 distinct workloads,
   so exactly 4 traces are generated (a :class:`~repro.sweeps.TraceCache`
   hook counts them).
2. **Checkpointed resume** -- every completed point lands in the study
   directory's ``points.jsonl``; re-running the same spec executes nothing
   and reproduces the same records from the manifest.
3. **Structured results** -- every point emits a long-form record (point id
   + axis values + every result field) into ``results.json``/``results.csv``
   next to a markdown report, ready for dashboards.

Run with::

    python examples/sweep_study.py [num_requests]
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

from repro.api import ScaleSpec, Scenario, SystemSpec, WorkloadSpec
from repro.sweeps import SweepAxis, SweepSpec, TraceCache, run_sweep, sweep_status

GAPS = (10.0, 20.0, 40.0, 80.0)
SYSTEMS = ("LMesh/ECM", "HMesh/ECM", "XBar/OCM")


def build_spec(num_requests: int) -> SweepSpec:
    return SweepSpec(
        name="load-vs-interconnect",
        description=(
            "Uniform offered load (mean inter-miss gap) x interconnect: "
            "where do the electrical meshes saturate?"
        ),
        base=Scenario(
            system=SystemSpec(configurations=(SYSTEMS[0],)),
            workloads=(
                WorkloadSpec(name="Uniform", num_requests=num_requests),
            ),
            scale=ScaleSpec(tier="quick", seed=1),
        ),
        axes=(
            SweepAxis(
                name="gap",
                path="workloads[0].params.mean_gap_cycles",
                values=GAPS,
            ),
            SweepAxis(  # zipped: the label travels with the gap value
                name="load",
                path="workloads[0].params.name",
                values=tuple(f"Uniform g={gap:g}" for gap in GAPS),
                zip_with="gap",
            ),
            SweepAxis(
                name="configuration",
                path="system.configurations",
                values=tuple([name] for name in SYSTEMS),
            ),
        ),
    )


def main() -> None:
    num_requests = int(sys.argv[1]) if len(sys.argv) > 1 else 4_000
    with tempfile.TemporaryDirectory(prefix="corona-sweep-") as directory:
        study(build_spec(num_requests), num_requests, Path(directory))


def study(spec: SweepSpec, num_requests: int, directory: Path) -> None:
    print("Sweep study: offered load x interconnect")
    print("=" * 64)
    print(
        f"{len(GAPS)} gaps x {len(SYSTEMS)} systems = "
        f"{len(GAPS) * len(SYSTEMS)} points, {num_requests:,} requests each"
    )

    generated = []
    cache = TraceCache(on_generate=lambda key, packed: generated.append(key))
    outcome = run_sweep(spec, directory=directory, trace_cache=cache)
    print(
        f"\n{len(outcome.records)} records; {len(generated)} traces "
        f"generated for {len(outcome.points)} points (shared-workload reuse)\n"
    )

    width = max(len(record.point_id) for record in outcome.records) + 2
    header = (
        f"{'point':<{width}}{'gap':>6}{'system':>11}{'bw (TB/s)':>11}"
        f"{'latency (ns)':>14}"
    )
    print(header)
    print("-" * len(header))
    for record in outcome.records:
        result = record.result
        print(
            f"{record.point_id:<{width}}{record.axis_values['gap']:>6g}"
            f"{result.configuration:>11}"
            f"{result.achieved_bandwidth_tbps:>11.3f}"
            f"{result.average_latency_ns:>14.1f}"
        )

    by_key = {
        (record.axis_values["gap"], record.result.configuration): record.result
        for record in outcome.records
    }
    heavy = GAPS[0]
    baseline = by_key[(heavy, SYSTEMS[0])]
    corona = by_key[(heavy, SYSTEMS[-1])]
    print(
        f"\nAt the heaviest load (gap {heavy:g}): Corona sustains "
        f"{corona.achieved_bandwidth_tbps / baseline.achieved_bandwidth_tbps:.1f}x "
        f"the baseline's bandwidth at "
        f"{baseline.average_latency_ns / corona.average_latency_ns:.1f}x "
        f"lower miss latency."
    )

    # Resume: same spec + same directory = nothing re-executed.
    resumed = run_sweep(spec, directory=directory)
    status = sweep_status(directory)
    print(
        f"\nResume check: {len(resumed.skipped_point_ids)} points skipped, "
        f"{len(resumed.executed_point_ids)} executed "
        f"({len(status.completed_ids)}/{status.total} complete in the "
        f"manifest)."
    )
    assert [r.result for r in resumed.records] == [
        r.result for r in outcome.records
    ]
    # The study directory is removed on exit, so name the files within it.
    for kind in ("report", "json", "csv"):
        print(f"{kind:>7}: {outcome.written[kind].relative_to(directory)}")


if __name__ == "__main__":
    main()
