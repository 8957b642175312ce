#!/usr/bin/env python3
"""Reproduce the paper's full evaluation: Tables 1-4 and Figures 8-11.

Runs the complete 5-configuration x 17-workload matrix at a configurable
scale through ``repro.api.run`` and prints its markdown report: every table
and figure as text, and the Section 5 geometric-mean summary next to the
paper's numbers.

Run with::

    python examples/reproduce_paper.py                 # quick scale
    python examples/reproduce_paper.py --scale full    # overnight scale
    python examples/reproduce_paper.py --requests 40000
"""

from __future__ import annotations

import argparse
import sys

from repro.api import SCALE_TIERS, ScaleSpec, Scenario, WorkloadSpec, run
from repro.trace.synthetic import synthetic_workloads


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale", choices=("quick", "default", "full"), default="quick",
        help="how far to scale the paper's request counts down",
    )
    parser.add_argument(
        "--requests", type=int, default=None,
        help="override: requests per synthetic workload",
    )
    parser.add_argument(
        "--skip-splash", action="store_true", help="only run the synthetic workloads"
    )
    return parser.parse_args(argv)


def choose_scale(args: argparse.Namespace) -> ScaleSpec:
    if args.requests is None:
        return ScaleSpec(tier=args.scale)
    tier = SCALE_TIERS[args.scale]
    return ScaleSpec(
        tier=args.scale,
        synthetic_requests=args.requests,
        splash_min_requests=min(args.requests, tier.splash_min_requests),
        splash_max_requests=max(args.requests, tier.splash_min_requests),
    )


def main(argv=None) -> None:
    args = parse_args(argv if argv is not None else sys.argv[1:])
    workloads = ()
    if args.skip_splash:
        workloads = tuple(
            WorkloadSpec(name=workload.name) for workload in synthetic_workloads()
        )
    scenario = Scenario(
        name="reproduce-paper", workloads=workloads, scale=choose_scale(args)
    )

    result = run(scenario, jobs=1, progress=print)
    print()
    print(result.to_markdown())
    print(f"\nTotal simulated requests: "
          f"{sum(r.num_requests for r in result.results):,}; "
          f"wall clock: {result.report.wall_clock_seconds:.1f} s")


if __name__ == "__main__":
    main()
