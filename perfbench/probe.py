"""Time one workload's set-up in a fresh interpreter (``setup_s``).

Usage: ``python3 perfbench/probe.py --workload NAME --seed N [--tiny]``.
Prints the seconds from interpreter start-up to a constructed simulator or
scenario (imports, trace generation and construction), then the wall
seconds of three calibration kernels (calibrate.py).  ``run.py`` starts this
several times per run and reports the median normalized set-up time.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from calibrate import KERNELS_PER_GAP, kernel_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        WORKLOADS[args.workload].setup(args.seed, args.tiny, Path(scratch))
        setup_s = time.perf_counter() - STARTED
    print(setup_s, *(kernel_seconds()[0] for _ in range(KERNELS_PER_GAP)))


if __name__ == "__main__":
    main()
