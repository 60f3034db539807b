"""Time one fresh-process set-up of a workload.

Usage, from the repository root:
    python3 bench/setup_probe.py <workload> <seed> <directory>

Writes the workload's warm-up op configs under <directory>, then times
`import qllab.cli` plus that op and prints the seconds on stdout.
"""

from __future__ import annotations

import os
import sys
import time

import workloads as wl


def main(workload: str, seed: str, directory: str) -> None:
    op = wl.Op(workload, int(seed), wl.WARMUP_INDEX, directory)
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    start = time.perf_counter()
    from qllab import cli

    op.run(cli)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main(*sys.argv[1:])
