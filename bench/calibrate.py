"""Host-speed reference of the qllab benchmark.

Usage, as a helper process of bench/run.py:
    python3 bench/calibrate.py <workload>

Each line read from stdin runs the workload's reference kernel once and
answers with its seconds on stdout; end of input ends the process.

A kernel uses no part of qllab.  It does the kind of work the workload's
ops spend their time in, in about the same mix, so a phase of the shared
host that slows the ops slows the kernel alike: a pure-Python loop plus
the dense eigensolves of the workload's sizes.  It runs in a process of
its own, so nothing the library does to interpreter or BLAS state can
change its speed, and it is idle while an op runs.
"""

from __future__ import annotations

import sys
import time

import numpy as np

_rng = np.random.default_rng(0)
_COMPLEX_144 = _rng.standard_normal((144, 144)) + 1j * _rng.standard_normal((144, 144))
_COMPLEX_144 = _COMPLEX_144 + _COMPLEX_144.conj().T
_REAL_256 = _rng.standard_normal((256, 256))
_REAL_256 = _REAL_256 + _REAL_256.T
_REAL_512 = _rng.standard_normal((512, 512))
_REAL_512 = _REAL_512 + _REAL_512.T

# Per workload: (pure-Python loop iterations, matrices to diagonalize).
# `ensemble` ops are dominated by n=512 and n=256 eigensolves, `sync` ops
# by Python-level integration and n=144 complex eigensolves, `blocks` ops
# by Python-level graph construction and small eigensolves.
KERNELS = {
    "ensemble": (20_000, (_REAL_512,)),
    "sync": (100_000, (_COMPLEX_144,)),
    "blocks": (100_000, (_COMPLEX_144, _REAL_256)),
}


def kernel(workload: str) -> float:
    """Seconds of one run of the workload's reference work."""
    loops, matrices = KERNELS[workload]
    start = time.perf_counter()
    total = 0
    for i in range(loops):
        total += i * i
    for matrix in matrices:
        np.linalg.eigh(matrix)
    return time.perf_counter() - start


def main(workload: str) -> None:
    for _ in sys.stdin:
        print(kernel(workload), flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
