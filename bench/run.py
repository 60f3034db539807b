"""qllab benchmark: run one workload and print its metrics.

Usage, from the repository root:
    python3 bench/run.py --workload ensemble --seed 1 --seconds 36 --trace 0

One process runs a closed loop, one op at a time, through the public entry
point `qllab.cli.main`.  Ops come in sweeps of a fixed size; every op has
its own seed, derived from --seed, and its configs are written before its
timed window starts.  Outputs are checked after the timed window.  A run
makes as many sweeps as take --seconds on the reference host (see
`workloads.SWEEP_SECONDS`), so the ops it attempts do not depend on how
fast the host happens to be.  The set-up probes, each a fresh interpreter,
are spread over the run between sweeps.  Time metrics are scaled to the
reference host speed by a kernel timed between sweeps (see `HostSpeed`).

The last line of stdout is the result object.  With --trace 0 it holds the
end-to-end metrics; with --trace 1 the run times the same ops twice, first
untraced and then traced, and holds the per-layer metrics.  The line before
it holds the details: environment, per-op output digests, failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

if __name__ == "__main__":
    # One BLAS thread in this process and every process it starts, which
    # main() also pins to one CPU: ops, set-up probes and the reference
    # kernel then all run on the same core and meet the same host phases.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"

import numpy  # noqa: E402

import checks  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
TIME_CAP = 2.5
# Median seconds of one calibrate.py kernel run per workload, timed between
# sweeps on the reference host when this benchmark was defined.  Time
# metrics are reported at that host speed.
REFERENCE_KERNEL_S = {"ensemble": 0.059, "sync": 0.0171, "blocks": 0.0253}
# Kernel runs in each gap between sweeps; the median over the two gaps
# around a sweep sets its scale.
KERNEL_RUNS = 3


class OpRecord:
    """Timing and verdict of one op."""

    def __init__(self, op: wl.Op, latency: float, results):
        self.index = op.index
        self.latency = latency
        self.problems = checks.check_op(op, results)
        self.digest = checks.op_digest(op, results)
        self.errors = [
            f"{tag}: exit {code}: {err.strip().splitlines()[-1] if err.strip() else ''}"
            for (tag, _, _, _), (code, _, err) in zip(op.invocations, results)
            if code != 0
        ]
        self.failed = bool(self.problems or self.errors)


def run_op(cli, workload, seed, index, work, tracer=None) -> OpRecord:
    """Write the op's configs, time its invocations, then check its outputs."""
    directory = os.path.join(work, f"op{index}")
    op = wl.Op(workload, seed, index, directory)
    if tracer is not None:
        tracer.begin_op()
    start = time.perf_counter()
    results = op.run(cli)
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    record = OpRecord(op, latency, results)
    shutil.rmtree(directory)
    return record


def run_sweeps(cli, workload, seed, seconds, work, before_sweep=None) -> tuple:
    """The run's whole sweeps; returns (sweeps, cut_short).

    The sweep count is `wl.sweep_count(workload, seconds)`.  A run that has
    taken TIME_CAP times `seconds` stops after its current sweep and is
    reported as cut short, so a much slower program still exits in time.
    """
    sweeps = []
    count = wl.sweep_count(workload, seconds)
    start = time.perf_counter()
    for s in range(count):
        if before_sweep is not None:
            before_sweep(s)
        first = s * wl.SWEEP_OPS
        sweeps.append(
            [run_op(cli, workload, seed, i, work) for i in range(first, first + wl.SWEEP_OPS)]
        )
        if time.perf_counter() - start > TIME_CAP * seconds:
            break
    return sweeps, len(sweeps) < count


class HostSpeed:
    """The calibrate.py helper process, which times a reference kernel.

    The shared host this benchmark runs on changes speed by up to 1.6x in
    phases lasting from seconds to minutes.  The kernel is timed in the gap
    before each sweep and after the last one, while no op runs, and
    `scale(s)` converts the times of sweep s to the reference host speed.
    """

    def __init__(self, workload):
        self.workload = workload
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "calibrate.py"), workload],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.gaps = []

    def __enter__(self):
        self.time_kernel(1)  # the first run pays BLAS start-up; not kept
        self.gaps.clear()
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def time_kernel(self, runs=KERNEL_RUNS) -> None:
        """Time the kernel `runs` times in a new gap."""
        gap = []
        for _ in range(runs):
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            gap.append(float(self.proc.stdout.readline()))
        self.gaps.append(gap)

    def scale(self, s) -> float:
        """Reference kernel time over its median in the gaps around sweep s."""
        return REFERENCE_KERNEL_S[self.workload] / statistics.median(
            self.gaps[s] + self.gaps[s + 1]
        )


def time_metrics(sweeps, setup, scales) -> dict:
    """wall_s, op_p50_ms, op_tail_ms and setup_s, each (value, unit).

    Latencies of sweep s and the set-up probes run before it are multiplied
    by scales[s].
    """
    scaled = [[r.latency * k for r in sweep] for sweep, k in zip(sweeps, scales)]
    latencies = sorted(x for sweep in scaled for x in sweep)
    _, rank = wl.tail_percentile(len(latencies))
    return {
        "wall_s": (statistics.median(sum(sweep) for sweep in scaled), "s"),
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1000 * latencies[rank - 1], "ms"),
        "setup_s": (statistics.median(t * scales[s] for s, t in setup), "s"),
    }


def setup_probe(workload, seed, work) -> float:
    """Import plus warm-up op, timed in a fresh interpreter."""
    directory = os.path.join(work, "probe")
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "setup_probe.py"), workload, str(seed), directory],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    shutil.rmtree(directory)
    return float(proc.stdout.split()[-1])


def git_commit():
    """Commit of the checkout read from .git, or None outside a repository."""
    git = os.path.join(os.getcwd(), ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except (FileNotFoundError, NotADirectoryError):
        return None
    return None


def environment() -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {
        name: os.environ[name]
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if name in os.environ
    }
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or "library default",
        "git_commit": git_commit(),
    }


def import_cli():
    """qllab.cli from the checkout's src/, never from an installed copy."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "qllab", "cli.py")):
        sys.exit("bench: src/qllab/cli.py not found; run from the repository root")
    sys.path.insert(0, src)
    from qllab import cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"bench: imported qllab from {cli.__file__}, not from {src}")
    return cli


def summarize(records) -> dict:
    failed = sum(r.failed for r in records)
    return {
        "ops": len(records),
        "failed_ops": failed,
        "error_rate": failed / len(records),
        "failures": [f"op {r.index}: {e}" for r in records for e in r.errors][:24],
        "problems": [f"op {r.index}: {p}" for r in records for p in r.problems][:24],
        "digests": [r.digest for r in records],
    }


def untraced_pass(cli, args, work) -> tuple:
    """The end-to-end metrics, details and op records of one untraced run."""
    # Probe k runs before sweep k * count // SETUP_PROBES, so the probes
    # sample the whole run, as the op latencies do.
    count = wl.sweep_count(args.workload, args.seconds)
    probe_sweeps = [k * count // SETUP_PROBES for k in range(SETUP_PROBES)]
    setup = []

    with HostSpeed(args.workload) as speed:

        def before_sweep(s):
            speed.time_kernel()
            for _ in range(probe_sweeps.count(s)):
                setup.append((s, setup_probe(args.workload, args.seed, work)))

        sweeps, cut_short = run_sweeps(
            cli, args.workload, args.seed, args.seconds, work, before_sweep
        )
        speed.time_kernel()
    records = [r for sweep in sweeps for r in sweep]
    pct, rank = wl.tail_percentile(len(records))
    failed = sum(r.failed for r in records)
    scales = [speed.scale(s) for s in range(len(sweeps))]
    measured = time_metrics(sweeps, setup, [1.0] * len(sweeps))
    metrics = {
        **{
            name: {"value": value, "unit": unit}
            for name, (value, unit) in time_metrics(sweeps, setup, scales).items()
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB",
        },
        "success_rate": {"value": 1 - failed / len(records), "unit": "ratio"},
    }
    detail = {
        "sweeps": len(sweeps),
        "cut_short": cut_short,
        "op_tail_percentile": pct,
        "op_tail_ops_beyond": len(records) - rank,
        "setup_probes_s": [t for _, t in setup],
        "measured": {name: value for name, (value, _) in measured.items()},
        "host_scales": scales,
        "host_kernel_s": speed.gaps,
    }
    return metrics, detail, records


def traced_pass(cli, args, work) -> tuple:
    """Whole sweeps untraced for half the run, then the same ops traced.

    Returns the per-layer metrics, details and the traced op records.
    """
    sweeps, cut_short = run_sweeps(cli, args.workload, args.seed, args.seconds / 2, work)
    untraced = [r for sweep in sweeps for r in sweep]
    with Tracer() as tracer:
        traced = [run_op(cli, args.workload, args.seed, r.index, work, tracer) for r in untraced]
    ratio = sum(r.latency for r in traced) / sum(r.latency for r in untraced)
    detail = {
        "sweeps": len(sweeps),
        "cut_short": cut_short,
        "absent_entries": tracer.absent,
        "ambiguous_op_share": sum(a > 0 for a in tracer.op_ambiguous) / len(traced),
        "traced_digest_mismatches": [
            r.index for r, t in zip(untraced, traced) if r.digest != t.digest
        ],
    }
    return tracer.metrics(len(traced), ratio), detail, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cli = import_cli()
    work = os.path.join(BENCH, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        warmup = run_op(cli, args.workload, args.seed, wl.WARMUP_INDEX, work)
        metrics, detail, records = (traced_pass if args.trace else untraced_pass)(cli, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    summary = summarize(records)
    correct = not (
        summary["problems"] or warmup.problems or detail.get("traced_digest_mismatches")
    )
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        sweep_ops=wl.SWEEP_OPS,
        env=environment(),
        **summary,
    )
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": summary["ops"],
                "failed": summary["failed_ops"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
