"""Workloads of the qllab benchmark: the CLI invocations of one op.

An op is one sweep point, a fixed group of `qllab` CLI invocations.  Every
config is generated here from the workload seed and the op index, so the
library only ever sees the generated inputs.  Sizes are fixed within a
workload; only the seeds vary.

This module imports no part of `qllab`: the set-up probe imports it before
it starts timing the library import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

WORKLOADS = ("ensemble", "sync", "blocks")

# Ops per sweep.  Twelve is one full cycle of the witness strengths times
# preparations and two cycles of the six Bloch rows on `blocks`, so every
# sweep of that workload covers the same parameter grid.
SWEEP_OPS = 12

# Seconds one sweep takes on the reference host (one core of a shared Xeon,
# one OpenBLAS thread) in its common slow phase; quiet phases are up to
# 1.6x faster.  A run makes round(seconds / SWEEP_SECONDS) sweeps, so the
# ops a run attempts, and which of them fail, depend only on the workload,
# the seed and --seconds, never on the speed of the host.
SWEEP_SECONDS = {"ensemble": 3.5, "sync": 2.5, "blocks": 3.4}

WITNESS_STRENGTHS = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
WITNESS_PREPARATIONS = ("plus", "minus")
# (red, blue, conn) bias tokens of the Bloch-axis rows x+, x-, y+, y-, z+, z-.
BLOCH_ROWS = (
    ("+1", "+1", "+1"),
    ("-1", "-1", "+1"),
    ("+1", "+1", "i"),
    ("-1", "-1", "i"),
    ("+1", "+1", "0"),
    ("-1", "-1", "0"),
)

WARMUP_INDEX = -1

# Sizes of each experiment; the output checks read them back from here.
SPECTRUM_N, SPECTRUM_D, SPECTRUM_REALIZATIONS = 512, 6, 2
SWEEP_N, SWEEP_D = 256, 6
SYNC_BLOCK_N, SYNC_D = 36, 6
QLBIT_N, QLBIT_D, QLBIT_REALIZATIONS, QLBIT_CROSS = 80, 6, 2, 1
CONTRACTED_N, CONTRACTED_D, CONTRACTED_Q, CONTRACTED_CROSS = 40, 6, 3, 1
WITNESS_N, WITNESS_D, WITNESS_TRIALS = 30, 6, 2
CHEEGER_N, CHEEGER_D = 16, 4


def op_seed(workload: str, seed: int, index: int) -> int:
    """Seed of one op: a 31-bit hash of the workload seed and op index."""
    digest = hashlib.sha256(f"{workload}/{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def _cross_regular_bit(n, d, cross=1):
    return {"n": n, "d": d, "policy": {"kind": "cross_regular", "degree": cross}}


def witness_setting(index: int):
    """(strength, preparation) of the witness run in `blocks` op `index`."""
    strength = WITNESS_STRENGTHS[index % len(WITNESS_STRENGTHS)]
    preparation = WITNESS_PREPARATIONS[(index // len(WITNESS_STRENGTHS)) % 2]
    return strength, preparation


def bloch_row(index: int):
    """Bloch row of the `qlbit` run in `blocks` op `index`, or None."""
    if index % 2 == 0:
        return None
    return BLOCH_ROWS[(index // 2) % len(BLOCH_ROWS)]


def op_configs(workload: str, seed: int, index: int) -> list:
    """The (tag, config document) pairs of one op, in invocation order."""
    s = op_seed(workload, seed, index)

    def doc(experiment, params):
        return {"experiment": experiment, "seed": s, "params": params}

    if workload == "ensemble":
        return [
            (
                "spectrum",
                doc(
                    "spectrum",
                    {
                        "graph": {
                            "kind": "d_regular_random",
                            "n": SPECTRUM_N,
                            "d": SPECTRUM_D,
                        },
                        "disorder_sigma": 0.2,
                        "realizations": SPECTRUM_REALIZATIONS,
                    },
                ),
            ),
            (
                "disorder-sweep",
                doc(
                    "disorder-sweep",
                    {
                        "n": SWEEP_N,
                        "d": SWEEP_D,
                        "retentions": [1.0, 0.7, 0.4],
                        "realizations": 2,
                    },
                ),
            ),
        ]
    if workload == "sync":
        bit = _cross_regular_bit(SYNC_BLOCK_N, SYNC_D)
        return [
            (
                "kuramoto",
                doc(
                    "kuramoto",
                    {
                        "product": {"qlbits": [bit, bit], "mode": "contracted"},
                        "K": 4.0,
                        "t_end": 10.0,
                        "record_every": 25,
                    },
                ),
            )
        ]
    if workload == "blocks":
        qlbit = {"n": QLBIT_N, "d": QLBIT_D, "realizations": QLBIT_REALIZATIONS}
        row = bloch_row(index)
        if row is not None:
            red, blue, conn = row
            qlbit["table_row"] = {"red": red, "blue": blue, "conn": conn}
            qlbit["cross_degree"] = QLBIT_CROSS
        contracted = _cross_regular_bit(CONTRACTED_N, CONTRACTED_D, CONTRACTED_CROSS)
        witness_bit = _cross_regular_bit(WITNESS_N, WITNESS_D)
        strength, preparation = witness_setting(index)
        return [
            ("qlbit", doc("qlbit", qlbit)),
            (
                "product-contracted",
                doc(
                    "product",
                    {
                        "product": {
                            "qlbits": [contracted] * CONTRACTED_Q,
                            "mode": "contracted",
                        },
                        "verify": True,
                    },
                ),
            ),
            (
                "product-full",
                doc(
                    "product",
                    {
                        "product": {
                            "qlbits": [{"n": 12, "d": 4}, {"n": 12, "d": 4}],
                            "mode": "full",
                        },
                        "verify": True,
                    },
                ),
            ),
            (
                "witness",
                doc(
                    "witness",
                    {
                        "product": {
                            "qlbits": [witness_bit, witness_bit],
                            "mode": "contracted",
                        },
                        "bit_index": 0,
                        "strength": strength,
                        "preparation": preparation,
                        "trials": WITNESS_TRIALS,
                    },
                ),
            ),
            (
                "cheeger",
                doc(
                    "cheeger",
                    {
                        "graph": {
                            "kind": "d_regular_random",
                            "n": CHEEGER_N,
                            "d": CHEEGER_D,
                        }
                    },
                ),
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def config_bytes(config: dict) -> bytes:
    """Canonical file contents of one config document."""
    return (json.dumps(config, indent=1, sort_keys=True) + "\n").encode()


class Op:
    """One op with its config files written under `directory`."""

    def __init__(self, workload, seed, index, directory):
        self.index = index
        self.invocations = []
        for tag, config in op_configs(workload, seed, index):
            path = os.path.join(directory, f"{tag}.json")
            out = os.path.join(directory, tag)
            os.makedirs(out, exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(config_bytes(config))
            argv = [path, "--out", out, "--seed", str(config["seed"])]
            self.invocations.append((tag, config, argv, out))

    def run(self, cli) -> list:
        """Invoke every CLI run of the op in order; (exit code, stdout, stderr) each.

        Every invocation runs even when an earlier one fails, so failed and
        passing ops do the same work.  An exception escaping `cli.main` is
        recorded as the invocation's failure, not raised.
        """
        results = []
        for _, _, argv, _ in self.invocations:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # noqa: BLE001 - an op failure, not a crash
                    code = f"{type(exc).__name__}: {exc}"
            results.append((code, out.getvalue(), err.getvalue()))
        return results


def sweep_count(workload: str, seconds: float) -> int:
    """Sweeps of a run of `seconds` on the reference host; at least one."""
    return max(1, round(seconds / SWEEP_SECONDS[workload]))


def tail_percentile(count: int):
    """Highest whole percentile with at least ten ops beyond it, and its rank.

    Returns (percentile, 1-based nearest rank).  With fewer than eleven ops
    no percentile qualifies and the maximum (rank = count) is used.
    """
    if count < 11:
        return 100, count
    pct = 100 * (count - 10) // count
    return pct, max(1, -(-pct * count // 100))
