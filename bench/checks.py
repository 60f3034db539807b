"""Output checks and digests of one op, run outside the timed window.

Every check is an exact law of the construction, so none depends on the
seed.  A check returns a list of problems; an empty list means the outputs
are right.  CSV values carry 12 significant digits, which sets the
tolerances below.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import workloads as wl

TOL = 1e-9


def read_csv(path) -> list:
    """Rows of a qllab CSV as dicts; the '# generated=' comment line is skipped."""
    with open(path) as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _floats(rows, key) -> list:
    return [float(row[key]) for row in rows]


def check_spectrum(out, config) -> list:
    params = config["params"]
    n = params["graph"]["n"]
    values = _floats(read_csv(os.path.join(out, "spectrum.csv")), "eigenvalue")
    counts = [int(r["count"]) for r in read_csv(os.path.join(out, "histogram.csv"))]
    problems = []
    if len(values) != n:
        problems.append(f"spectrum has {len(values)} eigenvalues, expected n={n}")
    if any(b > a for a, b in zip(values, values[1:])):
        problems.append("spectrum is not in non-increasing order")
    if sum(counts) != params["realizations"] * n:
        problems.append(f"histogram total {sum(counts)} != realizations*n")
    return problems


def check_disorder_sweep(out, config) -> list:
    d = config["params"]["d"]
    problems = []
    for row in read_csv(os.path.join(out, "disorder_sweep.csv")):
        retention, purity = float(row["retention"]), float(row["purity"])
        top = float(row["mean_top_eigenvalue"])
        if retention == 1.0 and abs(top - d) > TOL * d:
            problems.append(f"mean top eigenvalue {top} != d={d} at retention 1")
        if not 0.0 < purity <= 1.0 + TOL:
            problems.append(f"purity {purity} outside (0, 1] at retention {retention}")
    return problems


def check_kuramoto(out, config) -> list:
    rows = read_csv(os.path.join(out, "kuramoto.csv"))
    if not rows:
        return ["kuramoto.csv has no records"]
    tops = _floats(rows, "eigenvalue_top")
    problems = []
    if max(tops) - min(tops) > TOL * max(1.0, abs(tops[0])):
        problems.append(f"eigenvalue_top drifts by {max(tops) - min(tops):.3g}")
    if any(not -TOL <= r <= 1.0 + TOL for r in _floats(rows, "order_parameter")):
        problems.append("order_parameter outside [0, 1]")
    return problems


def check_qlbit(out, config) -> list:
    params = config["params"]
    rows = read_csv(os.path.join(out, "qlbit.csv"))
    problems = []
    if len(rows) != params["realizations"]:
        problems.append(f"{len(rows)} qlbit rows, expected {params['realizations']}")
    row_doc = params.get("table_row")
    # A Bloch row keeps the graph d-regular; a zero connecting bias removes
    # the cross edges and leaves two (d - cross_degree)-regular blocks.
    if row_doc is not None:
        degree = params["d"] if row_doc["conn"] != "0" else params["d"] - params["cross_degree"]
        sign = 1.0 if row_doc["red"] == "+1" else -1.0
    for row in rows:
        a = math.hypot(float(row["alpha_re"]), float(row["alpha_im"]))
        b = math.hypot(float(row["beta_re"]), float(row["beta_im"]))
        norm = a * a + b * b + float(row["residual"]) ** 2
        if abs(norm - 1.0) > TOL:
            problems.append(f"|alpha|^2+|beta|^2+residual^2 = {norm!r}")
        if row_doc is not None and abs(float(row["eigenvalue"]) - sign * degree) > TOL * degree:
            problems.append(f"Bloch row eigenvalue {row['eigenvalue']} != {sign * degree}")
    return problems


def check_product(out, config, stdout) -> list:
    spec = config["params"]["product"]
    problems = []
    if spec["mode"] == "contracted":
        if "contraction law OK" not in stdout:
            problems.append("contraction verify did not print OK")
        # Cross-regular contracted products keep the block indicators
        # invariant: eigenvalue d + c(q - 2k) with multiplicity C(q, k).
        bit = spec["qlbits"][0]
        d, c, q = bit["d"], bit["policy"]["degree"], len(spec["qlbits"])
        values = _floats(read_csv(os.path.join(out, "product_spectrum.csv")), "eigenvalue")
        for k in range(q + 1):
            target = d + c * (q - 2 * k)
            found = sum(abs(v - target) <= TOL * (d + c * q) for v in values)
            if found != math.comb(q, k):
                problems.append(
                    f"eigenvalue {target} has multiplicity {found}, expected {math.comb(q, k)}"
                )
    elif "spectrum composition OK" not in stdout:
        problems.append("composition verify did not print OK")
    return problems


def check_witness(out, config) -> list:
    params = config["params"]
    expected = "same" if params["preparation"] == "plus" else "inverted"
    rows = read_csv(os.path.join(out, "witness.csv"))
    with open(os.path.join(out, "witness_summary.json")) as fh:
        summary = json.load(fh)
    problems = []
    if len(rows) != params["trials"]:
        problems.append(f"{len(rows)} witness rows, expected {params['trials']}")
    for row in rows:
        if row["readout"] not in ("same", "inverted"):
            problems.append(f"unknown readout {row['readout']!r}")
        if (row["agrees"] == "true") != (row["readout"] == expected):
            problems.append("agrees column contradicts readout")
    agreement = sum(row["agrees"] == "true" for row in rows) / max(1, len(rows))
    if abs(summary["agreement"] - agreement) > TOL:
        problems.append("summary agreement contradicts witness.csv")
    return problems


def check_cheeger(out, config) -> list:
    problems = []
    for row in read_csv(os.path.join(out, "cheeger.csv")):
        h, lower, upper = float(row["h"]), float(row["lower"]), float(row["upper"])
        if not lower - TOL <= h <= upper + TOL:
            problems.append(f"Cheeger sandwich broken: {lower} <= {h} <= {upper}")
    return problems


_CHECKS = {
    "spectrum": check_spectrum,
    "disorder-sweep": check_disorder_sweep,
    "kuramoto": check_kuramoto,
    "qlbit": check_qlbit,
    "witness": check_witness,
    "cheeger": check_cheeger,
}


def check_op(op: wl.Op, results) -> list:
    """Problems with the outputs of every invocation of `op` that exited 0.

    A non-zero exit is an op failure, not an output problem; it is counted
    by the caller.
    """
    problems = []
    for (tag, config, _, out), (code, stdout, _) in zip(op.invocations, results):
        if code != 0:
            continue
        experiment = config["experiment"]
        try:
            if experiment == "product":
                found = check_product(out, config, stdout)
            else:
                found = _CHECKS[experiment](out, config)
        except (OSError, KeyError, ValueError) as exc:
            found = [f"unreadable output: {type(exc).__name__}: {exc}"]
        problems += [f"{tag}: {p}" for p in found]
    return problems


def op_digest(op: wl.Op, results) -> str:
    """SHA-256 prefix over exit codes, CSV bodies and JSON artifacts of `op`.

    The '# generated=' line of each CSV and the run record manifest.json
    are left out, so equal outputs give equal digests across runs.
    """
    h = hashlib.sha256()
    for (tag, _, _, out), (code, _, _) in zip(op.invocations, results):
        h.update(f"{tag}:{code}\n".encode())
        for name in sorted(os.listdir(out)):
            if name == "manifest.json" or not name.endswith((".csv", ".json")):
                continue
            with open(os.path.join(out, name), "rb") as fh:
                lines = fh.read().splitlines(keepends=True)
            h.update(name.encode() + b"\n")
            h.update(b"".join(x for x in lines if not x.startswith(b"# generated=")))
    return h.hexdigest()[:16]
