"""Tests of the benchmark's own machinery: seeding, tracer, output checks."""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

from qllab import cli  # noqa: E402


def sweep_bytes(workload, seed):
    return [
        wl.config_bytes(config)
        for index in range(wl.SWEEP_OPS)
        for _, config in wl.op_configs(workload, seed, index)
    ]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_configs_other_seed_other_configs(workload):
    assert sweep_bytes(workload, 7) == sweep_bytes(workload, 7)
    assert sweep_bytes(workload, 7) != sweep_bytes(workload, 8)


def test_same_seed_same_outcomes_traced_or_not(tmp_path):
    # Ops 0 and 1 of `blocks` run the witness at the two weakest strengths,
    # where readouts are ambiguous for many seeds.
    first = [run.run_op(cli, "blocks", 5, i, str(tmp_path)) for i in (0, 1)]
    with tracing.Tracer() as tracer:
        again = [run.run_op(cli, "blocks", 5, i, str(tmp_path), tracer) for i in (0, 1)]
    assert [r.failed for r in first] == [r.failed for r in again]
    assert [r.digest for r in first] == [r.digest for r in again]
    assert all(not r.problems for r in first + again)
    assert [a > 0 for a in tracer.op_ambiguous] == [
        any("witness" in e for e in r.errors) for r in first
    ]


def test_tracer_leaves_no_unwrapped_original_bound():
    with tracing.Tracer() as tracer:
        patched = list(tracer.patched)
        originals = [orig for owner, _, orig in patched if not isinstance(owner, type)]
        assert not tracer.absent
        for module in tracing.qllab_modules():
            for name, value in vars(module).items():
                assert not any(value is orig for orig in originals), (
                    f"{module.__name__}.{name} is still the unwrapped original"
                )
        for owner, name, original in patched:
            if isinstance(owner, type):
                assert vars(owner)[name] is not original
        cli.main([str(BENCH / "tests" / "missing.json")])  # exits 2, still traced
        assert tracer.totals["cli.parse.calls"] == 1
    for owner, name, original in patched:
        assert vars(owner)[name] is original


def test_deleted_entry_point_is_reported_absent():
    entries = tracing.ENTRIES + (
        ("kuramoto.gone", "qllab.kuramoto", "no_such_function"),
        ("graph.gone", "qllab.graph", "BiasedGraph.no_such_method"),
        ("gone.module", "qllab.no_such_module", "anything"),
    )
    with tracing.Tracer(entries) as tracer:
        metrics = tracer.metrics(ops=1, overhead_ratio=1.0)
    assert tracer.absent == [
        "qllab.kuramoto.no_such_function",
        "qllab.graph.BiasedGraph.no_such_method",
        "qllab.no_such_module.anything",
    ]
    assert set(metrics) == {name for name, _ in tracing.METRICS}


def test_benchmark_imports_no_private_qllab_name():
    for path in sorted(BENCH.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
                names = []
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
                names = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                if module.split(".")[0] != "qllab":
                    continue
                private = [p for p in module.split(".") + names if p.startswith("_")]
                assert not private, f"{path.name} imports private {private} from {module}"
    for _, module, attr in tracing.ENTRIES:
        assert not any(p.startswith("_") for p in (module + "." + attr).split("."))


def test_tail_percentile_leaves_ten_ops_beyond():
    assert wl.tail_percentile(100) == (90, 90)
    assert wl.tail_percentile(95) == (89, 85)
    assert wl.tail_percentile(11) == (9, 1)
    assert wl.tail_percentile(5) == (100, 5)


def test_contraction_law_check_catches_wrong_multiplicity(tmp_path):
    config = wl.op_configs("blocks", 1, 0)[1][1]
    values = [9, 7, 7, 7, 5, 5, 3, 3] + [0.5] * 312
    (tmp_path / "product_spectrum.csv").write_text(
        "# generated=x\nindex,eigenvalue\n"
        + "".join(f"{i},{v}\n" for i, v in enumerate(values))
    )
    problems = checks.check_product(str(tmp_path), config, "contraction law OK\n")
    assert problems == [
        "eigenvalue 5 has multiplicity 2, expected 3",
        "eigenvalue 3 has multiplicity 2, expected 1",
    ]


def test_benchmark_json_lists_the_traced_metrics_and_workloads():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(tracing.METRICS)
    assert [w["name"] for w in doc["workloads"]] == list(wl.WORKLOADS)


def test_run_makes_a_fixed_sweep_count(tmp_path):
    class Instant:
        """A CLI whose every invocation returns at once, writing nothing."""

        main = staticmethod(lambda argv: 0)

    sweeps, cut_short = run.run_sweeps(Instant, "sync", 1, 5.0, str(tmp_path))
    assert len(sweeps) == wl.sweep_count("sync", 5.0) == 2
    assert not cut_short
    assert wl.sweep_count("ensemble", 0.1) == 1


def test_time_metrics_scale_each_sweep_and_the_probes_before_it():
    # The host runs at half speed during sweep 1; scaled, both sweeps agree.
    fast = [SimpleNamespace(latency=0.1)] * wl.SWEEP_OPS
    slow = [SimpleNamespace(latency=0.2)] * wl.SWEEP_OPS
    metrics = run.time_metrics([fast, slow], [(0, 0.3), (1, 0.6)], [2.0, 1.0])
    assert metrics["wall_s"] == (pytest.approx(0.2 * wl.SWEEP_OPS), "s")
    assert metrics["op_p50_ms"] == (pytest.approx(200.0), "ms")
    assert metrics["op_tail_ms"] == (pytest.approx(200.0), "ms")
    assert metrics["setup_s"] == (pytest.approx(0.6), "s")


def test_host_speed_helper_answers_and_ends():
    with run.HostSpeed("sync") as speed:
        speed.time_kernel()
        speed.time_kernel()
        assert [len(gap) for gap in speed.gaps] == [run.KERNEL_RUNS] * 2
        assert speed.scale(0) > 0
    assert speed.proc.returncode == 0
