import ast
import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qllab.cheeger
import qllab.cli
import qllab.graph
import qllab.kuramoto
import qllab.qlbit
import qllab.qlproduct
import qllab.spectral
import qllab.witness
from qllab.cli import cmd_product, cmd_qlbit, main, parse_product
from qllab.graph import BiasedGraph, GraphGenSpec, build_graph, derive_seed, project_blocks
from qllab.qlbit import (
    BLOCH_PROJECTIONS,
    BLOCH_TARGETS,
    BiasTopology,
    QLBitSpec,
    apply_bias_topology,
    bias_from_token,
    build_qlbit,
    build_regular_qlbit,
    project_two_state,
)
from qllab.qlproduct import build_product, full_product_factors, label_adjacency, verify_spectrum_composition
from qllab.spectral import (
    DEGENERACY_TOL,
    eigendecompose,
    eigenvalues,
    emergent_state,
    extreme_state,
    quotient,
    quotient_states,
    top_pair,
)


def read_rows(path):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_spectrum_solves_each_realization_once(tmp_path, monkeypatch):
    solved, full = [], []

    def counting(g):
        solved.append(g.n)
        return eigenvalues(g)

    def counting_full(g):
        full.append(g.n)
        return eigendecompose(g)

    # the histogram must not solve again through the spectral module's name,
    # and nothing in `spectrum` reads an eigenvector
    for module in (qllab.cli, qllab.spectral):
        monkeypatch.setattr(module, "eigenvalues", counting)
        monkeypatch.setattr(module, "eigendecompose", counting_full)
    params = {"graph": {"kind": "d_regular_random", "n": 20, "d": 3}, "realizations": 3, "bins": 8}
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps({"experiment": "spectrum", "params": params}))
    out = tmp_path / "out"
    assert main([str(path), "--out", str(out), "--seed", "5"]) == 0
    assert solved == [20, 20, 20]
    assert full == []
    assert len(read_rows(out / "spectrum.csv")) == 20
    assert sum(int(row["count"]) for row in read_rows(out / "histogram.csv")) == 3 * 20


def run_config(tmp_path, doc, *extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return main([str(path), "--out", str(tmp_path / "out"), *extra])


QLBIT = {"experiment": "qlbit", "params": {"n": 10, "d": 3}}
WITNESS_PRODUCT = {"qlbits": [{"n": 8, "d": 3}, {"n": 8, "d": 3}]}
SPECTRUM_GRAPH = {"kind": "d_regular_random", "n": 10, "d": 3}
QLBIT_ROW = {**QLBIT["params"], "table_row": {"red": "+1", "blue": "+1", "conn": "+1"}}
KURAMOTO = {"product": WITNESS_PRODUCT, "K": 1.0, "t_end": 0.1}
WITNESS = {"product": WITNESS_PRODUCT, "bit_index": 0, "strength": 1.0}


CROSS_BIT = {"n": 8, "d": 3, "policy": {"kind": "cross_regular", "degree": 1}}
CROSS_PRODUCT = {"qlbits": [CROSS_BIT, {**CROSS_BIT, "connect_bias": "i"}], "mode": "contracted"}

# case: (experiment, params, solver calls at seed 5).  `spectrum` and
# `cheeger` read eigenvalues alone; the three readers of the emergent state
# solve its top pair alone, and so does a +1-bias budget bit, whose level a
# Cholesky proves simple; a Bloch-row or cross-regular bit reads its level
# off the block quotient and proves it the same way, with no solve; an
# equitable contracted product reads its QL states off the quotient and
# needs only the spectrum to rank them; the full eigensystem is left to the
# graphs whose block partition is not equitable (budget policies here).
ROUTES = {
    "spectrum": ("spectrum", {"graph": SPECTRUM_GRAPH, "realizations": 2}, {"eigenvalues": 2}),
    "disorder-sweep": (
        "disorder-sweep",
        {"n": 12, "d": 3, "retentions": [1.0, 0.5], "realizations": 2},
        {"top_pair": 4},
    ),
    "kuramoto": ("kuramoto", {**KURAMOTO, "realizations": 2}, {"top_pair": 2}),
    "witness": ("witness", WITNESS, {"top_pair": 1}),
    "qlbit": ("qlbit", QLBIT["params"], {"top_pair": 1}),
    "qlbit-table-row": ("qlbit", QLBIT_ROW, {}),
    "qlbit-cross-regular": ("qlbit", CROSS_BIT, {}),
    "product": ("product", {"product": WITNESS_PRODUCT}, {"eigendecompose": 1}),
    "product-cross-regular": ("product", {"product": CROSS_PRODUCT, "verify": True}, {"eigenvalues": 1}),
    "cheeger": ("cheeger", {"graph": {"kind": "cycle", "n": 6}}, {"eigenvalues": 1}),
}


def count_solves(monkeypatch):
    """{solver name: calls} of the three spectral solvers, filled in as they
    run from here on."""
    calls = {}
    for name in ("eigendecompose", "eigenvalues", "top_pair"):
        solver = getattr(qllab.spectral, name)

        def counting(g, name=name, solver=solver):
            calls[name] = calls.get(name, 0) + 1
            return solver(g)

        # every module that binds the name, so a fallback inside `top_pair`
        # is counted as well
        for module in (qllab.cli, qllab.spectral, qllab.kuramoto, qllab.witness, qllab.qlproduct, qllab.cheeger):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("case", sorted(ROUTES))
def test_each_experiment_uses_the_least_solver(tmp_path, monkeypatch, case):
    calls = count_solves(monkeypatch)
    experiment, params, expected = ROUTES[case]
    assert run_config(tmp_path, {"experiment": experiment, "params": params}, "--seed", "5") == 0
    assert calls == expected


Z_ROW = {**QLBIT["params"], "table_row": {"red": "+1", "blue": "+1", "conn": "0"}}


@pytest.mark.parametrize(
    "experiment, params, expected",
    [
        ("qlbit", QLBIT["params"], {"cholesky": 1}),  # a budget bit: the top pair and one proof
        ("qlbit", QLBIT_ROW, {"cholesky": 1}),  # the x+ row: its quotient and one proof
        ("qlbit", Z_ROW, {}),  # a level H_eff holds twice is degenerate with no proof
        ("product", {"product": CROSS_PRODUCT}, {"eigvalsh": 1}),  # the spectrum ranks every QL state
    ],
)
def test_a_proved_qlbit_level_solves_no_eigenvalue(tmp_path, monkeypatch, experiment, params, expected):
    calls = {}
    for name in ("eigvalsh", "cholesky"):
        kernel = getattr(np.linalg, name)

        def counting(a, name=name, kernel=kernel):
            calls[name] = calls.get(name, 0) + 1
            return kernel(a)

        monkeypatch.setattr(np.linalg, name, counting)
    assert run_config(tmp_path, {"experiment": experiment, "params": params}, "--seed", "5") == 0
    assert calls == expected


def _with(experiment, params, key, value):
    """An `experiment` config whose params carry `value` at `key`."""
    return {"experiment": experiment, "params": {**params, key: value}}


def _policy(kind, key):
    return _with("qlbit", QLBIT["params"], "policy", {"kind": kind, key: "x"})


# non-numeric values: (config, the key path the error must name)
NON_NUMERIC = [
    (_with("qlbit", QLBIT["params"], "n", "ten"), "params.n"),
    (_with("qlbit", QLBIT["params"], "d", None), "params.d"),
    (_with("qlbit", QLBIT["params"], "realizations", 1.5), "params.realizations"),
    (_with("qlbit", QLBIT["params"], "red_bias", "red"), "params.red_bias"),
    (_with("qlbit", QLBIT["params"], "blue_bias", [1]), "params.blue_bias"),
    (_policy("pair_probability", "p"), "params.policy.p"),
    (_policy("budget", "fraction"), "params.policy.fraction"),
    (_policy("cross_regular", "degree"), "params.policy.degree"),
    (_with("qlbit", QLBIT_ROW, "cross_degree", "one"), "params.cross_degree"),
    (_with("spectrum", {"graph": {**SPECTRUM_GRAPH, "seed": "s"}}, "bins", 4), "params.graph.seed"),
    (_with("spectrum", {"graph": {**SPECTRUM_GRAPH, "d": "three"}}, "bins", 4), "params.graph.d"),
    (_with("spectrum", {"graph": SPECTRUM_GRAPH}, "bins", "many"), "params.bins"),
    (_with("spectrum", {"graph": SPECTRUM_GRAPH}, "product_depth", "2x"), "params.product_depth"),
    (_with("spectrum", {"graph": SPECTRUM_GRAPH}, "disorder_sigma", "s"), "params.disorder_sigma"),
    (_with("disorder-sweep", {"n": 10, "d": 3}, "retentions", [1.0, "half"]), "params.retentions[1]"),
    (_with("product", {"product": {**WITNESS_PRODUCT, "seed": "s"}}, "verify", False), "params.product.seed"),
    (_with("product", {"product": WITNESS_PRODUCT}, "emergent_states", "all"), "params.emergent_states"),
    (_with("witness", WITNESS, "bit_index", "first"), "params.bit_index"),
    (_with("witness", WITNESS, "strength", "strong"), "params.strength"),
    (_with("witness", WITNESS, "density", "dense"), "params.density"),
    (_with("kuramoto", KURAMOTO, "K", "one"), "params.K"),
    (_with("kuramoto", KURAMOTO, "t_end", "end"), "params.t_end"),
    (_with("kuramoto", KURAMOTO, "init_width", "wide"), "params.init_width"),
    (_with("kuramoto", KURAMOTO, "record_every", "often"), "params.record_every"),
    (_with("kuramoto", KURAMOTO, "dt", "small"), "params.dt"),
]

BUDGET_5_BIT = {"n": 6, "d": 3, "policy": {"kind": "budget", "fraction": 5}}  # 90 edges, 36 pairs
SEEDED_BIT_PRODUCT = {"qlbits": [{"n": 8, "d": 3, "seed": 77}, {"n": 8, "d": 3}]}
BIT_SEED_KEY = "unknown key params.product.qlbits[0].seed"

# values out of range, unknown names, and keys the experiment would ignore:
# (test id, config, the key path the error must name)
REJECTED = [
    ("bins-zero", _with("spectrum", {"graph": SPECTRUM_GRAPH}, "bins", 0), "params.bins"),
    ("record-every-zero", _with("kuramoto", KURAMOTO, "record_every", 0), "params.record_every"),
    ("record-every-negative", _with("kuramoto", KURAMOTO, "record_every", -2), "params.record_every"),
    ("negative-density", _with("witness", WITNESS, "density", -0.1), "params.density"),
    ("negative-strength", _with("witness", WITNESS, "strength", -1.0), "params.strength"),
    (
        "negative-disorder-sigma",
        _with("spectrum", {"graph": SPECTRUM_GRAPH}, "disorder_sigma", -0.5),
        "params.disorder_sigma",
    ),
    ("unknown-graph-kind", _with("spectrum", {"graph": {"kind": "star", "n": 5}}, "bins", 4), "params.graph.kind"),
    # numbers that are not finite: json.dumps writes inf as Infinity, which
    # json.load reads back as the literal 1e309 is read
    ("sigma-eps-inf", _with("kuramoto", KURAMOTO, "sigma_eps", float("inf")), "params.sigma_eps"),
    ("sigma-eps-nan", _with("kuramoto", KURAMOTO, "sigma_eps", float("nan")), "params.sigma_eps"),
    ("K-nan", _with("kuramoto", KURAMOTO, "K", float("nan")), "params.K"),
    ("dt-inf-string", _with("kuramoto", KURAMOTO, "dt", "inf"), "params.dt"),
    ("K-beyond-float", _with("kuramoto", KURAMOTO, "K", 10**400), "params.K"),
    ("init-width-nan-string", _with("kuramoto", KURAMOTO, "init_width", "NaN"), "params.init_width"),
    # JSON booleans are no numbers, though int(True) is 1 and float(False) 0.0
    ("realizations-true", _with("qlbit", QLBIT["params"], "realizations", True), "params.realizations"),
    ("n-true", _with("qlbit", QLBIT["params"], "n", True), "params.n"),
    ("K-false", _with("kuramoto", KURAMOTO, "K", False), "params.K"),
    ("connect-bias-true", _with("qlbit", QLBIT["params"], "connect_bias", True), "params.connect_bias"),
    ("table-row-conn-false", _with("qlbit", QLBIT["params"], "table_row", {"red": "+1", "blue": "+1", "conn": False}), "params.table_row.conn"),
    (
        "unknown-product-mode",
        _with("product", {"product": {**WITNESS_PRODUCT, "mode": "half"}}, "verify", False),
        "params.product.mode",
    ),
    # RK4 and uniform initial phases are the only Kuramoto behaviour, so
    # their old keys are rejected even at their old defaults
    ("unknown-integrator", _with("kuramoto", KURAMOTO, "integrator", "rk4"), "unknown key params.integrator"),
    ("unknown-init", _with("kuramoto", KURAMOTO, "init", "uniform_phases"), "unknown key params.init"),
    ("negative-sigma-eps", _with("kuramoto", KURAMOTO, "sigma_eps", -0.5), "params.sigma_eps"),
    ("negative-uniform-init-width", _with("kuramoto", KURAMOTO, "init_width", -1.0), "params.init_width"),
    ("unknown-bias-token", _with("qlbit", QLBIT["params"], "table_row", {"red": "+1", "blue": "+1", "conn": "2"}), "params.table_row"),
    ("table-row-red-i", _with("qlbit", QLBIT["params"], "table_row", {"red": "i", "blue": "+1", "conn": "+1"}), "params.table_row.red"),
    ("row-with-policy", _with("qlbit", QLBIT_ROW, "policy", {"kind": "cross_regular", "degree": 1}), "params.policy"),
    ("row-with-connect-bias", _with("qlbit", QLBIT_ROW, "connect_bias", "-1"), "params.connect_bias"),
    ("row-with-red-bias", _with("qlbit", QLBIT_ROW, "red_bias", -1), "params.red_bias"),
    ("row-with-blue-bias", _with("qlbit", QLBIT_ROW, "blue_bias", -1), "params.blue_bias"),
    ("cross-degree-without-row", _with("qlbit", QLBIT["params"], "cross_degree", 2), "params.cross_degree"),
    # a bit is seeded from its product's seed, so no bit takes a seed
    ("qlbit-seed", _with("qlbit", QLBIT["params"], "seed", 4), "unknown key params.seed"),
    ("product-bit-seed", _with("product", {"product": SEEDED_BIT_PRODUCT}, "verify", False), BIT_SEED_KEY),
    ("kuramoto-bit-seed", _with("kuramoto", KURAMOTO, "product", SEEDED_BIT_PRODUCT), BIT_SEED_KEY),
    ("witness-bit-seed", _with("witness", WITNESS, "product", SEEDED_BIT_PRODUCT), BIT_SEED_KEY),
    # preparation sets the witness target bit's connect_bias
    (
        "witness-target-connect-bias",
        _with("witness", WITNESS, "product", {"qlbits": [{"n": 8, "d": 3, "connect_bias": "-1"}, {"n": 8, "d": 3}]}),
        "unknown key params.product.qlbits[0].connect_bias",
    ),
    # names that are not strings, looked up in a dict
    ("policy-kind-not-a-name", _with("qlbit", QLBIT["params"], "policy", {"kind": ["budget"]}), "params.policy.kind"),
    ("experiment-not-a-name", {"experiment": ["qlbit"], "params": QLBIT["params"]}, "experiment"),
    ("out-not-a-string", {**QLBIT, "out": 5}, "out must be a string"),
    # sizes no graph can have, checked when the config is read
    ("row-cross-degree-at-d", _with("qlbit", QLBIT_ROW, "cross_degree", 3), "params.cross_degree"),
    ("qlbit-d-at-n", _with("qlbit", QLBIT["params"], "d", 10), "params.d"),
    ("sweep-d-above-n", _with("disorder-sweep", {"n": 10, "retentions": [1.0]}, "d", 12), "params.d"),
    ("graph-d-above-n", _with("spectrum", {"graph": {**SPECTRUM_GRAPH, "d": 12}}, "bins", 4), "params.graph.d"),
    ("graph-d-missing", _with("spectrum", {"graph": {"kind": "d_regular_random", "n": 10}}, "bins", 4), "params.graph.d"),
    # a contracted product's blocks are its bits' blocks: one shape, stated by each bit
    (
        "product-bits-differ-in-d",
        _with("product", {"product": {"qlbits": [{"n": 8, "d": 3}, {"n": 8, "d": 4}]}}, "verify", False),
        "params.product.qlbits[1].d",
    ),
    ("product-n", _with("product", {"product": {**WITNESS_PRODUCT, "n": 8}}, "verify", False), "unknown key params.product.n"),
    ("verify-string", _with("product", {"product": WITNESS_PRODUCT}, "verify", "no"), "params.verify"),
    ("verify-integer", _with("product", {"product": WITNESS_PRODUCT}, "verify", 1), "params.verify"),
    ("bit-index-out-of-range", _with("witness", WITNESS, "bit_index", 2), "params.bit_index"),
    # two config errors that CI's console-script step used to run
    (
        "full-product-verify-string",
        {"experiment": "product", "params": {"product": {"mode": "full", "qlbits": [{"n": 3, "d": 2}]}, "verify": "no"}},
        "params.verify",
    ),
    (
        "sweep-retention-above-1",
        {"experiment": "disorder-sweep", "params": {"n": 12, "d": 3, "retentions": [1.0, 0.5, 0.4, 2.0]}},
        "params.retentions",
    ),
    ("short-cycle", _with("cheeger", {}, "graph", {"kind": "cycle", "n": 2}), "params.graph.n"),
    ("cross-regular-above-block", _with("qlbit", QLBIT["params"], "policy", {"kind": "cross_regular", "degree": 11}), "params.policy.degree"),
    ("pair-probability-above-1", _with("qlbit", QLBIT["params"], "policy", {"kind": "pair_probability", "p": 2}), "params.policy.p"),
    ("negative-budget", _with("qlbit", QLBIT["params"], "policy", {"kind": "budget", "fraction": -1}), "params.policy.fraction"),
    ("family-not-a-list", _with("cheeger", {}, "family", 5), "params.family"),
    ("single-vertex-graph", _with("cheeger", {}, "graph", {"kind": "complete", "n": 1}), "params.graph.n"),
    (
        "single-vertex-family-member",
        _with("cheeger", {}, "family", [{"kind": "cycle", "n": 6}, {"kind": "complete", "n": 1}]),
        "params.family[1].n",
    ),
    # a connection policy that cannot fit the blocks it would be sampled on
    ("budget-above-cross-pairs", _with("qlbit", BUDGET_5_BIT, "realizations", 1), "params.policy.fraction"),
    # a bit's policy is an object with a kind, in `qlbit` as in a product
    ("policy-empty", _with("qlbit", QLBIT["params"], "policy", {}), "params.policy.kind"),
    ("policy-null", _with("qlbit", QLBIT["params"], "policy", None), "params.policy must be an object"),
    (
        "product-policy-null",
        _with("product", {"product": {"qlbits": [{"n": 8, "d": 3, "policy": None}]}}, "verify", False),
        "params.product.qlbits[0].policy must be an object",
    ),
    (
        "product-budget-above-cross-pairs",
        _with("product", {"product": {"qlbits": [BUDGET_5_BIT]}}, "verify", False),
        "params.product.qlbits[0].policy.fraction",
    ),
    # a graph or a policy reads only the keys of its kind
    ("cycle-d", _with("cheeger", {}, "graph", {"kind": "cycle", "n": 6, "d": 2}), "params.graph.d: a cycle graph takes no d"),
    ("complete-d", _with("cheeger", {}, "graph", {"kind": "complete", "n": 4, "d": 3}), "params.graph.d: a complete graph takes no d"),
    (
        "two-lift-n",
        _with("spectrum", {"graph": {"kind": "two_lift", "base": SPECTRUM_GRAPH, "n": 20}}, "bins", 4),
        "params.graph.n: a two_lift graph takes no n",
    ),
    (
        "two-lift-d",
        _with("spectrum", {"graph": {"kind": "two_lift", "base": SPECTRUM_GRAPH, "d": 3}}, "bins", 4),
        "params.graph.d: a two_lift graph takes no d",
    ),
    (
        "d-regular-base",
        _with("spectrum", {"graph": {**SPECTRUM_GRAPH, "base": {"kind": "cycle", "n": 5}}}, "bins", 4),
        "params.graph.base: a d_regular_random graph takes no base",
    ),
    (
        "budget-p",
        _with("qlbit", QLBIT["params"], "policy", {"kind": "budget", "fraction": 0.2, "p": 0.9}),
        "unknown key params.policy.p",
    ),
    (
        "cross-regular-fraction",
        _with("qlbit", QLBIT["params"], "policy", {"kind": "cross_regular", "degree": 1, "fraction": 0.2}),
        "unknown key params.policy.fraction",
    ),
]


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"experiment": "qlbit", "params": {"n": 10, "d": 3, "realizations": 0}}, "params.realizations"),
        (
            {
                "experiment": "witness",
                "params": {"product": WITNESS_PRODUCT, "bit_index": 0, "strength": 1.0, "trials": 0},
            },
            "params.trials",
        ),
        (
            {
                "experiment": "disorder-sweep",
                "params": {"n": 10, "d": 3, "retentions": [1.0], "realizations": 0},
            },
            "params.realizations",
        ),
        ({**QLBIT, "seed": "seventeen"}, "seed"),
        (_with("product", {"product": WITNESS_PRODUCT}, "emergent_states", -1), "params.emergent_states"),
        *NON_NUMERIC,
        *[(doc, key) for _, doc, key in REJECTED],
    ],
    ids=["qlbit-realizations", "witness-trials", "sweep-realizations", "seed", "negative-emergent-states"]
    + [key.replace("[", "-").rstrip("]") for _, key in NON_NUMERIC]
    + [tag for tag, _, _ in REJECTED],
)
def test_bad_config_value_exits_2(tmp_path, capsys, monkeypatch, doc, key):
    # each config is rejected before any graph is solved
    calls = count_solves(monkeypatch)
    assert run_config(tmp_path, doc) == 2
    assert key in capsys.readouterr().err
    out = tmp_path / "out"
    assert not out.exists() or not any(out.iterdir())
    assert calls == {}


def test_bad_config_seed_exits_2_under_a_seed_flag(tmp_path, capsys):
    # the config's seed is read, and rejected, though --seed overrides it
    assert run_config(tmp_path, {**QLBIT, "seed": "x"}, "--seed", "3") == 2
    assert "seed must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bad_config_out_exits_2_without_an_out_flag(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**QLBIT, "out": 5}))
    assert main([str(path)]) == 2
    assert "out must be a string" in capsys.readouterr().err


def test_unconnected_table_row_bit_writes_its_rows(tmp_path):
    # a z row: the config CI's console-script step used to run
    params = {"n": 12, "d": 4, "realizations": 2, "table_row": {"red": "+1", "blue": "+1", "conn": "0"}}
    assert run_config(tmp_path, {"experiment": "qlbit", "params": params}) == 0
    assert len(read_rows(tmp_path / "out" / "qlbit.csv")) == 2


@contextlib.contextmanager
def closed_stdout(tmp_path, monkeypatch):
    """Make stdout a pipe whose reader is gone, as after `qllab cfg.json |
    head -1`, unbuffered, so every print raises; yields its descriptor."""
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return fd

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    try:
        yield fd
    finally:
        os.close(fd)


def test_closed_stdout_exits_0_with_the_outputs_written(tmp_path, monkeypatch):
    doc = {"experiment": "cheeger", "params": {"graph": {"kind": "cycle", "n": 6}}}
    with closed_stdout(tmp_path, monkeypatch) as fd:
        assert run_config(tmp_path, doc) == 0
        # stdout now writes to devnull, so the flush at exit cannot fail
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["outputs"] == ["cheeger.csv"]


@pytest.mark.parametrize("mode", ["full", "contracted"])
def test_closed_stdout_before_the_verified_line_still_writes_the_manifest(tmp_path, monkeypatch, mode):
    # a verified product prints its "... OK" line before run writes
    # manifest.json
    bits = [{"n": 3, "d": 2}, {"n": 4, "d": 2}] if mode == "full" else [CROSS_BIT, CROSS_BIT]
    doc = {"experiment": "product", "params": {"product": {"mode": mode, "qlbits": bits}, "verify": True}}
    with closed_stdout(tmp_path, monkeypatch) as fd:
        assert run_config(tmp_path, doc) == 0
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["outputs"] == ["product_spectrum.csv", "effective_states.json"]


def test_non_integer_env_seed_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QLLAB_SEED", "1.5")
    assert run_config(tmp_path, QLBIT) == 2
    assert "QLLAB_SEED" in capsys.readouterr().err


def test_jobs_option_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exit_info:
        run_config(tmp_path, QLBIT, "--jobs", "2")
    assert exit_info.value.code == 2


def test_full_product_verify_checks_every_bit_without_resolving(tmp_path, capsys, monkeypatch):
    solved = []

    def counting(g):
        solved.append(g.n)
        return eigendecompose(g)

    monkeypatch.setattr(qllab.cli, "eigendecompose", counting)
    monkeypatch.setattr(qllab.qlproduct, "eigendecompose", counting)
    bits = [{"n": 4, "d": 2}] * 3
    doc = {"experiment": "product", "params": {"product": {"qlbits": bits, "mode": "full"}, "verify": True}}
    assert run_config(tmp_path, doc, "--seed", "3") == 0
    assert "spectrum composition OK" in capsys.readouterr().out
    # each bit solved once; the 512-vertex product is composed, never solved
    assert solved == [8, 8, 8]


def test_full_product_forms_no_n_by_n_array(tmp_path):
    # three 12-vertex bits: N = 1,728, so one N x N float64 array is 23.9 MB
    n = 12 ** 3
    bits = [{"n": 6, "d": 3}] * 3
    doc = {"experiment": "product", "params": {"product": {"qlbits": bits, "mode": "full"}}}
    tracemalloc.start()
    try:
        assert run_config(tmp_path, doc) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * 8 / 4
    assert len(read_rows(tmp_path / "out" / "product_spectrum.csv")) == n
    assert len(json.loads((tmp_path / "out" / "effective_states.json").read_text())) == 8


@pytest.mark.parametrize("timing", [{"dt": 1e-300}, {"K": 1e300}], ids=["explicit-dt", "default-dt"])
def test_a_kuramoto_step_count_that_cannot_be_counted_exits_3(tmp_path, capsys, timing):
    doc = {"experiment": "kuramoto", "params": {**KURAMOTO, "t_end": 1.0, **timing}}
    assert run_config(tmp_path, doc, "--seed", "3") == 3
    err = capsys.readouterr().err
    assert err.startswith("error: dt ") and err.count("\n") == 1
    assert not any((tmp_path / "out").iterdir())


def test_full_product_that_is_not_cartesian_exits_3(tmp_path, capsys, monkeypatch):
    cartesian_product = qllab.qlproduct.cartesian_product

    def dropped_edge(g, h):
        p = cartesian_product(g, h)
        return replace(p, edges=p.edges[1:], bias=p.bias[1:])

    monkeypatch.setattr(qllab.qlproduct, "cartesian_product", dropped_edge)
    bits = [{"n": 4, "d": 2}] * 2
    doc = {"experiment": "product", "params": {"product": {"qlbits": bits, "mode": "full"}}}
    assert run_config(tmp_path, doc, "--seed", "3") == 3
    assert "residual" in capsys.readouterr().err
    assert not any((tmp_path / "out").iterdir())


def test_disorder_sweep_checks_every_retention_before_solving(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(g):
        calls.append(g.n)
        return top_pair(g)

    monkeypatch.setattr(qllab.cli, "top_pair", counting)
    params = {"n": 12, "d": 3, "retentions": [1.0, 0.5, 0.4, 2.0], "realizations": 2}
    assert run_config(tmp_path, {"experiment": "disorder-sweep", "params": params}) == 2
    assert "params.retentions" in capsys.readouterr().err
    assert calls == []
    assert not any((tmp_path / "out").iterdir())


SYNC_BIT = {"n": 36, "d": 6, "policy": {"kind": "cross_regular", "degree": 1}}


@pytest.mark.parametrize(
    "experiment, params, solves",
    [
        ("disorder-sweep", {"n": 256, "d": 6, "retentions": [1.0, 0.7, 0.4], "realizations": 2}, 6),
        ("kuramoto", {"product": {"qlbits": [SYNC_BIT, SYNC_BIT], "mode": "contracted"},
                      "K": 4.0, "t_end": 0.1, "realizations": 2}, 2),
    ],
    ids=["disorder-sweep", "sync-product"],
)
@pytest.mark.parametrize("seed", [1, 2])
def test_sparse_nonnegative_graphs_prove_their_top_without_cholesky(
    tmp_path, monkeypatch, experiment, params, solves, seed
):
    # the scaled Gershgorin bound at the Ritz vector proves these tops in
    # O(m): regular graphs at y = 1, thinned ones at their Perron vector
    solved, cholesky = [], []
    pair = qllab.spectral.top_pair

    def counting(g):
        solved.append(g.n)
        return pair(g)

    monkeypatch.setattr(qllab.cli, "top_pair", counting)
    monkeypatch.setattr(qllab.kuramoto, "top_pair", counting)
    monkeypatch.setattr(qllab.spectral, "_all_below", lambda a, bound: cholesky.append(len(a)))
    monkeypatch.setattr(qllab.spectral, "eigendecompose", None)  # no fallback
    assert run_config(tmp_path, {"experiment": experiment, "params": params}, "--seed", str(seed)) == 0
    assert len(solved) == solves
    assert cholesky == []


def _moved_cross_edge(g):
    """g with its first cross edge (u, v) moved to (u, w), w the first other
    vertex of v's block not joined to u: every degree but v's and w's keeps."""
    side = g.block_of[g.edges]
    k = int(np.flatnonzero(side[:, 0] != side[:, 1])[0])
    u, v = g.edges[k]
    joined = set(g.edges[g.edges[:, 0] == u, 1]) | set(g.edges[g.edges[:, 1] == u, 0])
    w = next(x for x in np.flatnonzero(g.block_of == g.block_of[v]) if x != v and x not in joined)
    edges = g.edges.copy()
    edges[k] = (u, w)
    return BiasedGraph.from_edges(g.n, edges, g.bias, g.diagonal, g.blocks, g.block_of)


def _flipped_cross_orientation(g):
    """g with the cross edges of its second bit oriented value 2 -> value 1:
    still equitable, but with conj(connect_bias) in the quotient."""
    side = g.block_of[g.edges]
    second = (side[:, 0] ^ side[:, 1]) == 2
    return replace(g, bias=np.where(second, g.bias.conj(), g.bias))


@pytest.mark.parametrize("tamper", [_moved_cross_edge, _flipped_cross_orientation])
def test_contracted_verify_catches_a_tampered_product(tmp_path, capsys, monkeypatch, tamper):
    build = qllab.qlproduct.build_contracted_product
    built = []

    def build_tampered(spec):
        built.append(tamper(build(spec)))
        return built[-1]

    monkeypatch.setattr(qllab.qlproduct, "build_contracted_product", build_tampered)
    doc = {"experiment": "product", "params": {"product": CROSS_PRODUCT, "verify": True}}
    assert run_config(tmp_path, doc, "--seed", "3") == 3
    assert "contraction law check failed" in capsys.readouterr().err
    assert not any((tmp_path / "out").iterdir())
    # the label pairs alone, the check of a product left to chance, still pass
    assert len(label_adjacency(built[0])) == 2 * 2


BUDGET_BIT = {"n": 10, "d": 3, "policy": {"kind": "budget", "fraction": 0.2}}
# a product whose policies leave the partition to chance, one bit unconnected
HALF_JOINED_PRODUCT = {"qlbits": [BUDGET_BIT, {**BUDGET_BIT, "connect_bias": "0"}], "mode": "contracted"}


def test_contracted_verify_expects_no_pairs_along_an_unconnected_bit(tmp_path, capsys):
    doc = {"experiment": "product", "params": {"product": HALF_JOINED_PRODUCT, "verify": True}}
    assert run_config(tmp_path, doc, "--seed", "3") == 0
    assert "contraction law OK" in capsys.readouterr().out


def test_contracted_verify_catches_the_right_number_of_wrong_label_pairs(tmp_path, capsys, monkeypatch):
    build = qllab.qlproduct.build_contracted_product

    def swapped_labels(spec):
        # a2b1 and a2b2 trade names: four joined pairs, two of them diagonals
        g = build(spec)
        return replace(g, blocks=tuple(g.blocks[k] for k in (0, 3, 2, 1)))

    monkeypatch.setattr(qllab.qlproduct, "build_contracted_product", swapped_labels)
    product = {"qlbits": [BUDGET_BIT, BUDGET_BIT], "mode": "contracted"}
    # every contracted product is checked against its law; verify only prints the OK line
    for verify in (True, False):
        doc = {"experiment": "product", "params": {"product": product, "verify": verify}}
        assert run_config(tmp_path, doc, "--seed", "3") == 3
        assert "wrong label pairs" in capsys.readouterr().err


def test_equitable_product_reports_ranked_quotient_states(tmp_path, capsys):
    bits = [CROSS_BIT] * 3
    doc = {"experiment": "product", "params": {"product": {"qlbits": bits, "mode": "contracted"}, "verify": True}}
    assert run_config(tmp_path, doc, "--seed", "3") == 0
    assert "contraction law OK" in capsys.readouterr().out
    states = json.loads((tmp_path / "out" / "effective_states.json").read_text())
    # d + c(q - 2k) with multiplicity C(q, k): 6, 4 (x3), 2 (x3), 0
    assert [round(s["eigenvalue"], 9) for s in states] == [6, 4, 4, 4, 2, 2, 2, 0]
    values = [float(row["eigenvalue"]) for row in read_rows(tmp_path / "out" / "product_spectrum.csv")]
    for s in states:
        assert set(s) == {"eigenvalue", "labels", "coefficients", "residual", "rank", "gap", "degenerate"}
        assert abs(values[s["rank"]] - s["eigenvalue"]) <= 1e-9
        assert s["residual"] == 0.0 and s["gap"] > 0 and s["degenerate"] is False
    # a budget-policy product keeps the dense route and its four fields
    doc["params"] = {"product": WITNESS_PRODUCT}
    assert run_config(tmp_path, doc, "--seed", "3") == 0
    for s in json.loads((tmp_path / "out" / "effective_states.json").read_text()):
        assert set(s) == {"eigenvalue", "labels", "coefficients", "residual"}


_TOKENS = {1: "+1", -1: "-1", 1j: "i", 0: "0"}


@pytest.mark.parametrize("name", sorted(BLOCH_PROJECTIONS))
def test_bloch_rows_report_one_canonical_state_on_every_realization(tmp_path, name):
    row = BLOCH_PROJECTIONS[name]
    table_row = {"red": _TOKENS[row.red], "blue": _TOKENS[row.blue], "conn": _TOKENS[row.conn]}
    params = {"n": 16, "d": 6, "realizations": 3, "table_row": table_row}
    assert run_config(tmp_path, {"experiment": "qlbit", "params": params}, "--seed", "5") == 0
    rows = read_rows(tmp_path / "out" / "qlbit.csv")
    sign, target = BLOCH_TARGETS[name]
    # the same bytes on every realization: no sign flips, no arbitrary member of a level
    assert len({tuple(r[k] for k in r if k not in ("realization", "residual")) for r in rows}) == 1
    first = rows[0]
    alpha = complex(float(first["alpha_re"]), float(first["alpha_im"]))
    beta = complex(float(first["beta_re"]), float(first["beta_im"]))
    assert abs(alpha - target[0]) <= 1e-12 and abs(beta - target[1]) <= 1e-12
    assert float(first["eigenvalue"]) == sign * (6 if name[0] != "z" else 5)
    # a z row's level is 2-fold, |a1> its first canonical member: flagged as
    # a tie, as the dense path flags one
    assert first["degenerate"] == ("true" if name[0] == "z" else "false")


def test_equitable_bit_without_a_table_row_reports_the_canonical_state(tmp_path):
    # unconnected cross edges leave two tied d-regular blocks: the canonical
    # member |a1> on every realization, not LAPACK's choice of member
    params = {"n": 16, "d": 4, "connect_bias": "0", "realizations": 3}
    assert run_config(tmp_path, {"experiment": "qlbit", "params": params}, "--seed", "5") == 0
    rows = read_rows(tmp_path / "out" / "qlbit.csv")
    assert len(rows) == 3
    for row in rows:
        alpha = complex(float(row["alpha_re"]), float(row["alpha_im"]))
        beta = complex(float(row["beta_re"]), float(row["beta_im"]))
        assert (alpha, beta, float(row["residual"]), row["degenerate"]) == (1, 0, 0.0, "true")


def test_negative_bias_bit_reports_its_bottom_level(tmp_path):
    # -1 block biases split the QL level off the bottom of the spectrum; a
    # budget bit is not equitable and takes the dense path, which must pick
    # that level, not the bulk top near 5
    params = {"n": 40, "d": 6, "red_bias": -1, "blue_bias": -1, "realizations": 3}
    assert run_config(tmp_path, {"experiment": "qlbit", "params": params}, "--seed", "5") == 0
    rows = read_rows(tmp_path / "out" / "qlbit.csv")
    assert len(rows) == 3
    for row in rows:
        assert float(row["eigenvalue"]) < -6 and float(row["residual"]) < 0.5
        # the quotient path's phase on every row: the larger amplitude is
        # real and positive
        alpha = complex(float(row["alpha_re"]), float(row["alpha_im"]))
        beta = complex(float(row["beta_re"]), float(row["beta_im"]))
        larger = alpha if abs(alpha) >= abs(beta) else beta
        assert larger.imag == 0 and larger.real > 0


def _spectrum_of(tmp_path, params):
    assert run_config(tmp_path, {"experiment": "spectrum", "params": params}) == 0
    return np.array([float(row["eigenvalue"]) for row in read_rows(tmp_path / "out" / "spectrum.csv")])


def test_product_depth_spectrum_is_the_kronecker_sum_of_its_factors(tmp_path):
    spec = GraphGenSpec("d_regular_random", n=8, d=3, seed=4)
    values = _spectrum_of(tmp_path, {"graph": {"kind": "d_regular_random", "n": 8, "d": 3, "seed": 4}, "product_depth": 2})
    first = eigenvalues(build_graph(spec))
    second = eigenvalues(build_graph(replace(spec, seed=derive_seed(4, "factor", 0))))
    assert np.abs(values - np.sort((first[:, None] + second[None, :]).ravel())[::-1]).max() <= 1e-9


def test_two_lift_spectrum_contains_its_base_spectrum(tmp_path):
    base = {"kind": "d_regular_random", "n": 10, "d": 3, "seed": 2}
    values = list(_spectrum_of(tmp_path, {"graph": {"kind": "two_lift", "base": base, "seed": 6}}))
    assert len(values) == 20
    for value in eigenvalues(build_graph(GraphGenSpec("d_regular_random", n=10, d=3, seed=2))):
        nearest = int(np.argmin(np.abs(np.array(values) - value)))
        assert abs(values.pop(nearest) - value) <= 1e-9


def body_digest(out, names):
    """SHA-256 over the artifacts `names`, each without its '# generated=' line."""
    h = hashlib.sha256()
    for name in names:
        text = (out / name).read_text()
        h.update("".join(line for line in text.splitlines(keepends=True) if not line.startswith("# generated=")).encode())
    return h.hexdigest()


# SHA-256 of the disorder_sweep.csv body (the '# generated=' line left out)
# at seed 11, recorded before purity moved to the Gram matrix of the top
# vectors; the sweep must stay byte-identical.
SWEEP_GOLDEN = "ddd09ff77bc3f2fdb8f2eb050a93439813f14709742f48d059446c3c49d7ebcc"


@pytest.mark.parametrize("K", [0.0, 1e-9])
def test_weak_coupling_records_end_at_t_end(tmp_path, K):
    # the default dt is at most t_end: 1e-3 * N / K would step past it
    params = {"product": WITNESS_PRODUCT, "K": K, "t_end": 10.0}
    assert run_config(tmp_path, {"experiment": "kuramoto", "params": params}, "--seed", "1") == 0
    assert [float(row["t"]) for row in read_rows(tmp_path / "out" / "kuramoto.csv")] == [0.0, 10.0]


@pytest.mark.parametrize("K", [0.0, 0.01])
def test_the_default_dt_reads_a_set_frequency_spread(tmp_path, K):
    # sigma_eps above K / N sets dt = 1e-3 / sigma_eps; a default that read
    # K alone tripped the stability gate at K 0 and 0.01
    params = {"product": WITNESS_PRODUCT, "K": K, "t_end": 10.0, "sigma_eps": 1.0, "record_every": 2500}
    assert run_config(tmp_path, {"experiment": "kuramoto", "params": params}, "--seed", "1") == 0
    assert [float(row["t"]) for row in read_rows(tmp_path / "out" / "kuramoto.csv")] == [2.5 * i for i in range(5)]


@pytest.mark.parametrize("seed", ["3", "5"])
def test_a_wide_frequency_spread_is_mean_free(tmp_path, seed):
    # the rounding left by removing the mean of sigma_eps 1e5 offsets
    # exceeded an absolute 1e-12
    params = {"product": WITNESS_PRODUCT, "K": 1.0, "t_end": 1e-6, "dt": 1e-9, "sigma_eps": 1e5}
    assert run_config(tmp_path, {"experiment": "kuramoto", "params": params}, "--seed", seed) == 0


# case: (experiment, params, the key of the object whose seed draws every
# realization, artifacts)
OWN_SEEDS = {
    "spectrum": ("spectrum", {"graph": SPECTRUM_GRAPH, "realizations": 2, "bins": 8}, "graph", ["spectrum.csv", "histogram.csv"]),
    "kuramoto": ("kuramoto", {**KURAMOTO, "realizations": 2}, "product", ["kuramoto.csv"]),
    # a full product's bits draw their blocks from the product seed
    "product-full": (
        "product",
        {"product": {"mode": "full", "qlbits": [{"n": 4, "d": 2}, {"n": 5, "d": 2}]}},
        "product",
        ["product_spectrum.csv", "effective_states.json"],
    ),
}


@pytest.mark.parametrize("case", sorted(OWN_SEEDS))
def test_realizations_derive_from_the_objects_own_seed(tmp_path, case):
    experiment, params, key, names = OWN_SEEDS[case]

    def digest(**seed):
        doc = {"experiment": experiment, "params": {**params, key: {**params[key], **seed}}}
        assert run_config(tmp_path, doc, "--seed", "7") == 0
        return body_digest(tmp_path / "out", names)

    # the object's seed defaults to the run seed
    unset = digest()
    assert digest(seed=7) == unset
    assert digest(seed=8) != unset


FULL_PRODUCT = {**WITNESS_PRODUCT, "mode": "full"}
TREE_WITNESS = {"bit_index": 0, "strength": 3.0, "trials": 2}

# case: (experiment, params); one per experiment that draws QL bits, in
# each of its modes
SEED_TREE = {
    "product-full": ("product", {"product": FULL_PRODUCT}),
    "product-contracted": ("product", {"product": WITNESS_PRODUCT}),
    "witness-full": ("witness", {**TREE_WITNESS, "product": FULL_PRODUCT}),
    "witness-contracted": ("witness", {**TREE_WITNESS, "product": WITNESS_PRODUCT}),
    "kuramoto-full": ("kuramoto", {**KURAMOTO, "product": FULL_PRODUCT, "realizations": 2}),
    "kuramoto-contracted": ("kuramoto", {**KURAMOTO, "realizations": 2}),
    "qlbit": ("qlbit", {**QLBIT["params"], "realizations": 2}),
    "qlbit-table-row": ("qlbit", {**QLBIT_ROW, "realizations": 2}),
}


@pytest.mark.parametrize("case", sorted(SEED_TREE))
def test_no_stream_is_drawn_twice_in_a_run(tmp_path, monkeypatch, case):
    # every random draw goes through rng_from; the keys of one run are a
    # seed tree, so no two draws (two blocks, two trials, a witness and its
    # target) share a stream
    experiment, params = SEED_TREE[case]
    keys, rng_from = [], qllab.graph.rng_from

    def recording(*parts):
        keys.append(parts)
        return rng_from(*parts)

    for module in (qllab.graph, qllab.qlbit, qllab.qlproduct, qllab.witness, qllab.kuramoto):
        monkeypatch.setattr(module, "rng_from", recording)
    assert run_config(tmp_path, {"experiment": experiment, "params": params}, "--seed", "3") == 0
    assert keys
    repeated = {key for key in keys if keys.count(key) > 1}
    assert not repeated, f"{len(repeated)} keys drawn twice in {len(keys)} draws: {sorted(map(repr, repeated))}"


def test_product_bits_are_seeded_from_the_product_seed():
    # a witness parses its product at each trial's seed; a set product seed
    # seeds every trial's bits alike, and an unset one seeds them apart
    for doc, seeds in ((WITNESS_PRODUCT, (3, 4)), ({**WITNESS_PRODUCT, "seed": 9}, (9, 9))):
        for trial_seed, product_seed in zip((3, 4), seeds):
            spec = parse_product(doc, "params.product.", trial_seed)
            assert [bit.seed for bit in spec.qlbits] == [derive_seed(product_seed, "bit", i) for i in range(2)]


def test_disorder_sweep_body_is_golden(tmp_path):
    params = {"n": 60, "d": 6, "retentions": [1.0, 0.8, 0.5, 0.3], "realizations": 4}
    assert run_config(tmp_path, {"experiment": "disorder-sweep", "params": params}, "--seed", "11") == 0
    assert body_digest(tmp_path / "out", ["disorder_sweep.csv"]) == SWEEP_GOLDEN


CONTRACTED_BITS = [{"n": 8, "d": 3, "policy": {"kind": "cross_regular", "degree": 1}}, {"n": 8, "d": 3}]

# The `sync` benchmark's config: 278 RK4 steps of a 144-vertex product.
SYNC_BIT = {"n": 36, "d": 6, "policy": {"kind": "cross_regular", "degree": 1}}
KURAMOTO_SYNC = {"product": {"qlbits": [SYNC_BIT, SYNC_BIT], "mode": "contracted"}, "K": 4.0, "t_end": 10.0, "record_every": 25}

# (config, artifacts, SHA-256 of their bodies at seed 7); these paths must not
# move.  `cheeger` was recorded before full products were solved from their
# factors, `spectrum`, `kuramoto` and `witness` before the Kuramoto records
# and the witness readout solved only the top eigenpair, and
# `product-contracted` and `qlbit` (both on the dense path, their block
# partitions not equitable) when projection residuals became ||w - J c||
# and `qlbit.csv` gained its `degenerate` column.  `qlbit` was recorded again
# when its amplitudes became J^T w, as a product's coefficients are: its
# `qlbit.csv` body stayed the same, and `mean_abs_alpha` and `mean_residual`
# in `qlbit_summary.json` moved by 1 ulp.  Two realizations make the
# Kuramoto purity mix two top vectors, and strength 1 gives an unambiguous
# readout.  `qlbit-table-row` (the quotient path, at a bottom level) and
# `product-full` (composed from its factors) were recorded before the dense
# and quotient paths shared one emergent-state rule.  `qlbit` was recorded
# again when its dense path read one eigenpair and the quotient path's
# phase: realization 0's alpha and beta flipped sign with unchanged digits,
# and the summary means moved by at most 2.7e-15.  `kuramoto-sync` was
# recorded before each Kuramoto right-hand side became one GEMM, which
# rounds differently from two GEMVs; at seed 7 its printed records did not
# move.  `product-full` and `product-contracted` were recorded again when
# every reported state took the phase of `spectral.fixed_phase`: their
# spectra, eigenvalues, labels and residuals kept their bytes, and each
# state's coefficients are the old ones times exactly +1 or -1 (states 2
# and 3 of `product-full` and state 1 of `product-contracted` flipped).
# `qlbit` was recorded again when its +1-bias bits took their eigenvalue
# from `top_pair`'s Rayleigh quotient in place of `eigvalsh`: its
# `qlbit.csv` body kept its bytes, and `mean_eigenvalue` in
# `qlbit_summary.json` moved by -8.9e-16 (2 ulps).
GOLDEN = {
    "product-contracted": (
        {"experiment": "product", "params": {"product": {"qlbits": CONTRACTED_BITS, "mode": "contracted"}}},
        ["product_spectrum.csv", "effective_states.json"],
        "e4d6c9123068d427d521e3fe2f46b384c44481ff666ad290ebd91d61efedcf25",
    ),
    "qlbit": (
        {"experiment": "qlbit", "params": {"n": 10, "d": 3, "realizations": 2}},
        ["qlbit.csv", "qlbit_summary.json"],
        "88176216d672e734f6651cd6c2c0c6f8df9db16c946bb2d588bf01400fa8e369",
    ),
    "qlbit-table-row": (
        {"experiment": "qlbit", "params": {"n": 10, "d": 3, "realizations": 2, "table_row": {"red": "-1", "blue": "-1", "conn": "i"}}},
        ["qlbit.csv", "qlbit_summary.json"],
        "a9351378131bfa5f9023f7852b00629f78acaea0c4de7ba99827150139812d02",
    ),
    "product-full": (
        {"experiment": "product", "params": {"product": {"mode": "full", "qlbits": [{"n": 4, "d": 2}, {"n": 5, "d": 2}]}, "verify": True}},
        ["product_spectrum.csv", "effective_states.json"],
        "9293dca86c6b20fee2772407a43c14665d33afb7b0b2d41aad8a6647272e2508",
    ),
    "cheeger": (
        {"experiment": "cheeger", "params": {"graph": {"kind": "d_regular_random", "n": 12, "d": 3}}},
        ["cheeger.csv"],
        "0bf59ac04220b6ca861162107dbbfa8305e1c24360d5ab7bbd7b021bd0b25989",
    ),
    "spectrum": (
        {"experiment": "spectrum", "params": {"graph": SPECTRUM_GRAPH, "disorder_sigma": 0.2, "realizations": 2, "bins": 8}},
        ["spectrum.csv", "histogram.csv"],
        "ce866bdfbedc3d6e838f4a0200a9a70df5fc3e1ce353d46556b5773e3b9e3236",
    ),
    "kuramoto": (
        {"experiment": "kuramoto", "params": {**KURAMOTO, "t_end": 1.0, "record_every": 5, "realizations": 2}},
        ["kuramoto.csv"],
        "6876e59af0440a4368b10293f3dbb05b580f426d4db8039352cd55c53d141b31",
    ),
    "kuramoto-sync": (
        {"experiment": "kuramoto", "params": KURAMOTO_SYNC},
        ["kuramoto.csv"],
        "b62dbdcf3d9d7a2ee550fb491912e77ce7a475912f9c56a21a5d5c223989d8bc",
    ),
    "witness": (
        {"experiment": "witness", "params": {**WITNESS, "trials": 2}},
        ["witness.csv", "witness_summary.json"],
        "c006ad2e016bf4b5315ef6615c3c1e32f386f2d33e27da466bae53dfa13c5130",
    ),
}


@pytest.mark.parametrize("tag", sorted(GOLDEN))
def test_unchanged_paths_are_golden(tmp_path, tag):
    doc, names, digest = GOLDEN[tag]
    assert run_config(tmp_path, doc, "--seed", "7") == 0
    assert body_digest(tmp_path / "out", names) == digest


# the environment of a fresh interpreter that imports this qllab
CHILD_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qllab.cli.__file__))}


def unphased_bit(params, seed):
    """(eigenvalue, residual, (alpha, beta)) of the one-realization `qlbit`
    run of params, read off the library with no phase rule applied."""
    bit_seed = derive_seed(seed, "bit", 0)
    if "table_row" in params:
        row = BiasTopology(*(bias_from_token(params["table_row"][key]) for key in ("red", "blue", "conn")))
        g = apply_bias_topology(build_regular_qlbit(params["n"], params["d"], seed=bit_seed), row)
        state = extreme_state(quotient_states(g, quotient(g))[1])
        return state.eigenvalue, 0.0, state.coefficients
    g = build_qlbit(QLBitSpec(params["n"], params["d"], seed=bit_seed))
    state = emergent_state(g)
    eff = project_two_state(g, state.eigenvector)
    return state.eigenvalue, eff.residual, eff.coefficients


def unphased_product(params, seed):
    """[(eigenvalue, labels, residual, coefficients)] of the `product` run of
    params, read off the library with no phase rule applied."""
    spec = parse_product(params["product"], "params.product.", seed)
    n_top = params.get("emergent_states", 1 << spec.q)
    if spec.mode == "full":
        g, spectrum = verify_spectrum_composition(*full_product_factors(spec), columns=n_top)
    else:
        g = build_product(spec)
        quo = quotient(g)
        if quo.equitable:
            return [(s.eigenvalue, list(g.blocks), 0.0, s.coefficients) for s in quotient_states(g, quo)[1][:n_top]]
        spectrum = eigendecompose(g)
    states = project_blocks(g, g.blocks, spectrum.eigenvectors[:, :n_top])
    return [(v, list(g.blocks), eff.residual, eff.coefficients) for v, eff in zip(spectrum.eigenvalues, states)]


def assert_phase_rule_alone(coefficients, unphased):
    """coefficients are unphased times one unit factor, and their first
    nonzero largest entry (magnitudes within DEGENERACY_TOL tied) is real
    and positive."""
    magnitude = np.abs(coefficients)
    k = int(np.argmax((magnitude >= magnitude.max() - DEGENERACY_TOL) & (magnitude > 0)))
    assert coefficients[k].imag == 0 and coefficients[k].real > 0
    phase = coefficients[k] / unphased[k]
    assert abs(abs(phase) - 1) <= 1e-12
    unphased = np.asarray(unphased)
    assert np.allclose(coefficients, phase * unphased, rtol=0, atol=1e-12 * np.abs(unphased).max())


# (n, d): a budget bit of these stays inequitable
_BLOCK = st.sampled_from([(6, 3), (8, 3), (6, 4), (8, 4), (10, 4)])
_BIAS = st.sampled_from(["+1", "-1", "i", "-i"])
_SIGN = st.sampled_from(["+1", "-1"])


@st.composite
def reported_runs(draw, path):
    """(experiment, params) of a small run on one reporting path."""
    n, d = draw(_BLOCK)
    if path == "qlbit-table-row":
        row = {"red": draw(_SIGN), "blue": draw(_SIGN), "conn": draw(st.one_of(_BIAS, st.just("0")))}
        return "qlbit", {"n": n, "d": d, "table_row": row}
    if path == "qlbit-budget":
        return "qlbit", {"n": n, "d": d}
    q = draw(st.integers(1, 3 if path == "product-cross-regular" else 2))
    if path == "product-full":
        bits = [{"n": draw(st.integers(3, 6)), "d": 2, "connect_bias": draw(_BIAS)} for _ in range(q)]
        return "product", {"product": {"mode": "full", "qlbits": bits}}
    policy = {"kind": "cross_regular", "degree": 1} if path == "product-cross-regular" else {"kind": "budget", "fraction": 0.2}
    bits = [{"n": n, "d": d, "policy": policy, "connect_bias": draw(_BIAS)} for _ in range(q)]
    return "product", {"product": {"mode": "contracted", "qlbits": bits}}


@pytest.mark.parametrize(
    "path", ["qlbit-table-row", "qlbit-budget", "product-cross-regular", "product-contracted-budget", "product-full"]
)
@settings(max_examples=12, deadline=None)
@given(data=st.data(), seed=st.integers(0, 10**6))
def test_every_reported_state_takes_the_one_phase_rule(path, data, seed):
    # every path reports each state with its first largest coefficient real
    # and positive, and otherwise as the library reads it
    experiment, params = data.draw(reported_runs(path))
    if experiment == "qlbit":
        _, eigenvalue, a_re, a_im, b_re, b_im, residual, _ = cmd_qlbit(params, seed)["qlbit.csv"][1][0]
        expected_eigenvalue, expected_residual, unphased = unphased_bit(params, seed)
        assert (eigenvalue, residual) == (expected_eigenvalue, expected_residual)
        assert_phase_rule_alone(np.array([complex(a_re, a_im), complex(b_re, b_im)]), unphased)
        return
    states = cmd_product(params, seed)["effective_states.json"]
    expected = unphased_product(params, seed)
    assert len(states) == len(expected)
    for state, (eigenvalue, labels, residual, unphased) in zip(states, expected):
        assert (state["eigenvalue"], state["labels"], state["residual"]) == (eigenvalue, labels, residual)
        assert_phase_rule_alone(np.array([complex(*c) for c in state["coefficients"]]), unphased)


def test_a_zero_entry_never_carries_the_phase():
    # the bulk states of an unconnected bit (two 4-cycles) project to
    # nothing on its blocks, up to rounding; each ties all its entries,
    # and in some the first is an exact zero
    params = {"product": {"mode": "full", "qlbits": [{"n": 4, "d": 2, "connect_bias": "0"}]}, "emergent_states": 8}
    states = cmd_product(params, 0)["effective_states.json"]
    for state, (*_, unphased) in zip(states, unphased_product(params, 0)):
        assert_phase_rule_alone(np.array([complex(*c) for c in state["coefficients"]]), unphased)


# The library modules `cli` imports only inside the functions that use them.
DEFERRED = ("qlbit", "qlproduct", "kuramoto", "witness", "cheeger")

# case: (the config a child runs after `import qllab.cli`, or None for the
# import alone; the deferred modules loaded after it)
FOOTPRINT = {
    "import": (None, set()),
    "spectrum": ({"experiment": "spectrum", "params": {"graph": SPECTRUM_GRAPH, "bins": 4}}, set()),
    "disorder-sweep": (
        {"experiment": "disorder-sweep", "params": {"n": 10, "d": 3, "retentions": [1.0, 0.5], "realizations": 2}},
        set(),
    ),
    "kuramoto": ({"experiment": "kuramoto", "params": KURAMOTO}, {"kuramoto", "qlbit", "qlproduct"}),
}


@pytest.mark.parametrize("case", sorted(FOOTPRINT))
def test_cli_loads_only_what_its_experiment_uses(tmp_path, case):
    # scipy costs about 0.2 s to import, paid by every run of the tool; and
    # where bytecode is not cached, every module a run imports is compiled
    doc, expected = FOOTPRINT[case]
    argv = []
    if doc is not None:
        (tmp_path / "config.json").write_text(json.dumps(doc))
        argv = ["config.json", "--out", "out"]
    probe = (
        "import json, sys, qllab.cli\n"
        "if sys.argv[1:]: assert qllab.cli.main(sys.argv[1:]) == 0\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe, *argv], cwd=tmp_path, capture_output=True, text=True, check=True, env=CHILD_ENV
    )
    modules = json.loads(result.stdout.splitlines()[-1])
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []
    assert {name for name in DEFERRED if f"qllab.{name}" in modules} == expected


def test_no_library_module_imports_a_private_name_of_another():
    # a private name stays in its module; a rule that another module needs is
    # public.  A private module (_csv) is the package's own, and dunders such
    # as __version__ are not private.
    for path in sorted(Path(qllab.cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "qllab"):
                private = [a.name for a in node.names if a.name.startswith("_") and not a.name.endswith("__")]
                assert not private, f"{path.name} imports private {private} from {node.module}"


def child_argv(tmp_path, name, doc):
    """Write doc to tmp_path / name.json; the argv that runs `qllab` on it in
    a fresh interpreter, from tmp_path and out to tmp_path / name."""
    (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    return [sys.executable, "-m", "qllab.cli", f"{name}.json", "--out", name]


def run_child(tmp_path, name, doc):
    """Run `qllab` on doc in a fresh interpreter, out to tmp_path / name and
    its stdout to tmp_path / name.log; return the child's own resource
    usage, not the largest of every child this process ran."""
    with open(tmp_path / f"{name}.log", "w") as log:
        child = subprocess.Popen(child_argv(tmp_path, name, doc), cwd=tmp_path, stdout=log, env=CHILD_ENV)
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
    assert child.returncode == 0
    return usage


LAW_BIT = {"n": 10, "d": 3, "policy": {"kind": "cross_regular", "degree": 1}}
# configs that meet a closed stdout at different points: `ok` at its one
# line after the manifest, a verified product also at its "... OK" line
# before the manifest
PIPE_CONFIGS = {
    "ok": {"experiment": "cheeger", "params": {"graph": {"kind": "cycle", "n": 6}}},
    "full": {
        "experiment": "product",
        "params": {"product": {"mode": "full", "qlbits": [{"n": 3, "d": 2}, {"n": 4, "d": 2}, {"n": 5, "d": 2}]}, "verify": True},
    },
    "law": {"experiment": "product", "params": {"product": {"mode": "contracted", "qlbits": [LAW_BIT] * 3}, "verify": True}},
}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("name", sorted(PIPE_CONFIGS))
def test_closed_pipe_exits_0_with_the_manifest_written(tmp_path, name, unbuffered):
    # `qllab cfg.json | head -1` with the reader gone before the first
    # print: no traceback and no failed flush at exit.  Buffered, the line
    # that failed to flush is still buffered when the interpreter exits.
    env = {key: value for key, value in CHILD_ENV.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run(child_argv(tmp_path, name, PIPE_CONFIGS[name]), cwd=tmp_path, stdout=write, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)
    assert result.returncode == 0
    assert result.stderr == b""
    assert (tmp_path / name / "manifest.json").is_file()


@pytest.mark.parametrize("name, line", [("full", "spectrum composition OK"), ("law", "contraction law OK")])
def test_verified_product_prints_its_ok_line(tmp_path, name, line):
    run_child(tmp_path, name, PIPE_CONFIGS[name])
    assert line in (tmp_path / f"{name}.log").read_text()


def test_package_import_loads_no_module(tmp_path):
    # callers import the module they use; the package holds the version alone
    probe = "import json, sys, qllab; print(json.dumps([[m for m in sys.modules if m.startswith('qllab.')], qllab.__version__]))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=CHILD_ENV)
    modules, version = json.loads(result.stdout)
    assert modules == []
    assert run_config(tmp_path, PIPE_CONFIGS["ok"]) == 0
    assert version == json.loads((tmp_path / "out" / "manifest.json").read_text())["version"]


def test_bad_config_exits_2_in_a_fresh_interpreter(tmp_path):
    doc = {**PIPE_CONFIGS["ok"], "params": {**PIPE_CONFIGS["ok"]["params"], "radius": 1}}
    result = subprocess.run(child_argv(tmp_path, "bad", doc), cwd=tmp_path, capture_output=True, text=True, env=CHILD_ENV)
    assert result.returncode == 2
    assert "config error: unknown key params.radius" in result.stderr


def test_kuramoto_records_at_n_1000_stay_under_200_mb(tmp_path):
    # 41 records of a 1000-vertex product: the purity is read off each
    # record's Gram matrix, with no n x n density matrix per record (41 of
    # them would take 656 MB)
    bit = {"n": 250, "d": 6, "policy": {"kind": "cross_regular", "degree": 1}}
    params = {"product": {"mode": "contracted", "qlbits": [bit, bit]}, "K": 4, "t_end": 10, "record_every": 1}
    usage = run_child(tmp_path, "k1000", {"experiment": "kuramoto", "params": params})
    assert usage.ru_maxrss / 1024 < 200
    assert len(read_rows(tmp_path / "k1000" / "kuramoto.csv")) == 41


def test_disorder_sweep_at_n_4096_reads_a_top_of_exactly_6(tmp_path):
    # top_pair runs off the edge arrays, with no n x n array (one would
    # take 134 MB); a 6-regular graph's top is exactly 6
    params = {"n": 4096, "d": 6, "retentions": [1.0, 0.7], "realizations": 2}
    run_child(tmp_path, "big", {"experiment": "disorder-sweep", "params": params})
    top = read_rows(tmp_path / "big" / "disorder_sweep.csv")[0]
    assert float(top["retention"]) == 1.0
    assert float(top["mean_top_eigenvalue"]) == 6.0


def test_full_product_at_n_13824_is_proved_off_its_factors(tmp_path):
    # three 24-vertex bits: N = 13,824, proved off the factors with no N x N
    # array (one would take 1.5 GB)
    bits = [{"n": 12, "d": 4}] * 3
    run_child(tmp_path, "full3", {"experiment": "product", "params": {"product": {"mode": "full", "qlbits": bits}, "verify": True}})
    assert "spectrum composition OK" in (tmp_path / "full3.log").read_text()
    assert len(read_rows(tmp_path / "full3" / "product_spectrum.csv")) == 13824


def test_dense_path_bit_at_n_2000_stays_under_150_mb(tmp_path):
    # a budget bit of two 1000-vertex blocks is not equitable, so qlbit reads
    # its emergent eigenpair off the whole graph: the pair from top_pair and
    # its degeneracy from one Cholesky of the dense matrix, with no
    # eigenvector matrix (136 MB here; 99 MB when eigvalsh gave the values)
    usage = run_child(tmp_path, "bit2000", {"experiment": "qlbit", "params": {"n": 1000, "d": 6, "realizations": 1}})
    assert usage.ru_maxrss / 1024 < 150
    assert len(read_rows(tmp_path / "bit2000" / "qlbit.csv")) == 1
