import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

import qllab.cheeger
import qllab.cli
import qllab.kuramoto
import qllab.qlproduct
import qllab.spectral
import qllab.witness
from qllab.cli import main
from qllab.spectral import eigendecompose, eigenvalues


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
WITNESS_PRODUCT = {"qlbits": [{"n": 8, "d": 3}, {"n": 8, "d": 3}], "n": 8, "d": 3}
SPECTRUM_GRAPH = {"kind": "d_regular_random", "n": 10, "d": 3}
QLBIT_ROW = {**QLBIT["params"], "table_row": {"red": "+1", "blue": "+1", "conn": "+1"}}
KURAMOTO = {"product": WITNESS_PRODUCT, "K": 1.0, "t_end": 0.1}
WITNESS = {"product": WITNESS_PRODUCT, "bit_index": 0, "strength": 1.0}


# experiment: (params, solver calls at seed 5).  Only `spectrum` reads every
# eigenvalue; the three readers of the emergent state solve its top pair
# alone, and the full eigensystem is left to the readers of more columns.
ROUTES = {
    "spectrum": ({"graph": SPECTRUM_GRAPH, "realizations": 2}, {"eigenvalues": 2}),
    "disorder-sweep": ({"n": 12, "d": 3, "retentions": [1.0, 0.5], "realizations": 2}, {"top_pair": 4}),
    "kuramoto": ({**KURAMOTO, "realizations": 2}, {"top_pair": 2}),
    "witness": (WITNESS, {"top_pair": 1}),
    "qlbit": (QLBIT["params"], {"eigendecompose": 1}),
    "product": ({"product": WITNESS_PRODUCT}, {"eigendecompose": 1}),
    "cheeger": ({"graph": {"kind": "cycle", "n": 6}}, {"eigendecompose": 1}),
}


@pytest.mark.parametrize("experiment", sorted(ROUTES))
def test_each_experiment_uses_the_least_solver(tmp_path, monkeypatch, experiment):
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
    params, expected = ROUTES[experiment]
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

CROSS_5_BIT = {"n": 8, "d": 3, "policy": {"kind": "cross_regular", "degree": 5}}
BUDGET_5_BIT = {"n": 6, "d": 3, "policy": {"kind": "budget", "fraction": 5}}  # 90 edges, 36 pairs

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
    (
        "unknown-product-mode",
        _with("product", {"product": {**WITNESS_PRODUCT, "mode": "half"}}, "verify", False),
        "params.product.mode",
    ),
    ("unknown-integrator", _with("kuramoto", KURAMOTO, "integrator", "leapfrog"), "params.integrator"),
    ("unknown-init", _with("kuramoto", KURAMOTO, "init", "random"), "params.init"),
    ("unknown-bias-token", _with("qlbit", QLBIT["params"], "table_row", {"red": "+1", "blue": "+1", "conn": "2"}), "params.table_row"),
    ("row-with-policy", _with("qlbit", QLBIT_ROW, "policy", {"kind": "cross_regular", "degree": 1}), "params.policy"),
    ("row-with-connect-bias", _with("qlbit", QLBIT_ROW, "connect_bias", "-1"), "params.connect_bias"),
    ("row-with-red-bias", _with("qlbit", QLBIT_ROW, "red_bias", -1), "params.red_bias"),
    ("row-with-blue-bias", _with("qlbit", QLBIT_ROW, "blue_bias", -1), "params.blue_bias"),
    ("cross-degree-without-row", _with("qlbit", QLBIT["params"], "cross_degree", 2), "params.cross_degree"),
    # sizes no graph can have, checked when the config is read
    ("row-cross-degree-at-d", _with("qlbit", QLBIT_ROW, "cross_degree", 3), "params.cross_degree"),
    ("qlbit-d-at-n", _with("qlbit", QLBIT["params"], "d", 10), "params.d"),
    ("sweep-d-above-n", _with("disorder-sweep", {"n": 10, "retentions": [1.0]}, "d", 12), "params.d"),
    ("graph-d-above-n", _with("spectrum", {"graph": {**SPECTRUM_GRAPH, "d": 12}}, "bins", 4), "params.graph.d"),
    ("graph-d-missing", _with("spectrum", {"graph": {"kind": "d_regular_random", "n": 10}}, "bins", 4), "params.graph.d"),
    ("product-d-at-n", _with("product", {"product": {**WITNESS_PRODUCT, "d": 8}}, "verify", False), "params.product.d"),
    ("short-cycle", _with("cheeger", {}, "graph", {"kind": "cycle", "n": 2}), "params.graph.n"),
    ("cross-regular-above-block", _with("qlbit", QLBIT["params"], "policy", {"kind": "cross_regular", "degree": 11}), "params.policy.degree"),
    ("pair-probability-above-1", _with("qlbit", QLBIT["params"], "policy", {"kind": "pair_probability", "p": 2}), "params.policy.p"),
    ("negative-budget", _with("qlbit", QLBIT["params"], "policy", {"kind": "budget", "fraction": -1}), "params.policy.fraction"),
    ("family-not-a-list", _with("cheeger", {}, "family", 5), "params.family"),
    # a connection policy that cannot fit the blocks it would be sampled on
    (
        "product-cross-degree-above-block",
        _with("product", {"product": {"qlbits": [CROSS_5_BIT], "n": 4, "d": 2}}, "verify", False),
        "params.product.qlbits[0].policy.degree",
    ),
    ("budget-above-cross-pairs", _with("qlbit", BUDGET_5_BIT, "realizations", 1), "params.policy.fraction"),
    (
        "product-budget-above-cross-pairs",
        _with("product", {"product": {"qlbits": [BUDGET_5_BIT]}}, "verify", False),
        "params.product.qlbits[0].policy.fraction",
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
def test_bad_config_value_exits_2(tmp_path, capsys, doc, key):
    assert run_config(tmp_path, doc) == 2
    assert key in capsys.readouterr().err
    out = tmp_path / "out"
    assert not out.exists() or not any(out.iterdir())


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


def test_disorder_sweep_body_is_golden(tmp_path):
    params = {"n": 60, "d": 6, "retentions": [1.0, 0.8, 0.5, 0.3], "realizations": 4}
    assert run_config(tmp_path, {"experiment": "disorder-sweep", "params": params}, "--seed", "11") == 0
    assert body_digest(tmp_path / "out", ["disorder_sweep.csv"]) == SWEEP_GOLDEN


CONTRACTED_BITS = [{"n": 8, "d": 3, "policy": {"kind": "cross_regular", "degree": 1}}, {"n": 8, "d": 3}]

# (config, artifacts, SHA-256 of their bodies at seed 7); these paths must not
# move.  `product-contracted`, `qlbit` and `cheeger` were recorded before full
# products were solved from their factors, `spectrum`, `kuramoto` and
# `witness` before the Kuramoto records and the witness readout solved only
# the top eigenpair.  Two realizations make the Kuramoto purity mix two top
# vectors, and strength 1 gives an unambiguous readout.
GOLDEN = {
    "product-contracted": (
        {"experiment": "product", "params": {"product": {"qlbits": CONTRACTED_BITS, "mode": "contracted", "n": 8, "d": 3}}},
        ["product_spectrum.csv", "effective_states.json"],
        "afc025c27559fe263f71c740b055d0a3057a7f53c6e33d4332bf687882de9aeb",
    ),
    "qlbit": (
        {"experiment": "qlbit", "params": {"n": 10, "d": 3, "realizations": 2}},
        ["qlbit.csv", "qlbit_summary.json"],
        "aba43757bfaa9f879d7624ff84059a5fd4be25bc96bddfab612a5dca82ab3d03",
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


def test_cli_import_loads_no_scipy():
    # scipy costs about 0.2 s to import, paid by every run of the tool
    probe = "import qllab.cli, sys; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qllab.cli.__file__))},
    )
    assert result.stdout.strip() == "False"
