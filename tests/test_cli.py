import json

import pytest

import qllab.cli
import qllab.qlproduct
import qllab.spectral
from qllab.cli import main
from qllab.spectral import eigendecompose


def read_rows(path):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_spectrum_solves_each_realization_once(tmp_path, monkeypatch):
    solved = []

    def counting(g):
        solved.append(g.n)
        return eigendecompose(g)

    # the histogram must not solve again through the spectral module's name
    monkeypatch.setattr(qllab.cli, "eigendecompose", counting)
    monkeypatch.setattr(qllab.spectral, "eigendecompose", counting)
    params = {"graph": {"kind": "d_regular_random", "n": 20, "d": 3}, "realizations": 3, "bins": 8}
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps({"experiment": "spectrum", "params": params}))
    out = tmp_path / "out"
    assert main([str(path), "--out", str(out), "--seed", "5"]) == 0
    assert solved == [20, 20, 20]
    assert len(read_rows(out / "spectrum.csv")) == 20
    assert sum(int(row["count"]) for row in read_rows(out / "histogram.csv")) == 3 * 20


def run_config(tmp_path, doc, *extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return main([str(path), "--out", str(tmp_path / "out"), *extra])


QLBIT = {"experiment": "qlbit", "params": {"n": 10, "d": 3}}
WITNESS_PRODUCT = {"qlbits": [{"n": 8, "d": 3}, {"n": 8, "d": 3}], "n": 8, "d": 3}


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
    ],
    ids=["qlbit-realizations", "witness-trials", "sweep-realizations", "seed"],
)
def test_bad_config_value_exits_2(tmp_path, capsys, doc, key):
    assert run_config(tmp_path, doc) == 2
    assert key in capsys.readouterr().err


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
    assert solved == [512, 8, 8, 8]
