import json

import qllab.cli
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
