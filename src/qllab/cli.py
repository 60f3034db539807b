"""Experiment runner: named commands over JSON configs.

Each run validates its config (unknown keys are rejected with the offending
key path), writes CSV/JSON artifacts into the output directory, and drops a
manifest.json recording the resolved config, tool version, and seed so the
run can be reproduced byte for byte (modulo the timestamp comment line in
CSV headers).

Exit codes: 0 ok, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from . import __version__
from ._csv import write_csv
from .cheeger import expansion_profile, isoperimetric_exact
from .errors import ConfigError, QllabError
from .graph import (
    BiasedGraph,
    GraphGenSpec,
    add_diagonal_disorder,
    build_graph,
    delete_random_edges,
    derive_seed,
    gen_d_regular_random,
)
from .kuramoto import SyncRunConfig, run_sync_experiment
from .qlbit import (
    BiasTopology,
    CrossRegular,
    EdgeBudgetFraction,
    PairProbability,
    QLBitSpec,
    apply_bias_topology,
    bias_from_token,
    build_qlbit,
    build_regular_qlbit,
    project_two_state,
    qlbit_spec,
)
from .qlproduct import (
    ProductSpec,
    build_product,
    cartesian_product,
    label_adjacency,
    project_product_state,
    verify_spectrum_composition,
)
from .spectral import eigendecompose, emergent_state, ensemble_spectrum
from .states import density_from_state, purity
from .witness import attach_witness, witness_readout

EXPERIMENTS = (
    "spectrum",
    "disorder-sweep",
    "kuramoto",
    "qlbit",
    "product",
    "witness",
    "cheeger",
)


# ----------------------------------------------------------------------
# Config parsing
# ----------------------------------------------------------------------


def _check_keys(doc, allowed, required, path):
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'config'} must be an object")
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}{key}")
    for key in required:
        if key not in doc:
            raise ConfigError(f"missing key {path}{key}")


def parse_graph_spec(doc, path, default_seed=0) -> GraphGenSpec:
    _check_keys(doc, {"kind", "n", "d", "seed", "base"}, {"kind"}, path)
    base = None
    if doc["kind"] == "two_lift":
        if "base" not in doc:
            raise ConfigError(f"missing key {path}base")
        base = parse_graph_spec(doc["base"], path + "base.", default_seed)
    return GraphGenSpec(
        kind=doc["kind"],
        n=int(doc.get("n", 0)),
        d=doc.get("d"),
        seed=int(doc.get("seed", default_seed)),
        base=base,
    )


def parse_policy(doc, path):
    _check_keys(doc, {"kind", "p", "fraction", "degree"}, {"kind"}, path)
    kind = doc["kind"]
    try:
        if kind == "pair_probability":
            return PairProbability(float(doc["p"]))
        if kind == "budget":
            return EdgeBudgetFraction(float(doc["fraction"]))
        if kind == "cross_regular":
            return CrossRegular(int(doc["degree"]))
    except KeyError as exc:
        raise ConfigError(f"missing key {path}{exc.args[0]}") from None
    raise ConfigError(f"unknown policy kind at {path}kind: {kind!r}")


def parse_qlbit(doc, path, default_seed=0) -> QLBitSpec:
    _check_keys(
        doc,
        {"n", "d", "policy", "connect_bias", "red_bias", "blue_bias", "seed"},
        {"n", "d"},
        path,
    )
    policy = None
    if "policy" in doc:
        policy = parse_policy(doc["policy"], path + "policy.")
    try:
        return qlbit_spec(
            n=int(doc["n"]),
            d=int(doc["d"]),
            policy=policy,
            connect_bias=bias_from_token(doc.get("connect_bias", "+1")),
            red_bias=float(doc.get("red_bias", 1.0)),
            blue_bias=float(doc.get("blue_bias", 1.0)),
            seed=int(doc.get("seed", default_seed)),
        )
    except QllabError as exc:
        raise ConfigError(f"bad QL bit at {path[:-1]}: {exc}") from exc


def parse_product(doc, path, default_seed=0) -> ProductSpec:
    _check_keys(doc, {"qlbits", "mode", "n", "d", "seed"}, {"qlbits"}, path)
    bits = doc["qlbits"]
    if not isinstance(bits, list) or not bits:
        raise ConfigError(f"{path}qlbits must be a nonempty list")
    specs = [
        parse_qlbit(b, f"{path}qlbits[{i}].", derive_seed(default_seed, "bit", i))
        for i, b in enumerate(bits)
    ]
    return ProductSpec(
        qlbits=tuple(specs),
        mode=doc.get("mode", "contracted"),
        n=doc.get("n"),
        d=doc.get("d"),
        seed=int(doc.get("seed", default_seed)),
    )


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    _check_keys(doc, {"experiment", "seed", "out", "params"}, {"experiment"}, "")
    if doc["experiment"] not in EXPERIMENTS:
        raise ConfigError(f"unknown key experiment: {doc['experiment']!r}")
    doc.setdefault("params", {})
    return doc


def _resolve_seed(args, doc) -> int:
    if args.seed is not None:
        return args.seed
    if "seed" in doc:
        return int(doc["seed"])
    env = os.environ.get("QLLAB_SEED")
    if env is not None:
        return int(env)
    return 0


def _map_indexed(fn, count, jobs):
    """Evaluate fn(0..count-1) in order, optionally on a thread pool."""
    if jobs <= 1 or count <= 1:
        return [fn(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, range(count)))


# ----------------------------------------------------------------------
# Experiment runners
# ----------------------------------------------------------------------


def cmd_spectrum(params, seed, out, jobs):
    _check_keys(
        params,
        {"graph", "product_depth", "disorder_sigma", "realizations", "bins"},
        {"graph"},
        "params.",
    )
    base = parse_graph_spec(params["graph"], "params.graph.", seed)
    depth = int(params.get("product_depth", 1))
    sigma = float(params.get("disorder_sigma", 0.0))
    realizations = int(params.get("realizations", 1))
    bins = int(params.get("bins", 60))
    if depth < 1:
        raise ConfigError("params.product_depth must be >= 1")

    def make(i):
        spec = replace(base, seed=derive_seed(seed, "real", i)) if realizations > 1 else base
        g = build_graph(spec)
        for k in range(depth - 1):
            extra = replace(spec, seed=derive_seed(spec.seed, "factor", k))
            g = cartesian_product(g, build_graph(extra))
        if sigma > 0:
            g = add_diagonal_disorder(g, sigma, derive_seed(seed, "sigma", i))
        return g

    graphs = _map_indexed(make, realizations, jobs)
    spectra = [eigendecompose(g) for g in graphs]
    ens = ensemble_spectrum(lambda i: spectra[i], realizations, bins)
    write_csv(
        os.path.join(out, "spectrum.csv"),
        ["index", "eigenvalue"],
        [(i, float(v)) for i, v in enumerate(spectra[0].eigenvalues)],
    )
    write_csv(
        os.path.join(out, "histogram.csv"),
        ["bin_left", "bin_right", "count"],
        [
            (float(l), float(r), int(c))
            for l, r, c in zip(ens.bin_edges[:-1], ens.bin_edges[1:], ens.counts)
        ],
    )
    return ["spectrum.csv", "histogram.csv"]


def cmd_disorder_sweep(params, seed, out, jobs):
    _check_keys(
        params, {"n", "d", "retentions", "realizations"}, {"n", "d", "retentions"}, "params."
    )
    n, d = int(params["n"]), int(params["d"])
    retentions = [float(r) for r in params["retentions"]]
    realizations = int(params.get("realizations", 20))
    rows = []
    for retention in retentions:
        if not 0.0 <= retention <= 1.0:
            raise ConfigError("params.retentions entries must lie in [0, 1]")

        def one(i, retention=retention):
            g = gen_d_regular_random(n, d, derive_seed(seed, "g", retention, i))
            g = delete_random_edges(
                g, 1.0 - retention, derive_seed(seed, "del", retention, i)
            )
            spec = eigendecompose(g)
            w = spec.eigenvectors[:, 0].astype(complex)
            return np.outer(w, w.conj()), float(spec.eigenvalues[0])

        results = _map_indexed(one, realizations, jobs)
        rho = sum(r[0] for r in results) / realizations
        mean_top = sum(r[1] for r in results) / realizations
        rows.append((retention, float(np.trace(rho @ rho).real), mean_top))
    write_csv(
        os.path.join(out, "disorder_sweep.csv"),
        ["retention", "purity", "mean_top_eigenvalue"],
        rows,
    )
    return ["disorder_sweep.csv"]


def cmd_qlbit(params, seed, out, jobs):
    _check_keys(
        params,
        {
            "n",
            "d",
            "policy",
            "connect_bias",
            "red_bias",
            "blue_bias",
            "realizations",
            "table_row",
            "cross_degree",
        },
        {"n", "d"},
        "params.",
    )
    n, d = int(params["n"]), int(params["d"])
    realizations = int(params.get("realizations", 1))
    table_row = params.get("table_row")
    rows = []
    for i in range(realizations):
        bit_seed = derive_seed(seed, "bit", i)
        if table_row is not None:
            _check_keys(table_row, {"red", "blue", "conn"}, {"red", "blue", "conn"}, "params.table_row.")
            topology = BiasTopology.from_config(table_row)
            g = build_regular_qlbit(
                n, d, cross_degree=int(params.get("cross_degree", 1)), seed=bit_seed
            )
            g = apply_bias_topology(g, topology)
            policy = "highest_magnitude"
        else:
            policy_doc = params.get("policy")
            policy = "highest"
            bit = parse_qlbit(
                {
                    "n": n,
                    "d": d,
                    **({"policy": policy_doc} if policy_doc else {}),
                    "connect_bias": params.get("connect_bias", "+1"),
                    "red_bias": params.get("red_bias", 1.0),
                    "blue_bias": params.get("blue_bias", 1.0),
                    "seed": bit_seed,
                },
                "params.",
            )
            g = build_qlbit(bit)
        state = emergent_state(eigendecompose(g), policy=policy)
        eff = project_two_state(g, state.eigenvector)
        rows.append(
            (
                i,
                state.eigenvalue,
                eff.alpha.real,
                eff.alpha.imag,
                eff.beta.real,
                eff.beta.imag,
                eff.residual,
            )
        )
    write_csv(
        os.path.join(out, "qlbit.csv"),
        ["realization", "eigenvalue", "alpha_re", "alpha_im", "beta_re", "beta_im", "residual"],
        rows,
    )
    arr = np.array(rows)
    summary = {
        "mean_eigenvalue": float(arr[:, 1].mean()),
        "mean_abs_alpha": float(np.hypot(arr[:, 2], arr[:, 3]).mean()),
        "mean_abs_beta": float(np.hypot(arr[:, 4], arr[:, 5]).mean()),
        "mean_residual": float(arr[:, 6].mean()),
    }
    with open(os.path.join(out, "qlbit_summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return ["qlbit.csv", "qlbit_summary.json"]


def cmd_product(params, seed, out, jobs):
    _check_keys(params, {"product", "verify", "emergent_states"}, {"product"}, "params.")
    spec = parse_product(params["product"], "params.product.", seed)
    g = build_product(spec)
    spectrum = eigendecompose(g)
    write_csv(
        os.path.join(out, "product_spectrum.csv"),
        ["index", "eigenvalue"],
        [(i, float(v)) for i, v in enumerate(spectrum.eigenvalues)],
    )
    n_top = int(params.get("emergent_states", 1 << spec.q))
    states = []
    for i in range(min(n_top, spectrum.n)):
        eff = project_product_state(g, spectrum.eigenvectors[:, i])
        states.append(
            {
                "eigenvalue": float(spectrum.eigenvalues[i]),
                "labels": eff.labels,
                "coefficients": [[c.real, c.imag] for c in eff.coefficients],
                "residual": eff.residual,
            }
        )
    with open(os.path.join(out, "effective_states.json"), "w") as fh:
        json.dump(states, fh, indent=1)
        fh.write("\n")

    if params.get("verify", False):
        if spec.mode == "full" and spec.q == 2:
            names = ("a", "b")
            factors = [
                build_qlbit(bit, block_names=(f"{nm}1", f"{nm}2"))
                for nm, bit in zip(names, spec.qlbits)
            ]
            if not verify_spectrum_composition(factors[0], factors[1], tol=1e-8):
                raise QllabError("spectrum composition check failed")
            print("spectrum composition OK")
        else:
            expected = spec.block_size() * (1 << spec.q)
            pairs = label_adjacency(g)
            want = spec.q * (1 << (spec.q - 1))
            if spec.mode == "contracted" and (g.n != expected or len(pairs) != want):
                raise QllabError("contraction law check failed")
            print("contraction law OK")
    return ["product_spectrum.csv", "effective_states.json"]


def cmd_witness(params, seed, out, jobs):
    _check_keys(
        params,
        {"product", "bit_index", "strength", "density", "preparation", "trials"},
        {"product", "bit_index", "strength"},
        "params.",
    )
    preparation = params.get("preparation", "plus")
    if preparation not in ("plus", "minus"):
        raise ConfigError("params.preparation must be 'plus' or 'minus'")
    trials = int(params.get("trials", 1))
    bit_index = int(params["bit_index"])
    strength = float(params["strength"])
    density = float(params.get("density", 0.1))
    expected = "same" if preparation == "plus" else "inverted"
    rows = []
    agree = 0
    for t in range(trials):
        trial_seed = derive_seed(seed, "trial", t)
        spec = parse_product(params["product"], "params.product.", trial_seed)
        if not 0 <= bit_index < spec.q:
            raise ConfigError("params.bit_index out of range")
        bias = 1.0 if preparation == "plus" else -1.0
        bits = list(spec.qlbits)
        bits[bit_index] = replace(bits[bit_index], connect_bias=complex(bias))
        spec = replace(spec, qlbits=tuple(bits))
        g = build_product(spec)
        combined, _ = attach_witness(
            g, spec, bit_index, strength, density=density, seed=trial_seed
        )
        verdict = witness_readout(combined)
        ok = verdict == expected
        agree += ok
        rows.append((t, verdict, ok))
    write_csv(
        os.path.join(out, "witness.csv"), ["trial", "readout", "agrees"], rows
    )
    with open(os.path.join(out, "witness_summary.json"), "w") as fh:
        json.dump(
            {
                "preparation": preparation,
                "expected": expected,
                "trials": trials,
                "agreement": agree / trials,
            },
            fh,
            indent=1,
        )
        fh.write("\n")
    return ["witness.csv", "witness_summary.json"]


def cmd_kuramoto(params, seed, out, jobs):
    _check_keys(
        params,
        {
            "product",
            "K",
            "t_end",
            "dt",
            "integrator",
            "init",
            "init_width",
            "sigma_eps",
            "realizations",
            "record_every",
        },
        {"product", "K", "t_end"},
        "params.",
    )
    spec = parse_product(params["product"], "params.product.", seed)
    cfg = SyncRunConfig(
        graph=spec,
        K=float(params["K"]),
        t_end=float(params["t_end"]),
        dt=params.get("dt"),
        integrator=params.get("integrator", "rk4"),
        init=params.get("init", "uniform_phases"),
        init_width=float(params.get("init_width", 2.0 * np.pi)),
        sigma_eps=params.get("sigma_eps"),
        realizations=int(params.get("realizations", 1)),
        seed=seed,
        record_every=int(params.get("record_every", 10)),
    )
    result = run_sync_experiment(cfg)
    write_csv(
        os.path.join(out, "kuramoto.csv"),
        ["t", "order_parameter", "purity", "eigenvalue_top"],
        list(
            zip(
                (float(x) for x in result.t),
                (float(x) for x in result.order_parameter),
                (float(x) for x in result.purity),
                (float(x) for x in result.eigenvalue_top),
            )
        ),
    )
    return ["kuramoto.csv"]


def cmd_cheeger(params, seed, out, jobs):
    _check_keys(params, {"graph", "family"}, set(), "params.")
    if ("graph" in params) == ("family" in params):
        raise ConfigError("params must contain exactly one of 'graph' or 'family'")
    if "graph" in params:
        specs = [parse_graph_spec(params["graph"], "params.graph.", seed)]
    else:
        specs = [
            parse_graph_spec(doc, f"params.family[{i}].", derive_seed(seed, i))
            for i, doc in enumerate(params["family"])
        ]
    rows = []
    for spec in specs:
        g = build_graph(spec)
        if g.n <= 22:
            report = isoperimetric_exact(g)
            rows.append(
                (
                    g.n,
                    report.h,
                    report.lower_bound if report.lower_bound is not None else float("nan"),
                    report.upper_bound if report.upper_bound is not None else float("nan"),
                    True,
                )
            )
        else:
            row = expansion_profile([spec])[0]
            rows.append((row.n, row.h, row.lower, row.upper, row.is_exact))
    write_csv(
        os.path.join(out, "cheeger.csv"),
        ["n", "h", "lower", "upper", "is_exact"],
        rows,
    )
    return ["cheeger.csv"]


_RUNNERS = {
    "spectrum": cmd_spectrum,
    "disorder-sweep": cmd_disorder_sweep,
    "kuramoto": cmd_kuramoto,
    "qlbit": cmd_qlbit,
    "product": cmd_product,
    "witness": cmd_witness,
    "cheeger": cmd_cheeger,
}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qllab",
        description="Quantum-like graph state experiments over JSON configs.",
    )
    parser.add_argument("config", help="path to the experiment config (JSON)")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--jobs", type=int, default=1, help="worker threads for ensembles")
    return parser


def run(args) -> int:
    doc = load_config(args.config)
    seed = _resolve_seed(args, doc)
    out = args.out or doc.get("out") or "."
    os.makedirs(out, exist_ok=True)
    experiment = doc["experiment"]
    files = _RUNNERS[experiment](doc["params"], seed, out, max(1, args.jobs))
    manifest = {
        "experiment": experiment,
        "version": __version__,
        "seed": seed,
        "config": doc,
        "outputs": files,
    }
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {', '.join(files)} to {out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (QllabError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
