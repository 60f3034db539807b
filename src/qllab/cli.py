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
import functools
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from ._csv import write_csv
from .cheeger import expansion_profile
from .errors import ConfigError, QllabError
from .graph import (
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
    regular_qlbit_spec,
    reseeded,
)
from .qlproduct import (
    ProductSpec,
    build_product,
    cartesian_product,
    full_product_factors,
    project_product_state,
    state_doc,
    verify_contraction_law,
    verify_spectrum_composition,
)
from .spectral import eigendecompose, eigenvalues, emergent_state, ensemble_spectrum, top_pair
from .spectral import _fixed_phase, extreme_state, quotient, quotient_states
from .states import mixture_purity
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
        raise ConfigError(f"{path.rstrip('.') or 'config'} must be an object")
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}{key}")
    for key in required:
        if key not in doc:
            raise ConfigError(f"missing key {path}{key}")


def _int(value, key) -> int:
    try:
        result = int(value)
    except (TypeError, ValueError, OverflowError):
        result = None
    if result is None or (isinstance(value, float) and value != result):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return result


def _float(value, key) -> float:
    try:
        result = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None
    # JSON reads 1e309 as inf, and Python reads NaN and "inf" too
    if not np.isfinite(result):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return result


def _optional(convert, doc, key, path):
    """doc[key] through convert (_int or _float), or None when absent or null."""
    value = doc.get(key)
    return None if value is None else convert(value, path + key)


def parse_graph_spec(doc, path, default_seed=0) -> GraphGenSpec:
    _check_keys(doc, {"kind", "n", "d", "seed", "base"}, {"kind"}, path)
    base = None
    if doc["kind"] == "two_lift":
        if "base" not in doc:
            raise ConfigError(f"missing key {path}base")
        base = parse_graph_spec(doc["base"], path + "base.", default_seed)
    fields = dict(
        kind=doc["kind"],
        n=_int(doc.get("n", 0), f"{path}n"),
        d=_optional(_int, doc, "d", path),
        seed=_int(doc.get("seed", default_seed), f"{path}seed"),
        base=base,
    )
    try:
        return GraphGenSpec(**fields)
    except QllabError as exc:  # the message starts with the field name
        raise ConfigError(f"{path}{exc}") from None


_POLICIES = {
    "pair_probability": (PairProbability, "p", _float),
    "budget": (EdgeBudgetFraction, "fraction", _float),
    "cross_regular": (CrossRegular, "degree", _int),
}


def parse_policy(doc, path):
    _check_keys(doc, {"kind", "p", "fraction", "degree"}, {"kind"}, path)
    if doc["kind"] not in _POLICIES:
        raise ConfigError(f"unknown policy kind at {path}kind: {doc['kind']!r}")
    policy, key, convert = _POLICIES[doc["kind"]]
    if key not in doc:
        raise ConfigError(f"missing key {path}{key}")
    value = convert(doc[key], path + key)
    try:
        return policy(value)
    except QllabError as exc:  # the message starts with the field name
        raise ConfigError(f"{path}{exc}") from None


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
    n, d = _int(doc["n"], f"{path}n"), _int(doc["d"], f"{path}d")
    red_bias = _float(doc.get("red_bias", 1.0), f"{path}red_bias")
    blue_bias = _float(doc.get("blue_bias", 1.0), f"{path}blue_bias")
    seed = _int(doc.get("seed", default_seed), f"{path}seed")
    try:
        connect_bias = bias_from_token(doc.get("connect_bias", "+1"))
    except QllabError as exc:
        raise ConfigError(f"{path}connect_bias: {exc}") from None
    try:
        return qlbit_spec(n, d, policy, connect_bias, red_bias, blue_bias, seed)
    except QllabError as exc:  # the message starts with the field name
        raise ConfigError(f"{path}{exc}") from None


def parse_product(doc, path, default_seed=0) -> ProductSpec:
    _check_keys(doc, {"qlbits", "mode", "n", "d", "seed"}, {"qlbits"}, path)
    bits = doc["qlbits"]
    if not isinstance(bits, list) or not bits:
        raise ConfigError(f"{path}qlbits must be a nonempty list")
    specs = [
        parse_qlbit(b, f"{path}qlbits[{i}].", derive_seed(default_seed, "bit", i))
        for i, b in enumerate(bits)
    ]
    fields = dict(
        qlbits=tuple(specs),
        mode=doc.get("mode", "contracted"),
        n=_optional(_int, doc, "n", path),
        d=_optional(_int, doc, "d", path),
        seed=_int(doc.get("seed", default_seed), f"{path}seed"),
    )
    try:
        return ProductSpec(**fields)
    except QllabError as exc:  # the message starts with the field name
        raise ConfigError(f"{path}{exc}") from None


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


def _count(params, key, default, low=1) -> int:
    """An integer parameter >= low, such as a trial count."""
    value = _int(params.get(key, default), f"params.{key}")
    if value < low:
        raise ConfigError(f"params.{key} must be >= {low}")
    return value


def _list(params, key) -> list:
    if not isinstance(params[key], list):
        raise ConfigError(f"params.{key} must be a list")
    return params[key]


def _nonnegative(params, key, default) -> float:
    """A number parameter >= 0, such as a coupling strength."""
    value = _float(params.get(key, default), f"params.{key}")
    if value < 0:
        raise ConfigError(f"params.{key} must be >= 0")
    return value


def _resolve_seed(args, doc) -> int:
    if args.seed is not None:
        return args.seed
    if "seed" in doc:
        return _int(doc["seed"], "seed")
    env = os.environ.get("QLLAB_SEED")
    if env is not None:
        return _int(env, "QLLAB_SEED")
    return 0


# ----------------------------------------------------------------------
# Experiment runners
# ----------------------------------------------------------------------


def cmd_spectrum(params, seed, out):
    _check_keys(
        params,
        {"graph", "product_depth", "disorder_sigma", "realizations", "bins"},
        {"graph"},
        "params.",
    )
    base = parse_graph_spec(params["graph"], "params.graph.", seed)
    depth = _count(params, "product_depth", 1)
    sigma = _nonnegative(params, "disorder_sigma", 0.0)
    realizations = _count(params, "realizations", 1)
    bins = _count(params, "bins", 60)

    def make(i):
        spec = replace(base, seed=derive_seed(seed, "real", i)) if realizations > 1 else base
        g = build_graph(spec)
        for k in range(depth - 1):
            extra = replace(spec, seed=derive_seed(spec.seed, "factor", k))
            g = cartesian_product(g, build_graph(extra))
        if sigma > 0:
            g = add_diagonal_disorder(g, sigma, derive_seed(seed, "sigma", i))
        return g

    spectra = [eigenvalues(make(i)) for i in range(realizations)]
    ens = ensemble_spectrum(spectra, bins)
    write_csv(
        os.path.join(out, "spectrum.csv"),
        ["index", "eigenvalue"],
        [(i, float(v)) for i, v in enumerate(spectra[0])],
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


def cmd_disorder_sweep(params, seed, out):
    _check_keys(
        params, {"n", "d", "retentions", "realizations"}, {"n", "d", "retentions"}, "params."
    )
    graph = parse_graph_spec({"kind": "d_regular_random", "n": params["n"], "d": params["d"]}, "params.")
    retentions = [_float(r, f"params.retentions[{i}]") for i, r in enumerate(_list(params, "retentions"))]
    if not all(0.0 <= retention <= 1.0 for retention in retentions):
        raise ConfigError("params.retentions entries must lie in [0, 1]")
    realizations = _count(params, "realizations", 20)
    rows = []
    for retention in retentions:

        def one(i, retention=retention):
            g = gen_d_regular_random(graph.n, graph.d, derive_seed(seed, "g", retention, i))
            g = delete_random_edges(
                g, 1.0 - retention, derive_seed(seed, "del", retention, i)
            )
            return top_pair(g)

        pairs = [one(i) for i in range(realizations)]
        tops = np.column_stack([x for _, x in pairs])
        mean_top = sum(value for value, _ in pairs) / realizations
        rows.append((retention, mixture_purity(tops), mean_top))
    write_csv(
        os.path.join(out, "disorder_sweep.csv"),
        ["retention", "purity", "mean_top_eigenvalue"],
        rows,
    )
    return ["disorder_sweep.csv"]


def cmd_qlbit(params, seed, out):
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
    n, d = _int(params["n"], "params.n"), _int(params["d"], "params.d")
    realizations = _count(params, "realizations", 1)
    table_row = params.get("table_row")
    # A table row sets every bias and the cross edges itself; a bit without
    # one is built from its policy and biases and has no cross degree.
    if table_row is None:
        ignored, context = ("cross_degree",), "without"
    else:
        ignored, context = ("policy", "connect_bias", "red_bias", "blue_bias"), "with"
    for key in ignored:
        if key in params:
            raise ConfigError(f"params.{key} has no effect {context} params.table_row")
    if table_row is not None:
        _check_keys(table_row, {"red", "blue", "conn"}, {"red", "blue", "conn"}, "params.table_row.")
        try:
            topology = BiasTopology.from_config(table_row)
        except QllabError as exc:
            raise ConfigError(f"params.table_row: {exc}") from None
        cross_degree = _int(params.get("cross_degree", 1), "params.cross_degree")
        try:
            regular_qlbit_spec(n, d, cross_degree)
        except QllabError as exc:  # the message starts with the field name
            raise ConfigError(f"params.{exc}") from None
    else:
        keys = {key: params[key] for key in params if key not in ("realizations", "table_row")}
        bit = parse_qlbit(keys, "params.")
    rows = []
    for i in range(realizations):
        bit_seed = derive_seed(seed, "bit", i)
        if table_row is not None:
            g = build_regular_qlbit(n, d, cross_degree=cross_degree, seed=bit_seed)
            g = apply_bias_topology(g, topology)
        else:
            g = build_qlbit(reseeded(bit, bit_seed))
        quo = quotient(g)
        # an equitable bit (a table row, cross-regular or unconnected cross
        # edges) reports its canonical extreme QL state
        if quo.equitable:
            state = extreme_state(quotient_states(g, quo)[1])
            # x = J u has projection residual 0; degenerate flags any tie
            # at the level, as emergent_state does on the dense path
            (alpha, beta), residual = state.coefficients, 0.0
            degenerate = state.multiplicity > 1
        else:
            state = emergent_state(g)
            eff = project_two_state(g, state.eigenvector)
            # the quotient path's phase: the first largest amplitude real
            # and positive
            (alpha, beta), residual = _fixed_phase(eff.coefficients), eff.residual
            degenerate = state.degenerate
        row = (alpha.real, alpha.imag, beta.real, beta.imag, residual, degenerate)
        rows.append((i, state.eigenvalue, *row))
    write_csv(
        os.path.join(out, "qlbit.csv"),
        ["realization", "eigenvalue", "alpha_re", "alpha_im", "beta_re", "beta_im", "residual", "degenerate"],
        rows,
    )
    arr = np.array(rows)
    summary = {
        "mean_eigenvalue": float(arr[:, 1].mean()),
        "mean_abs_alpha": float(np.hypot(arr[:, 2], arr[:, 3]).mean()),
        "mean_abs_beta": float(np.hypot(arr[:, 4], arr[:, 5]).mean()),
        "mean_residual": float(arr[:, 6].mean()),
    }
    _write_json(os.path.join(out, "qlbit_summary.json"), summary)
    return ["qlbit.csv", "qlbit_summary.json"]


def cmd_product(params, seed, out):
    _check_keys(params, {"product", "verify", "emergent_states"}, {"product"}, "params.")
    verify = params.get("verify", False)
    if not isinstance(verify, bool):
        raise ConfigError(f"params.verify must be true or false, got {verify!r}")
    spec = parse_product(params["product"], "params.product.", seed)
    n_top = _count(params, "emergent_states", 1 << spec.q, low=0)
    ql = None  # the QL states of an equitable contracted product
    if spec.mode == "full":  # checked as it is solved
        g, spectrum = verify_spectrum_composition(*full_product_factors(spec), columns=n_top)
    else:
        g = build_product(spec)
        quo = quotient(g)
        if verify:
            verify_contraction_law(spec, g, quo)
        if quo.equitable:
            values, ql = quotient_states(g, quo)
        else:
            spectrum = eigendecompose(g)
    if ql is not None:
        states = [
            state_doc(s.eigenvalue, list(g.blocks), s.coefficients, 0.0,  # x = J u
                      rank=s.rank, gap=s.gap, degenerate=s.degenerate)
            for s in ql[:n_top]
        ]
    else:
        values = spectrum.eigenvalues
        states = [
            state_doc(value, eff.labels, eff.coefficients, eff.residual)
            for value, eff in zip(values, project_product_state(g, spectrum.eigenvectors[:, :n_top]))
        ]
    write_csv(
        os.path.join(out, "product_spectrum.csv"),
        ["index", "eigenvalue"],
        [(i, float(v)) for i, v in enumerate(values)],
    )
    _write_json(os.path.join(out, "effective_states.json"), states)

    if verify:
        _say("spectrum composition OK" if spec.mode == "full" else "contraction law OK")
    return ["product_spectrum.csv", "effective_states.json"]


def cmd_witness(params, seed, out):
    _check_keys(
        params,
        {"product", "bit_index", "strength", "density", "preparation", "trials"},
        {"product", "bit_index", "strength"},
        "params.",
    )
    preparation = params.get("preparation", "plus")
    if preparation not in ("plus", "minus"):
        raise ConfigError("params.preparation must be 'plus' or 'minus'")
    trials = _count(params, "trials", 1)
    bit_index = _int(params["bit_index"], "params.bit_index")
    strength = _nonnegative(params, "strength", None)
    density = _nonnegative(params, "density", 0.1)
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
        combined = attach_witness(g, spec, bit_index, strength, density=density, seed=trial_seed)
        verdict = witness_readout(combined)
        ok = verdict == expected
        agree += ok
        rows.append((t, verdict, ok))
    write_csv(
        os.path.join(out, "witness.csv"), ["trial", "readout", "agrees"], rows
    )
    _write_json(
        os.path.join(out, "witness_summary.json"),
        {"preparation": preparation, "expected": expected, "trials": trials, "agreement": agree / trials},
    )
    return ["witness.csv", "witness_summary.json"]


def cmd_kuramoto(params, seed, out):
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
    fields = dict(
        graph=parse_product(params["product"], "params.product.", seed),
        K=_float(params["K"], "params.K"),
        t_end=_float(params["t_end"], "params.t_end"),
        dt=_optional(_float, params, "dt", "params."),
        integrator=params.get("integrator", "rk4"),
        init=params.get("init", "uniform_phases"),
        init_width=_float(params.get("init_width", 2.0 * np.pi), "params.init_width"),
        sigma_eps=_optional(_float, params, "sigma_eps", "params."),
        realizations=_count(params, "realizations", 1),
        seed=seed,
        record_every=_count(params, "record_every", 10),
    )
    try:
        cfg = SyncRunConfig(**fields)
    except QllabError as exc:  # the message starts with the field name
        raise ConfigError(f"params.{exc}") from None
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


def _cheeger_spec(doc, path, seed) -> GraphGenSpec:
    spec = parse_graph_spec(doc, path, seed)
    # Every other kind has an edge, so at least two vertices.
    if spec.kind == "complete" and spec.n < 2:
        raise ConfigError(f"{path}n: the Cheeger constant needs two vertices, got {spec.n}")
    return spec


def cmd_cheeger(params, seed, out):
    _check_keys(params, {"graph", "family"}, set(), "params.")
    if ("graph" in params) == ("family" in params):
        raise ConfigError("params must contain exactly one of 'graph' or 'family'")
    if "graph" in params:
        specs = [_cheeger_spec(params["graph"], "params.graph.", seed)]
    else:
        specs = [
            _cheeger_spec(doc, f"params.family[{i}].", derive_seed(seed, i))
            for i, doc in enumerate(_list(params, "family"))
        ]
    rows = [(r.n, r.h, r.lower, r.upper, r.is_exact) for r in expansion_profile(specs)]
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


@functools.cache  # one parser per process: parse_args only reads it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qllab",
        description="Quantum-like graph state experiments over JSON configs.",
    )
    parser.add_argument("config", help="path to the experiment config (JSON)")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    return parser


def run(args) -> int:
    doc = load_config(args.config)
    seed = _resolve_seed(args, doc)
    out = args.out or doc.get("out") or "."
    os.makedirs(out, exist_ok=True)
    experiment = doc["experiment"]
    files = _RUNNERS[experiment](doc["params"], seed, out)
    manifest = {
        "experiment": experiment,
        "version": __version__,
        "seed": seed,
        "config": doc,
        "outputs": files,
    }
    _write_json(os.path.join(out, "manifest.json"), manifest, sort_keys=True)
    _say(f"wrote {', '.join(files)} to {out}")
    return 0


def _write_json(path, doc, sort_keys=False):
    """doc as indented JSON and a newline, in one write."""
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=1, sort_keys=sort_keys) + "\n")


def _say(line):
    """Print line to stdout at once.  When a reader closed stdout early, as
    `qllab cfg.json | head -1` does, the run goes on to write every output:
    stdout is pointed at devnull, so no later print or the flush at exit
    can fail again."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


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
