"""Experiment runner: named commands over JSON configs.

Each experiment is a function (params, seed) -> {artifact name: body}: it
reads its config, does its work and returns its artifacts, touching no
file.  A `.csv` body is (header, rows) and a `.json` body is the document.
`run` alone writes: it creates the output directory, writes each artifact
in order, and drops a manifest.json recording the resolved config, tool
version, seed and artifact names, so the run can be reproduced byte for
byte (modulo the timestamp comment line in CSV headers).

One table per config object, each key named once: `_read` takes the table
{key: (reader, default)}, rejects unknown and missing keys with their key
path and returns each value through its reader.  `_spec` is the one place
where a library error, whose message starts with the field at fault,
becomes a ConfigError at that key path.  A graph or a policy reads only
the keys of its kind: `cycle` and `complete` read `n`, the random regular
kinds `n` and `d`, `two_lift` its `base`, and every graph kind `seed`,
which only the random kinds draw from; a policy reads its kind's one key.

Seeds follow one chain, run seed -> `product.seed` -> bit j: the run seed
(in `witness`, each trial's seed derived from it) is the default of a
product's `seed`, and bit j is seeded derive_seed(product seed, "bit", j),
so a product bit takes no `seed`; bit j's seed draws its blocks and cross
edges.  `kuramoto` realizations reseed the bits from `product.seed`.

A run loads only the library modules its experiment uses.  `graph`,
`spectral`, `states`, `_csv` and `errors` are imported here; `qlbit`,
`qlproduct`, `kuramoto`, `witness` and `cheeger` are imported inside the
readers and runners that use them.  So `spectrum` and `disorder-sweep`
load none of those five, `kuramoto` loads neither `witness` nor
`cheeger`, and a process that never writes bytecode compiles no module it
does not run.  Each function imports from the library module at every
call and copies no name into this module, so a name patched on its
library module is the name the call reads.  A reader imports before it
reads, so a config error still exits 2 before any solver call.

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
from .errors import ConfigError, QllabError
from .graph import (
    GraphGenSpec,
    add_diagonal_disorder,
    build_graph,
    delete_random_edges,
    derive_seed,
    gen_d_regular_random,
)
from .spectral import eigendecompose, eigenvalues, emergent_state, ensemble_spectrum, top_pair
from .spectral import fixed_phase, quotient, quotient_states
from .states import mixture_purity


# ----------------------------------------------------------------------
# Config parsing
# ----------------------------------------------------------------------

REQUIRED = object()  # the default of a key the config must set


def _read(doc, keys, path="params."):
    """doc's values for the table keys {key: (reader, default)}, in table
    order: reader(value, key path) for a present key, the default as it
    stands for an absent one."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path.rstrip('.') or 'config'} must be an object")
    for key in doc:
        if key not in keys:
            raise ConfigError(f"unknown key {path}{key}")
    for key, (_, default) in keys.items():
        if default is REQUIRED and key not in doc:
            raise ConfigError(f"missing key {path}{key}")
    return [read(doc[key], path + key) if key in doc else default for key, (read, default) in keys.items()]


def _spec(make, path, *args, **fields):
    """make(*args, **fields), whose QllabError messages start with the field
    at fault, with such an error raised as a ConfigError at path."""
    try:
        return make(*args, **fields)
    except QllabError as exc:
        raise ConfigError(f"{path}{exc}") from None


def _as_is(value, key):
    """The value itself, for a consumer that checks it."""
    return value


def _int(value, key) -> int:
    try:
        result = int(value)
    except (TypeError, ValueError, OverflowError):
        result = None
    # a JSON boolean is no number, though int(True) is 1
    if result is None or isinstance(value, bool) or (isinstance(value, float) and value != result):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return result


def _float(value, key) -> float:
    try:
        result = float(value)
    except (TypeError, ValueError, OverflowError):
        result = None
    if result is None or isinstance(value, bool):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    # JSON reads 1e309 as inf, and Python reads NaN and "inf" too
    if not np.isfinite(result):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return result


def _text(value, key) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _bool(value, key) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, got {value!r}")
    return value


def _list(value, key) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list")
    return value


def _optional(read):
    """The reader read, with null read as None."""
    return lambda value, key: None if value is None else read(value, key)


def _at_least(read, low):
    """The reader read, with values below low rejected."""

    def read_at_least(value, key):
        value = read(value, key)
        if value < low:
            raise ConfigError(f"{key} must be >= {low}")
        return value

    return read_at_least


_count = _at_least(_int, 1)  # such as a trial count
_nonnegative = _at_least(_float, 0)  # such as a coupling strength


def _nested(parse, seed):
    """The reader of an object that parse(doc, path, seed) reads."""
    return lambda doc, key: parse(doc, key + ".", seed)


def parse_graph_spec(doc, path, default_seed=0) -> GraphGenSpec:
    keys = {"kind": (_as_is, REQUIRED), "n": (_int, None), "d": (_int, None), "seed": (_int, default_seed)}
    keys["base"] = (_nested(parse_graph_spec, default_seed), None)
    # GraphGenSpec rejects a field that its kind does not read
    return _spec(GraphGenSpec, path, *_read(doc, keys, path))


def parse_policy(doc, path):
    from .qlbit import CrossRegular, EdgeBudgetFraction, PairProbability

    # the one key each kind reads besides its kind
    policies = {
        "pair_probability": (PairProbability, "p", _float),
        "budget": (EdgeBudgetFraction, "fraction", _float),
        "cross_regular": (CrossRegular, "degree", _int),
    }
    if not isinstance(doc, dict) or "kind" not in doc:
        _read(doc, {"kind": (_as_is, REQUIRED)}, path)  # raises: without a kind, the table is {kind}
    kind = doc["kind"]
    if not isinstance(kind, str) or kind not in policies:
        raise ConfigError(f"unknown policy kind at {path}kind: {kind!r}")
    policy, key, read = policies[kind]
    _, value = _read(doc, {"kind": (_as_is, REQUIRED), key: (read, REQUIRED)}, path)
    return _spec(policy, path, value)


def _bias(token, key) -> complex:
    from .qlbit import bias_from_token

    return _spec(bias_from_token, f"{key}: ", token)


# The keys of one QL bit, named as the `QLBitSpec` fields they set; the
# `qlbit` experiment adds its own keys.
_QLBIT_KEYS = {
    "n": (_int, REQUIRED),
    "d": (_int, REQUIRED),
    "policy": (lambda doc, key: parse_policy(doc, key + "."), None),
    "connect_bias": (_bias, 1 + 0j),
    "red_bias": (_float, 1.0),
    "blue_bias": (_float, 1.0),
}


def parse_product(doc, path, default_seed=0, fixed=None) -> ProductSpec:
    """The product doc states, its seed defaulting to default_seed; fixed
    maps a bit's index to the fields the experiment sets on it, for which
    that bit takes no key."""
    from .qlbit import QLBitSpec
    from .qlproduct import ProductSpec

    bits, mode, seed = _read(
        doc,
        {"qlbits": (_as_is, REQUIRED), "mode": (_as_is, "contracted"), "seed": (_int, default_seed)},
        path,
    )
    if not isinstance(bits, list) or not bits:
        raise ConfigError(f"{path}qlbits must be a nonempty list")
    specs = []
    for i, bit in enumerate(bits):
        given = (fixed or {}).get(i, {})
        keys = {key: entry for key, entry in _QLBIT_KEYS.items() if key not in given}
        fields = dict(zip(keys, _read(bit, keys, f"{path}qlbits[{i}].")), **given)
        specs.append(_spec(QLBitSpec, f"{path}qlbits[{i}].", **fields, seed=derive_seed(seed, "bit", i)))
    return _spec(ProductSpec, path, specs, mode, seed)


def _table_row(doc, key) -> BiasTopology:
    from .qlbit import BiasTopology

    path = key + "."
    return _spec(BiasTopology, path, *_read(doc, dict.fromkeys(("red", "blue", "conn"), (_bias, REQUIRED)), path))


def _experiment(name, key) -> str:
    if not isinstance(name, str) or name not in _RUNNERS:
        raise ConfigError(f"unknown key {key}: {name!r}")
    return name


def load_config(path):
    """The config document at path, its params defaulted to {}, and its
    seed and out as read (None where absent)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    keys = {
        "experiment": (_experiment, REQUIRED),
        "seed": (_int, None),
        "out": (_optional(_text), None),
        "params": (_as_is, None),  # read by the experiment
    }
    _, seed, out, _ = _read(doc, keys, "")
    doc.setdefault("params", {})
    return doc, seed, out


# ----------------------------------------------------------------------
# Experiment runners
# ----------------------------------------------------------------------


def cmd_spectrum(params, seed):
    base, depth, sigma, realizations, bins = _read(
        params,
        {
            "graph": (_nested(parse_graph_spec, seed), REQUIRED),
            "product_depth": (_count, 1),
            "disorder_sigma": (_nonnegative, 0.0),
            "realizations": (_count, 1),
            "bins": (_count, 60),
        },
    )

    def make(i):
        spec = replace(base, seed=derive_seed(base.seed, "real", i)) if realizations > 1 else base
        g = build_graph(spec)
        for k in range(depth - 1):
            from .qlproduct import cartesian_product  # so a depth-1 spectrum loads no product code

            extra = replace(spec, seed=derive_seed(spec.seed, "factor", k))
            g = cartesian_product(g, build_graph(extra))
        if sigma > 0:
            g = add_diagonal_disorder(g, sigma, derive_seed(seed, "sigma", i))
        return g

    spectra = [eigenvalues(make(i)) for i in range(realizations)]
    ens = ensemble_spectrum(spectra, bins)
    histogram = [(float(l), float(r), int(c)) for l, r, c in zip(ens.bin_edges[:-1], ens.bin_edges[1:], ens.counts)]
    return {
        "spectrum.csv": (["index", "eigenvalue"], [(i, float(v)) for i, v in enumerate(spectra[0])]),
        "histogram.csv": (["bin_left", "bin_right", "count"], histogram),
    }


def cmd_disorder_sweep(params, seed):
    n, d, retentions, realizations = _read(
        params,
        {"n": (_int, REQUIRED), "d": (_int, REQUIRED), "retentions": (_list, REQUIRED), "realizations": (_count, 20)},
    )
    _spec(GraphGenSpec, "params.", "d_regular_random", n, d)
    retentions = [_float(r, f"params.retentions[{i}]") for i, r in enumerate(retentions)]
    if not all(0.0 <= retention <= 1.0 for retention in retentions):
        raise ConfigError("params.retentions entries must lie in [0, 1]")
    rows = []
    for retention in retentions:

        def one(i, retention=retention):
            g = gen_d_regular_random(n, d, derive_seed(seed, "g", retention, i))
            g = delete_random_edges(
                g, 1.0 - retention, derive_seed(seed, "del", retention, i)
            )
            return top_pair(g)

        pairs = [one(i) for i in range(realizations)]
        tops = np.column_stack([x for _, x in pairs])
        mean_top = sum(value for value, _ in pairs) / realizations
        rows.append((retention, mixture_purity(tops), mean_top))
    return {"disorder_sweep.csv": (["retention", "purity", "mean_top_eigenvalue"], rows)}


def cmd_qlbit(params, seed):
    from .qlbit import QLBitSpec, build_qlbit, regular_qlbit_spec

    n, d, *bit, realizations, table_row, cross_degree = _read(
        params,
        {
            **_QLBIT_KEYS,
            "realizations": (_count, 1),
            "table_row": (_optional(_table_row), None),
            "cross_degree": (_int, 1),
        },
    )
    # A table row sets every bias of the bit that is d-regular with its cross
    # edges, cross_degree per vertex; a bit without one is built from its
    # policy and biases and has no cross degree.
    if table_row is None:
        bit = _spec(QLBitSpec, "params.", n, d, *bit)
        ignored, context = ("cross_degree",), "without"
    else:
        bit = _spec(regular_qlbit_spec, "params.", n, d, cross_degree)
        bit = replace(bit, red_bias=table_row.red, blue_bias=table_row.blue, connect_bias=table_row.conn)
        ignored, context = ("policy", "connect_bias", "red_bias", "blue_bias"), "with"
    for key in ignored:
        if key in params:
            raise ConfigError(f"params.{key} has no effect {context} params.table_row")
    rows = []
    for i in range(realizations):
        g = build_qlbit(replace(bit, seed=derive_seed(seed, "bit", i)))
        # an equitable bit (a table row, cross-regular or unconnected cross
        # edges) reports its exact QL state, with projection residual 0
        level = emergent_state(g)
        alpha, beta = fixed_phase(level.state.coefficients)
        row = (alpha.real, alpha.imag, beta.real, beta.imag, level.state.residual, level.degenerate)
        rows.append((i, level.eigenvalue, *row))
    arr = np.array(rows)
    summary = {
        "mean_eigenvalue": float(arr[:, 1].mean()),
        "mean_abs_alpha": float(np.hypot(arr[:, 2], arr[:, 3]).mean()),
        "mean_abs_beta": float(np.hypot(arr[:, 4], arr[:, 5]).mean()),
        "mean_residual": float(arr[:, 6].mean()),
    }
    header = ["realization", "eigenvalue", "alpha_re", "alpha_im", "beta_re", "beta_im", "residual", "degenerate"]
    return {"qlbit.csv": (header, rows), "qlbit_summary.json": summary}


def cmd_product(params, seed):
    from .qlproduct import (
        build_product,
        full_product_factors,
        project_product_state,
        state_doc,
        verify_contraction_law,
        verify_spectrum_composition,
    )

    spec, verify, n_top = _read(
        params,
        {
            "product": (_nested(parse_product, seed), REQUIRED),
            "verify": (_bool, False),
            "emergent_states": (_at_least(_int, 0), None),
        },
    )
    n_top = 1 << spec.q if n_top is None else n_top
    ql = None  # the QL states of an equitable contracted product
    if spec.mode == "full":  # checked as it is solved
        g, spectrum = verify_spectrum_composition(*full_product_factors(spec), columns=n_top)
    else:
        g = build_product(spec)
        quo = quotient(g)
        verify_contraction_law(spec, g, quo)  # checked, as every full product is
        if quo.equitable:
            values = eigenvalues(g)
            ql = quotient_states(g, quo, values)
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
            state_doc(value, list(g.blocks), eff.coefficients, eff.residual)
            for value, eff in zip(values, project_product_state(g, spectrum.eigenvectors[:, :n_top]))
        ]
    if verify:
        _say("spectrum composition OK" if spec.mode == "full" else "contraction law OK")
    return {
        "product_spectrum.csv": (["index", "eigenvalue"], [(i, float(v)) for i, v in enumerate(values)]),
        "effective_states.json": states,
    }


def cmd_witness(params, seed):
    from .witness import attach_witness, witness_readout

    product, bit_index, strength, density, preparation, trials = _read(
        params,
        {
            "product": (_as_is, REQUIRED),  # read per trial, at the trial's seed
            "bit_index": (_int, REQUIRED),
            "strength": (_nonnegative, REQUIRED),
            "density": (_nonnegative, 0.1),
            "preparation": (_as_is, "plus"),
            "trials": (_count, 1),
        },
    )
    if preparation not in ("plus", "minus"):
        raise ConfigError("params.preparation must be 'plus' or 'minus'")
    expected, bias = ("same", 1 + 0j) if preparation == "plus" else ("inverted", -1 + 0j)
    # every trial's product, each read at its trial's seed, before any build;
    # preparation sets the target bit's connect_bias, so that bit takes none
    seeds = [derive_seed(seed, "trial", t) for t in range(trials)]
    target = {bit_index: {"connect_bias": bias}}
    specs = [parse_product(product, "params.product.", trial_seed, target) for trial_seed in seeds]
    if not 0 <= bit_index < specs[0].q:
        raise ConfigError("params.bit_index out of range")
    rows = []
    for t, (spec, trial_seed) in enumerate(zip(specs, seeds)):
        combined = attach_witness(spec, bit_index, strength, density=density, seed=trial_seed)
        verdict = witness_readout(combined)
        rows.append((t, verdict, verdict == expected))
    agreement = sum(ok for *_, ok in rows) / trials
    summary = {"preparation": preparation, "expected": expected, "trials": trials, "agreement": agreement}
    return {"witness.csv": (["trial", "readout", "agrees"], rows), "witness_summary.json": summary}


def cmd_kuramoto(params, seed):
    from .kuramoto import SyncRunConfig, run_sync_experiment

    *fields, record_every = _read(
        params,
        {
            "product": (_nested(parse_product, seed), REQUIRED),
            "K": (_float, REQUIRED),
            "t_end": (_float, REQUIRED),
            "dt": (_optional(_float), None),
            "init_width": (_float, 2.0 * np.pi),
            "sigma_eps": (_optional(_float), None),
            "realizations": (_count, 1),
            "record_every": (_count, 10),
        },
    )
    # the table holds SyncRunConfig's fields in order, the seed left out
    result = run_sync_experiment(_spec(SyncRunConfig, "params.", *fields, seed, record_every))
    columns = (result.t, result.order_parameter, result.purity, result.eigenvalue_top)
    rows = list(zip(*([float(x) for x in column] for column in columns)))
    return {"kuramoto.csv": (["t", "order_parameter", "purity", "eigenvalue_top"], rows)}


def _cheeger_spec(doc, path, seed) -> GraphGenSpec:
    spec = parse_graph_spec(doc, path, seed)
    # Every other kind has an edge, so at least two vertices.
    if spec.kind == "complete" and spec.n < 2:
        raise ConfigError(f"{path}n: the Cheeger constant needs two vertices, got {spec.n}")
    return spec


def cmd_cheeger(params, seed):
    from .cheeger import expansion_profile

    # neither reader gives None, so None marks an absent key
    graph, family = _read(params, {"graph": (_nested(_cheeger_spec, seed), None), "family": (_list, None)})
    if (graph is None) == (family is None):
        raise ConfigError("params must contain exactly one of 'graph' or 'family'")
    specs = [graph] if family is None else [
        _cheeger_spec(doc, f"params.family[{i}].", derive_seed(seed, i)) for i, doc in enumerate(family)
    ]
    rows = [(r.n, r.h, r.lower, r.upper, r.is_exact) for r in expansion_profile(specs)]
    return {"cheeger.csv": (["n", "h", "lower", "upper", "is_exact"], rows)}


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
    """Run the config's experiment and write its artifacts, in order, and
    manifest.json into the output directory: the one writer of a run."""
    doc, seed, out = load_config(args.config)
    if args.seed is not None:
        seed = args.seed
    elif seed is None:  # neither --seed nor the config's seed: QLLAB_SEED, else 0
        seed = _int(os.environ.get("QLLAB_SEED", 0), "QLLAB_SEED")
    out = args.out or out or "."
    os.makedirs(out, exist_ok=True)
    experiment = doc["experiment"]
    artifacts = _RUNNERS[experiment](doc["params"], seed)
    for name, body in artifacts.items():
        if name.endswith(".csv"):
            write_csv(os.path.join(out, name), *body)
        else:
            _write_json(os.path.join(out, name), body)
    files = list(artifacts)
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
