"""Per-layer tracing of qllab from outside the library.

`Tracer.install()` re-binds each traced public function in every loaded
`qllab` module that holds it (and each traced method on its class), so no
file of the library changes.  A span covers one call into a traced entry;
its self time is its duration minus the time of the traced calls it made.
Only aggregates are kept: per-metric totals over all traced ops, and two
per-op records (eigenvalue repeats and ambiguous witness readouts).

An entry that the library no longer has is listed in `absent` and its
metrics stay zero, so a run survives the removal of a traced function.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

import numpy as np

# (layer.entry prefix, module, attribute); "Class.method" names a method.
ENTRIES = (
    ("graph.generate", "qllab.graph", "gen_d_regular_random"),
    ("graph.generate", "qllab.graph", "gen_bipartite_d_regular"),
    ("graph.generate", "qllab.graph", "gen_cycle"),
    ("graph.generate", "qllab.graph", "gen_complete"),
    ("graph.generate", "qllab.graph", "two_lift"),
    ("graph.mutate", "qllab.graph", "delete_random_edges"),
    ("graph.mutate", "qllab.graph", "add_diagonal_disorder"),
    ("graph.mutate", "qllab.graph", "disjoint_union"),
    ("graph.from_edges", "qllab.graph", "BiasedGraph.from_edges"),
    ("graph.adjacency", "qllab.graph", "BiasedGraph.adjacency"),
    ("spectral.eigendecompose", "qllab.spectral", "eigendecompose"),
    ("spectral.ensemble_spectrum", "qllab.spectral", "ensemble_spectrum"),
    ("spectral.emergent_state", "qllab.spectral", "emergent_state"),
    ("qlbit.build", "qllab.qlbit", "build_qlbit"),
    ("qlbit.build", "qllab.qlbit", "build_regular_qlbit"),
    ("qlbit.build", "qllab.qlbit", "apply_bias_topology"),
    ("qlbit.project", "qllab.qlbit", "project_two_state"),
    ("qlproduct.build", "qllab.qlproduct", "build_product"),
    ("qlproduct.build", "qllab.qlproduct", "build_full_product"),
    ("qlproduct.build", "qllab.qlproduct", "build_contracted_product"),
    ("qlproduct.build", "qllab.qlproduct", "cartesian_product"),
    ("qlproduct.project", "qllab.qlproduct", "project_product_state"),
    ("qlproduct.verify", "qllab.qlproduct", "verify_spectrum_composition"),
    ("qlproduct.verify", "qllab.qlproduct", "label_adjacency"),
    ("kuramoto.run", "qllab.kuramoto", "run_sync_experiment"),
    ("kuramoto.phase_transform", "qllab.kuramoto", "phase_transform"),
    ("kuramoto.coupling_matrix", "qllab.kuramoto", "coupling_matrix"),
    ("witness.attach", "qllab.witness", "attach_witness"),
    ("witness.readout", "qllab.witness", "witness_readout"),
    ("cheeger.exact", "qllab.cheeger", "isoperimetric_exact"),
    ("cheeger.bounds", "qllab.cheeger", "cheeger_bounds"),
    ("csv.write", "qllab.cli", "write_csv"),
    ("cli.parse", "qllab.cli", "load_config"),
    ("cli.run", "qllab.cli", "run"),
)

# Per-layer metrics: (name, unit).  Totals are divided by the traced op
# count, except the two ratios.
METRICS = (
    ("graph.generate.calls", "1/op"),
    ("graph.generate.self_s", "s/op"),
    ("graph.mutate.self_s", "s/op"),
    ("graph.from_edges.calls", "1/op"),
    ("graph.from_edges.edges", "edges/op"),
    ("graph.from_edges.self_s", "s/op"),
    ("graph.adjacency.calls", "1/op"),
    ("graph.adjacency.self_s", "s/op"),
    ("graph.adjacency.bytes", "B/op"),
    ("spectral.eigendecompose.calls", "1/op"),
    ("spectral.eigendecompose.self_s", "s/op"),
    ("spectral.eigendecompose.n3_sum", "n3/op"),
    ("spectral.eigendecompose.failed", "1/op"),
    ("spectral.eigendecompose.repeat_ratio", "ratio"),
    ("spectral.ensemble_spectrum.self_s", "s/op"),
    ("spectral.emergent_state.self_s", "s/op"),
    ("qlbit.build.self_s", "s/op"),
    ("qlbit.project.self_s", "s/op"),
    ("qlproduct.build.self_s", "s/op"),
    ("qlproduct.project.calls", "1/op"),
    ("qlproduct.project.self_s", "s/op"),
    ("qlproduct.verify.self_s", "s/op"),
    ("kuramoto.run.self_s", "s/op"),
    ("kuramoto.steps", "steps/op"),
    ("kuramoto.phase_transform.calls", "1/op"),
    ("kuramoto.phase_transform.self_s", "s/op"),
    ("kuramoto.coupling_matrix.self_s", "s/op"),
    ("witness.attach.self_s", "s/op"),
    ("witness.readout.calls", "1/op"),
    ("witness.readout.self_s", "s/op"),
    ("witness.readout.ambiguous", "1/op"),
    ("cheeger.exact.calls", "1/op"),
    ("cheeger.exact.subsets", "subsets/op"),
    ("cheeger.exact.self_s", "s/op"),
    ("cheeger.bounds.self_s", "s/op"),
    ("csv.write.calls", "1/op"),
    ("csv.write.bytes", "B/op"),
    ("csv.write.self_s", "s/op"),
    ("cli.parse.self_s", "s/op"),
    ("cli.run.self_s", "s/op"),
    ("trace.overhead_ratio", "ratio"),
)

# Eigenvalue lists that agree this closely (relative to the spectral
# radius) count as the same spectrum solved again.
REPEAT_TOL = 1e-9


class Tracer:
    """Span accounting for the traced entries; install() to start tracing."""

    def __init__(self, entries=ENTRIES):
        self.entries = entries
        self.totals = defaultdict(float)
        self.absent = []
        self.op_ambiguous = []
        self.stack = []
        self.patched = []
        self.op_spectra = []
        self.ambiguous_at_start = 0.0

    # -- op boundaries -------------------------------------------------

    def begin_op(self):
        self.op_spectra = []
        self.ambiguous_at_start = self.totals["witness.readout.ambiguous"]

    def end_op(self):
        self.op_ambiguous.append(
            int(self.totals["witness.readout.ambiguous"] - self.ambiguous_at_start)
        )

    # -- spans ---------------------------------------------------------

    def wrap(self, prefix, func):
        observe = _OBSERVERS.get(prefix)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = [0.0]
            self.stack.append(frame)
            start = time.perf_counter()
            result = exc = None
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                elapsed = time.perf_counter() - start
                self.stack.pop()
                self.totals[prefix + ".calls"] += 1
                self.totals[prefix + ".self_s"] += elapsed - frame[0]
                if observe is not None:
                    observe(self, args, result, exc)
                # The observer's own cost is charged to no layer.
                if self.stack:
                    self.stack[-1][0] += time.perf_counter() - start

        return traced

    # -- installation --------------------------------------------------

    def install(self):
        """Re-bind every traced entry; missing ones are listed in `absent`."""
        importlib.import_module("qllab.cli")
        modules = qllab_modules()
        for prefix, module_name, attr in self.entries:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            owner_name, _, name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = vars(owner).get(name) if isinstance(owner, type) else None
                if raw is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(prefix, raw.__func__))
                else:
                    new = self.wrap(prefix, raw)
                setattr(owner, name, new)
                self.patched.append((owner, name, raw))
                continue
            func = getattr(module, attr, None)
            if not callable(func):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self.wrap(prefix, func)
            for mod in modules:
                for bound_name, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, bound_name, wrapper)
                        self.patched.append((mod, bound_name, func))

    def uninstall(self):
        for owner, name, original in reversed(self.patched):
            setattr(owner, name, original)
        self.patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- report --------------------------------------------------------

    def metrics(self, ops: int, overhead_ratio: float) -> dict:
        """Per-layer metrics over `ops` traced ops, keyed as in METRICS."""
        calls = self.totals["spectral.eigendecompose.calls"]
        values = {
            "spectral.eigendecompose.repeat_ratio": (
                self.totals["spectral.eigendecompose.repeats"] / calls if calls else 0.0
            ),
            "trace.overhead_ratio": overhead_ratio,
        }
        return {
            name: {
                "value": values[name] if name in values else self.totals[name] / max(1, ops),
                "unit": unit,
            }
            for name, unit in METRICS
        }


def qllab_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qllab" or name.startswith("qllab."))]


# -- counts taken at the span boundary ---------------------------------


def _observe_from_edges(tracer, args, result, exc):
    if exc is None:
        tracer.totals["graph.from_edges.edges"] += result.num_edges


def _observe_adjacency(tracer, args, result, exc):
    n = args[0].n
    tracer.totals["graph.adjacency.bytes"] += n * n * 16  # computed: complex128


def _observe_eigendecompose(tracer, args, result, exc):
    n = args[0].n
    tracer.totals["spectral.eigendecompose.n3_sum"] += n ** 3  # computed
    if exc is not None:
        tracer.totals["spectral.eigendecompose.failed"] += 1
        return
    values = np.asarray(result.eigenvalues)
    scale = REPEAT_TOL * max(1.0, float(np.abs(values).max()))
    if any(
        prev.shape == values.shape and np.abs(prev - values).max() <= scale
        for prev in tracer.op_spectra
    ):
        tracer.totals["spectral.eigendecompose.repeats"] += 1
    tracer.op_spectra.append(values)


def _observe_kuramoto_run(tracer, args, result, exc):
    # computed from the record times: t[1] = record_every * dt and
    # t[-1] = steps * dt.
    if exc is not None or len(result.t) < 2 or result.t[1] <= 0:
        return
    cfg = args[0]
    steps = round(float(result.t[-1]) * cfg.record_every / float(result.t[1]))
    tracer.totals["kuramoto.steps"] += steps * cfg.realizations


def _observe_readout(tracer, args, result, exc):
    # Today an ambiguous readout raises; ROADMAP item 4 turns it into an
    # 'ambiguous' verdict, which must keep counting here.
    if type(exc).__name__ == "AmbiguousReadoutError" or result == "ambiguous":
        tracer.totals["witness.readout.ambiguous"] += 1


def _observe_isoperimetric(tracer, args, result, exc):
    tracer.totals["cheeger.exact.subsets"] += 2 ** args[0].n - 1  # computed


def _observe_csv(tracer, args, result, exc):
    if exc is None:
        tracer.totals["csv.write.bytes"] += os.path.getsize(args[0])


_OBSERVERS = {
    "graph.from_edges": _observe_from_edges,
    "graph.adjacency": _observe_adjacency,
    "spectral.eigendecompose": _observe_eigendecompose,
    "kuramoto.run": _observe_kuramoto_run,
    "witness.readout": _observe_readout,
    "cheeger.exact": _observe_isoperimetric,
    "csv.write": _observe_csv,
}
