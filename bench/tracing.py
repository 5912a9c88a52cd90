"""Spans and counters around calls into kreingeo, installed from outside src/.

The tracer replaces public functions and a few methods with wrappers.  A
function is replaced in every loaded ``kreingeo`` module that holds it,
so names bound by ``from .x import y`` (in experiments, algebra, dynamics,
groups, ...) are traced too.  Spans are kept in memory as
(name, parent, phase, start, end) columns and written out at the end; a
span's self time is its duration minus the durations of its children.

Per-layer metrics are given for one unit of the workload: one set-up, one
pass of its experiment set and one round of its cases.  Each phase's total
is divided by the number of times the phase ran, so counts repeat exactly
for a seed however long the run was.
"""

import functools
import sys
import time
from array import array

import numpy as np

SETUP, EXPERIMENT, CASE, PREPARE = range(4)

# (module, attribute, span name).  Recursive functions are not replaced in
# their own module, so one top-level evaluation gives one span.
SPANS = (
    ("kreingeo.algebra", "inner_product", "algebra.inner_product"),
    ("kreingeo.polygauss", "PolyGaussian.integrate", "polygauss.integrate"),
    ("kreingeo.elements", "SpaceElement.evaluate", "elements.evaluate"),
    ("kreingeo.quadrature", "quadrature_inner_product", "quadrature"),
    ("kreingeo.kernels", "gram_matrix", "kernels.gram_matrix"),
    ("kreingeo.kernels", "kernel_eval", "kernels.kernel_eval"),
    ("kreingeo.geometry", "induced_metric", "geometry.induced_metric"),
    ("kreingeo.groups", "extend_to_span", "groups.extend_to_span"),
    ("kreingeo.groups", "check_gram_invariance", "groups.check_gram_invariance"),
    ("kreingeo.expressions", "evaluate", "expressions.evaluate"),
    ("kreingeo.dynamics", "slice_inner_product", "dynamics.slice_inner_product"),
    ("kreingeo.dynamics", "schrodinger_residual", "dynamics.residual"),
    ("kreingeo.dynamics", "pde_residual_fd", "dynamics.residual"),
    ("kreingeo.catalog", "builtin", "catalog.builtin"),
    ("kreingeo.experiments", "run_experiment", "experiments.run"),
    ("kreingeo.experiments", "_emit", "experiments.write"),
    ("kreingeo.experiments", "_dump_elements", "experiments.write"),
    ("kreingeo.experiments", "write_report", "experiments.write"),
)
RECURSIVE = {("kreingeo.expressions", "evaluate")}

# (module, attribute, counter): calls counted without a span.
COUNTS = (
    ("kreingeo.polygauss", "PolyGaussian.differentiate", "polygauss.differentiate.calls"),
    ("kreingeo.elements", "GaussianTerm.__post_init__", "elements.term_validations"),
    ("kreingeo.geometry", "PulledBackKernel.__call__", "geometry.kernel_calls"),
    ("kreingeo.groups", "apply_point", "groups.apply_point.calls"),
    ("kreingeo.quadrature", "_check_boundary", None),
)


def _term_count(e) -> int:
    return len(e.gaussians) + len(e.deltas)


def _term_pairs(e1, e2, spec):
    return (("algebra.term_pairs", _term_count(e1) * _term_count(e2)),)


def _quadrature_nodes(e1, e2, spec, grid=None):
    """Nodes of the tensor grid the oracle integrates over (the axis-separable
    path evaluates only dim * nodes of them)."""
    if grid is None:
        grid = sys.modules["kreingeo.quadrature"].QuadratureGrid()
    return (("quadrature.nodes", grid.nodes ** spec.dim),)


def _integrand_bytes(values, boundary_mask):
    return (("quadrature.integrand_bytes", values.nbytes),)


def _gram_entries(points, spec):
    n = np.asarray(points).shape[0]
    terms = n * n * spec.truncation if spec.family == "periodic_sobolev" else 0
    return (("kernels.gram_matrix.entries", n * n), ("kernels.sobolev_terms", terms))


# Work counts derived from arguments or array sizes, not from calls; the
# benchmark labels them as computed.
EXTRAS = {
    "inner_product": _term_pairs,
    "quadrature_inner_product": _quadrature_nodes,
    "_check_boundary": _integrand_bytes,
    "gram_matrix": _gram_entries,
}

# Reported per-layer metrics and their units.  A name is a span name plus
# ".s" (self time) or ".calls", or a counter name.
PER_LAYER = {
    "algebra.inner_product.calls": "count",
    "algebra.inner_product.s": "s",
    "algebra.term_pairs": "count_computed",
    "polygauss.integrate.calls": "count",
    "polygauss.integrate.s": "s",
    "polygauss.differentiate.calls": "count",
    "elements.term_validations": "count",
    "quadrature.calls": "count",
    "quadrature.s": "s",
    "quadrature.nodes": "count_computed",
    "quadrature.integrand_bytes": "B_computed",
    "elements.evaluate.s": "s",
    "kernels.gram_matrix.calls": "count",
    "kernels.gram_matrix.s": "s",
    "kernels.gram_matrix.entries": "count_computed",
    "kernels.sobolev_terms": "count_computed",
    "kernels.kernel_eval.calls": "count",
    "kernels.kernel_eval.s": "s",
    "geometry.induced_metric.calls": "count",
    "geometry.induced_metric.s": "s",
    "geometry.kernel_calls": "count",
    "groups.apply_point.calls": "count",
    "groups.extend_to_span.s": "s",
    "groups.check_gram_invariance.s": "s",
    "expressions.evaluate.calls": "count",
    "expressions.evaluate.s": "s",
    "dynamics.slice_inner_product.calls": "count",
    "dynamics.slice_inner_product.s": "s",
    "dynamics.residual.s": "s",
    "catalog.builtin.s": "s",
    "experiments.run.s": "s",
    "experiments.write.s": "s",
}


def _resolve(module, attr: str):
    """(owner, name) of a dotted attribute such as ``Class.method``."""
    owner = module
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """In-memory span and counter store with the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.phase = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, list[float]] = {}
        self.units = [0, 0, 0, 0]
        self.current_phase = SETUP
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.phase.append(self.current_phase)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        """Context manager for a root span opened by the benchmark itself."""
        return _Span(self, self._id(name))

    def add(self, counter: str, amount) -> None:
        slot = self.counts.setdefault(counter, [0, 0, 0, 0])
        slot[self.current_phase] += amount

    def _wrap(self, fn, span: str | None, counter: str | None, extra):
        name_id = None if span is None else self._id(span)
        begin, finish, add = self.begin, self.finish, self.add

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                add(counter, 1)
            if extra is not None:
                for key, amount in extra(*args, **kwargs):
                    add(key, amount)
            if name_id is None:
                return fn(*args, **kwargs)
            idx = begin(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(idx)

        return wrapper

    def install(self) -> None:
        """Wrap the traced functions of the currently loaded kreingeo modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "kreingeo" or n.startswith("kreingeo."))]
        targets = [(m, a, s, None) for m, a, s in SPANS] + [(m, a, None, c) for m, a, c in COUNTS]
        for mod_name, attr, span, counter in targets:
            owner, name = _resolve(sys.modules[mod_name], attr)
            original = getattr(owner, name)
            wrapper = self._wrap(original, span, counter, EXTRAS.get(name))
            if owner is not sys.modules[mod_name]:
                setattr(owner, name, wrapper)
                continue
            for module in modules:
                if module is owner and (mod_name, attr) in RECURSIVE:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def per_layer(self) -> dict[str, dict]:
        """Per-layer metrics for one set-up, one experiment pass and one case round."""
        n = len(self.start)
        names = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int64)
        phase = np.array(self.phase, dtype=np.int8)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - children
        scale = np.array([1.0 / u if u else 0.0 for u in self.units])

        def per_unit(values_by_phase) -> float:
            return float(np.dot(values_by_phase, scale))

        totals = {}
        for name, name_id in self._ids.items():
            mask = names == name_id
            by_phase_s = np.bincount(phase[mask], weights=self_time[mask], minlength=4)[:4]
            by_phase_n = np.bincount(phase[mask], minlength=4)[:4]
            totals[name + ".s"] = per_unit(by_phase_s)
            totals[name + ".calls"] = per_unit(by_phase_n)
        for counter, by_phase in self.counts.items():
            totals[counter] = per_unit(np.array(by_phase, dtype=float))
        return {metric: {"value": totals.get(metric, 0.0), "unit": unit}
                for metric, unit in PER_LAYER.items()}

    def write(self, path, seed: int) -> None:
        """Write the spans out as columns of one .npz file."""
        np.savez_compressed(
            path, seed=seed, units=np.array(self.units),
            names=np.array(self.names), name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int64),
            phase=np.array(self.phase, dtype=np.int8),
            start=np.array(self.start), end=np.array(self.end))


class _Span:
    __slots__ = ("tracer", "name_id", "idx")

    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.idx = self.tracer.begin(self.name_id)
        return self

    def __exit__(self, *exc):
        self.tracer.finish(self.idx)
        return False
