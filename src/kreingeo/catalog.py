"""Built-in embeddings with reference metrics, and user-defined map parsing.

Every catalog entry bundles an embedding map, the kernel of its ambient
space, and (for the Gaussian entries) the closed-form metric the induced
computation must reproduce.  The de Sitter entry follows the module-wide
convention that negative-signature coordinates come last.
"""

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CatalogConsistencyError, ExpressionError
from .expressions import evaluate, max_var_index, parse_expression
from .geometry import EmbeddingMap, MetricTensor, analytic_pullback_metric
from .kernels import KernelSpec, Signature

SELF_CHECK_TOLERANCE = 1e-6
_BUILTIN_CHECK_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CatalogEntry:
    """An embedding, its ambient kernel, and an optional reference metric."""

    name: str
    embedding: EmbeddingMap
    spec: KernelSpec
    metric: Callable[[np.ndarray], np.ndarray] | None
    description: str = ""

    def analytic_metric_at(self, u) -> MetricTensor:
        if self.metric is None:
            raise ValueError(f"catalog entry {self.name!r} carries no reference metric")
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return MetricTensor(u, np.asarray(self.metric(u), dtype=float))


def _entry_euclidean3() -> CatalogEntry:
    sig = Signature(3, 0)
    emb = EmbeddingMap(
        3, 3, sig,
        func=lambda u: u,
        jacobian=lambda u: np.eye(3),
        domain=((-2.0, 2.0),) * 3,
        name="euclidean3",
    )
    return CatalogEntry("euclidean3", emb, KernelSpec.gaussian(3, 0),
                        lambda u: np.eye(3),
                        "Flat Euclidean 3-space as the identity embedding")


def _entry_minkowski31() -> CatalogEntry:
    sig = Signature(3, 1)
    emb = EmbeddingMap(
        4, 4, sig,
        func=lambda u: u,
        jacobian=lambda u: np.eye(4),
        domain=((-2.0, 2.0),) * 4,
        name="minkowski31",
    )
    return CatalogEntry("minkowski31", emb, KernelSpec.gaussian(3, 1),
                        lambda u: np.diag([1.0, 1.0, 1.0, -1.0]),
                        "Flat space-time, coordinates (x1, x2, x3, t), metric diag(1,1,1,-1)")


def _entry_sphere2() -> CatalogEntry:
    sig = Signature(3, 0)

    def func(u):
        th, ph = u
        return np.array([math.sin(th) * math.cos(ph), math.sin(th) * math.sin(ph), math.cos(th)])

    def jac(u):
        th, ph = u
        return np.array([
            [math.cos(th) * math.cos(ph), -math.sin(th) * math.sin(ph)],
            [math.cos(th) * math.sin(ph), math.sin(th) * math.cos(ph)],
            [-math.sin(th), 0.0],
        ])

    emb = EmbeddingMap(2, 3, sig, func=func, jacobian=jac,
                       domain=((0.2, math.pi - 0.2), (0.0, 2.0 * math.pi)),
                       name="sphere2")
    return CatalogEntry("sphere2", emb, KernelSpec.gaussian(3, 0),
                        lambda u: np.diag([1.0, math.sin(u[0]) ** 2]),
                        "Unit round sphere, coordinates (theta, phi); poles excluded")


def _entry_flat_torus2() -> CatalogEntry:
    sig = Signature(4, 0)

    def func(u):
        return np.array([math.cos(u[0]), math.sin(u[0]), math.cos(u[1]), math.sin(u[1])])

    def jac(u):
        return np.array([
            [-math.sin(u[0]), 0.0],
            [math.cos(u[0]), 0.0],
            [0.0, -math.sin(u[1])],
            [0.0, math.cos(u[1])],
        ])

    emb = EmbeddingMap(2, 4, sig, func=func, jacobian=jac,
                       domain=((0.0, 2.0 * math.pi),) * 2, name="flat_torus2")
    return CatalogEntry("flat_torus2", emb, KernelSpec.gaussian(4, 0),
                        lambda u: np.eye(2),
                        "Flat Clifford torus in R^4")


def _entry_de_sitter2() -> CatalogEntry:
    # Ambient signature (2, 1) with the timelike coordinate last.
    sig = Signature(2, 1)

    def func(u):
        tau, th = u
        return np.array([math.cosh(tau) * math.cos(th), math.cosh(tau) * math.sin(th),
                         math.sinh(tau)])

    def jac(u):
        tau, th = u
        return np.array([
            [math.sinh(tau) * math.cos(th), -math.cosh(tau) * math.sin(th)],
            [math.sinh(tau) * math.sin(th), math.cosh(tau) * math.cos(th)],
            [math.cosh(tau), 0.0],
        ])

    emb = EmbeddingMap(2, 3, sig, func=func, jacobian=jac,
                       domain=((-1.0, 1.0), (0.0, 2.0 * math.pi)), name="de_sitter2")
    return CatalogEntry("de_sitter2", emb, KernelSpec.gaussian(2, 1),
                        lambda u: np.diag([-1.0, math.cosh(u[0]) ** 2]),
                        "One-sheet hyperboloid in R^(2,1): metric -dtau^2 + cosh^2(tau) dtheta^2")


def _entry_circle_sobolev() -> CatalogEntry:
    sig = Signature(1, 0)
    emb = EmbeddingMap(1, 1, sig,
                       func=lambda u: u,
                       jacobian=lambda u: np.eye(1),
                       domain=((0.0, 2.0 * math.pi),), name="circle_sobolev")
    # The periodic Sobolev kernel wraps the line onto the circle; there is
    # no flat ambient pullback, so no reference metric is attached.
    return CatalogEntry("circle_sobolev", emb, KernelSpec.periodic_sobolev(),
                        None,
                        "Circle topology carried by the periodic Sobolev kernel")


_BUILTINS: dict[str, Callable[[], CatalogEntry]] = {
    "euclidean3": _entry_euclidean3,
    "minkowski31": _entry_minkowski31,
    "sphere2": _entry_sphere2,
    "flat_torus2": _entry_flat_torus2,
    "de_sitter2": _entry_de_sitter2,
    "circle_sobolev": _entry_circle_sobolev,
}

# Expression-language equivalents of the builtin maps, used for parser
# round-trip checks and as ready-made examples of the config format.
BUILTIN_EXPRESSIONS: dict[str, list[str]] = {
    "euclidean3": ["u1", "u2", "u3"],
    "minkowski31": ["u1", "u2", "u3", "u4"],
    "sphere2": ["sin(u1) * cos(u2)", "sin(u1) * sin(u2)", "cos(u1)"],
    "flat_torus2": ["cos(u1)", "sin(u1)", "cos(u2)", "sin(u2)"],
    "de_sitter2": ["cosh(u1) * cos(u2)", "cosh(u1) * sin(u2)", "sinh(u1)"],
    "circle_sobolev": ["u1"],
}


def builtin_names() -> list[str]:
    return sorted(_BUILTINS)


def builtin(name: str) -> CatalogEntry:
    """Fully populated catalog entry; raises on unknown names."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown catalog entry {name!r}; "
                         f"available: {', '.join(builtin_names())}") from None
    entry = factory()
    if entry.metric is not None:
        _self_check(entry, tolerance=_BUILTIN_CHECK_TOLERANCE)
    return entry


def _interior_points(domain) -> np.ndarray:
    """Five seeded random points of the domain box, 5% away from its faces."""
    rng = np.random.default_rng(12345)
    lo, hi = np.array(domain, dtype=float).T
    pad = 0.05 * (hi - lo)
    return rng.uniform(lo + pad, hi - pad, size=(5, len(domain)))


def _self_check(entry: CatalogEntry, tolerance: float):
    """Verify that the map is an immersion at five seeded interior points
    and that a declared metric equals J^T eta J there."""
    points = _interior_points(entry.embedding.domain)
    pulled = [analytic_pullback_metric(entry.embedding, u).components for u in points]
    if entry.metric is None:
        return
    for u, g in zip(points, pulled):
        declared = entry.analytic_metric_at(u).components
        scale = max(1.0, float(np.max(np.abs(g))))
        dev = float(np.max(np.abs(declared - g))) / scale
        if dev > tolerance:
            raise CatalogConsistencyError(
                f"entry {entry.name!r}: declared metric deviates from the "
                f"pullback by {dev:.3e} at {u.tolist()}"
            )


_ALLOWED_KEYS = {"name", "description", "domain_dim", "signature", "domain", "maps", "metric"}


def parse_embedding(text: str) -> CatalogEntry:
    """Build a catalog entry from a JSON config.

    Schema::

        {"name": "...", "domain_dim": n, "signature": [k, l],
         "domain": [[lo, hi], ...], "maps": ["expr", ...],
         "metric": [["expr", ...], ...]}   # optional

    The jacobian is taken by finite differences.  The map must be an
    immersion at five seeded random interior points, and a declared metric
    must equal the pullback there.
    """
    try:
        record = json.loads(text)
    except json.JSONDecodeError as ex:
        raise ExpressionError(ex.msg, line=ex.lineno, column=ex.colno) from None
    if not isinstance(record, dict):
        raise ExpressionError("embedding config must be a JSON object")
    unknown = set(record) - _ALLOWED_KEYS
    if unknown:
        raise ExpressionError(f"unknown config keys: {sorted(unknown)}")
    for key in ("domain_dim", "signature", "domain", "maps"):
        if key not in record:
            raise ExpressionError(f"missing config key {key!r}")

    n = int(record["domain_dim"])
    k, l = (int(v) for v in record["signature"])
    sig = Signature(k, l)
    domain = tuple((float(lo), float(hi)) for lo, hi in record["domain"])
    if len(domain) != n:
        raise ExpressionError("domain box must list one interval per coordinate")
    if any(hi <= lo for lo, hi in domain):
        raise ExpressionError("domain intervals must be nonempty")
    maps = [parse_expression(s) for s in record["maps"]]
    if len(maps) != sig.dim:
        raise ExpressionError(
            f"got {len(maps)} map expressions for ambient dimension {sig.dim}")
    for expr in maps:
        if max_var_index(expr) > n:
            raise ExpressionError("map expression uses a variable beyond the domain dimension")

    def func(u, _maps=tuple(maps)):
        return np.array([float(evaluate(e, u)) for e in _maps])

    name = str(record.get("name", "user_embedding"))
    emb = EmbeddingMap(n, sig.dim, sig, func=func, jacobian=None,
                       domain=domain, name=name)

    metric_fn = None
    if "metric" in record:
        rows = [[parse_expression(s) for s in row] for row in record["metric"]]
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ExpressionError("metric must be an n x n array of expressions")

        def metric_fn(u, _rows=tuple(tuple(r) for r in rows)):
            return np.array([[float(evaluate(e, u)) for e in row] for row in _rows])

    entry = CatalogEntry(name, emb, KernelSpec(signature=sig), metric_fn,
                         str(record.get("description", "")))

    _self_check(entry, tolerance=SELF_CHECK_TOLERANCE)
    return entry
