"""Delta embeddings of coordinate domains and induced-metric extraction.

A point a of the coordinate domain embeds as the evaluation functional
delta_a.  The geometry of the image is read off the kernel: the induced
metric at u is the mixed second derivative of the pulled-back kernel
k(X(u), X(v)) at coincidence, which for the flat Gaussian kernels equals
the pullback J^T eta J of the ambient metric.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .elements import SpaceElement
from .errors import DegenerateImmersionError
from .kernels import GAUSSIAN, KernelSpec, Signature, cross_kernel, gram_matrix, kernel_eval

JACOBIAN_FD_STEP = 1e-6
METRIC_FD_STEP = 1e-4
RANK_TOLERANCE = 1e-8


def central_difference_jacobian(f: Callable[[np.ndarray], np.ndarray], u) -> np.ndarray:
    """df/du at u by central differences of step JACOBIAN_FD_STEP, one column per coordinate."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    return np.column_stack([(f(u + h) - f(u - h)) / (2.0 * JACOBIAN_FD_STEP)
                            for h in np.eye(u.shape[0]) * JACOBIAN_FD_STEP])


@dataclass(frozen=True)
class EmbeddingMap:
    """Immersion X: U subset R^n -> R^p with signature on the ambient space."""

    domain_dim: int
    ambient_dim: int
    signature: Signature
    func: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    domain: tuple[tuple[float, float], ...] = ()
    name: str = ""

    def __post_init__(self):
        if self.signature.dim != self.ambient_dim:
            raise ValueError("ambient signature must match the ambient dimension")
        if self.domain and len(self.domain) != self.domain_dim:
            raise ValueError("domain box must have one interval per coordinate")

    def __call__(self, u) -> np.ndarray:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.shape != (self.domain_dim,):
            raise ValueError(f"point dimension {u.shape} does not match domain dimension {self.domain_dim}")
        x = np.atleast_1d(np.asarray(self.func(u), dtype=float))
        if x.shape != (self.ambient_dim,) or not np.isfinite(x).all():
            raise ValueError(f"embedding map must return a finite vector of dimension {self.ambient_dim}")
        return x

    def jacobian_at(self, u) -> np.ndarray:
        """dX/du as a (p, n) matrix; analytic when available, else central FD."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if self.jacobian is not None:
            J = np.asarray(self.jacobian(u), dtype=float)
            if J.shape != (self.ambient_dim, self.domain_dim):
                raise ValueError("analytic jacobian has the wrong shape")
            return J
        return central_difference_jacobian(self, u)

    def contains(self, u, margin: float = 0.0) -> bool:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if not self.domain:
            return True
        return all(lo + margin <= ui <= hi - margin
                   for ui, (lo, hi) in zip(u, self.domain))


@dataclass(frozen=True)
class PulledBackKernel:
    """k_pb(u, v) = k(X(u), X(v)) for a Gaussian ambient kernel."""

    embedding: EmbeddingMap
    spec: KernelSpec

    def __post_init__(self):
        if self.spec.family != GAUSSIAN:
            raise ValueError("pullback kernels are defined for the gaussian family")
        if self.spec.dim != self.embedding.ambient_dim:
            raise ValueError("kernel dimension must match the ambient dimension")

    def __call__(self, u, v) -> float:
        return kernel_eval(self.spec, self.embedding(u), self.embedding(v))


@dataclass(frozen=True)
class MetricTensor:
    """Symmetric metric components at a point of the coordinate domain."""

    point: np.ndarray
    components: np.ndarray

    def __post_init__(self):
        point = np.atleast_1d(np.asarray(self.point, dtype=float))
        g = np.asarray(self.components, dtype=float)
        n = point.shape[0]
        if g.shape != (n, n):
            raise ValueError("metric must be square with one row per coordinate")
        scale = max(1.0, float(np.max(np.abs(g))))
        if np.max(np.abs(g - g.T)) > 1e-12 * scale:
            raise ValueError("metric tensor must be symmetric")
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "components", 0.5 * (g + g.T))

    @property
    def dim(self) -> int:
        return self.point.shape[0]

    def eigenvalue_signature(self, tol: float = RANK_TOLERANCE) -> tuple[int, int]:
        """(positive, negative) eigenvalue counts."""
        w = np.linalg.eigvalsh(self.components)
        scale = max(1.0, float(np.max(np.abs(w))))
        return int(np.sum(w > tol * scale)), int(np.sum(w < -tol * scale))

    def csv_row(self) -> list[float]:
        return [*map(float, self.point), *map(float, self.components.reshape(-1))]


def embed_delta(a, dim: int | None = None) -> SpaceElement:
    """The delta functional sitting over a point of R^p."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    if dim is not None and a.shape != (dim,):
        raise ValueError("point does not have the requested dimension")
    return SpaceElement.delta(a)


def _rank_check(g: np.ndarray, where: str):
    w = np.abs(np.linalg.eigvalsh(g))
    scale = max(float(w.max()), 1e-30)
    if w.min() < RANK_TOLERANCE * scale or scale < 1e-30:
        raise DegenerateImmersionError(
            f"{where}: metric is rank deficient (|eigenvalues| span {w.min():.3e}..{w.max():.3e})"
        )


def induced_metric(pk: PulledBackKernel, u, step: float = METRIC_FD_STEP,
                   richardson: bool = False) -> MetricTensor:
    """Metric induced on the delta image, from mixed kernel derivatives.

    g_{mu nu}(u) = d^2 k_pb(u, v) / du^mu dv^nu at v = u, computed with
    4-point central differences (second order in ``step``); the optional
    Richardson pass eliminates the leading error term.  A step h embeds the 2n
    points u +- h e_k once; with K their kernel matrix, g is the exactly
    symmetric ((K++ + K--) - (K+- + K-+)) / (4 h^2).
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    n = pk.embedding.domain_dim
    if u.shape != (n,):
        raise ValueError("point dimension mismatch")
    if not pk.embedding.contains(u, margin=2.0 * step):
        raise ValueError("point must be interior to the domain with margin 2*step")

    def mixed(h: float) -> np.ndarray:
        stencil = np.concatenate([u + h * np.eye(n), u - h * np.eye(n)])
        xs = np.array([pk.embedding(v) for v in stencil]).T
        K = cross_kernel(xs, xs, pk.spec)
        return ((K[:n, :n] + K[n:, n:]) - (K[:n, n:] + K[n:, :n])) / (4.0 * h * h)

    g = (4.0 * mixed(step / 2.0) - mixed(step)) / 3.0 if richardson else mixed(step)
    _rank_check(g, "induced metric")
    return MetricTensor(u, g)


def require_immersion(J: np.ndarray, u: np.ndarray) -> None:
    """Raise DegenerateImmersionError unless the jacobian J at u has full rank:
    its smallest singular value is at least RANK_TOLERANCE * max(largest, 1)."""
    sv = np.linalg.svd(J, compute_uv=False)
    if sv.min() < RANK_TOLERANCE * max(sv.max(), 1.0):
        raise DegenerateImmersionError(
            f"jacobian rank deficient at {u.tolist()} (singular values {sv.tolist()})"
        )


def analytic_pullback_metric(emb: EmbeddingMap, u) -> MetricTensor:
    """J^T eta J at u, the pullback of the flat ambient metric."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    J = emb.jacobian_at(u)
    require_immersion(J, u)
    eta = emb.signature.eta()
    return MetricTensor(u, J.T @ eta @ J)


def chordal_distance(a, b, spec: KernelSpec) -> float:
    """Norm distance ||delta_a - delta_b|| in a positive-definite kernel space."""
    if not spec.is_positive_definite():
        raise ValueError("chordal distance requires a positive-definite kernel")
    k = gram_matrix([a, b], spec)
    return float(np.sqrt(max(k[0, 0] + k[1, 1] - 2.0 * k[0, 1], 0.0)))


def _single_delta_base(e: SpaceElement, what: str) -> tuple[complex, np.ndarray]:
    if e.gaussians or len(e.deltas) != 1 or e.deltas[0].order != 0:
        raise ValueError(f"{what} is defined for pure zero-order delta elements")
    t = e.deltas[0]
    if abs(t.coeff - 1.0) > 1e-12:
        raise ValueError(f"{what} requires unit-coefficient delta images")
    return t.coeff, t.base


def delta_oplus(da: SpaceElement, db: SpaceElement) -> SpaceElement:
    """Induced addition on delta images: omega(a) (+) omega(b) = omega(a+b)."""
    _, a = _single_delta_base(da, "induced addition")
    _, b = _single_delta_base(db, "induced addition")
    if a.shape != b.shape:
        raise ValueError("operands live over different dimensions")
    return SpaceElement.delta(a + b)


def delta_scale(scalar: float, da: SpaceElement) -> SpaceElement:
    """Induced scalar action: lambda (.) omega(a) = omega(lambda a)."""
    _, a = _single_delta_base(da, "induced scaling")
    return SpaceElement.delta(float(scalar) * a)
