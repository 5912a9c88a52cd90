"""Kernel families and their pointwise evaluation.

Two kernel families are supported:

* ``gaussian`` -- exp(-L^2/2 sum_pos (x_i-y_i)^2 + L^2/2 sum_neg (x_j-y_j)^2)
  on R^p with signature (pos, neg), optionally carrying the normalization
  prefactor (L/sqrt(2 pi))^pos in the positive-definite case;
* ``periodic_sobolev`` -- the truncated Fourier kernel
  sum_{|n|<=N} e^{i n (x-y)} / (2 pi (1+n^2)) of the first-order Sobolev
  space of 2pi-periodic functions on the line.
"""

import math
from dataclasses import dataclass, field

import numpy as np

GAUSSIAN = "gaussian"
PERIODIC_SOBOLEV = "periodic_sobolev"

# Elements of the (rows, N, truncation) cosine array of a periodic-Sobolev
# Gram matrix evaluated at a time, so its memory stays O(N^2) however large
# the truncation.
SOBOLEV_BLOCK_ELEMENTS = 1 << 21


@dataclass(frozen=True)
class Signature:
    """Counts of positive- and negative-metric directions of R^(pos+neg)."""

    pos: int
    neg: int

    def __post_init__(self):
        for name in ("pos", "neg"):
            count = getattr(self, name)
            if not float(count).is_integer():
                raise ValueError(f"signature counts must be whole numbers, not {count!r}")
            object.__setattr__(self, name, int(count))
        if self.pos < 0 or self.neg < 0:
            raise ValueError("signature counts must be nonnegative")
        if self.pos + self.neg < 1:
            raise ValueError("ambient dimension must be at least 1")

    @property
    def dim(self) -> int:
        return self.pos + self.neg

    def eta(self) -> np.ndarray:
        """Flat metric diag(+1 ... +1, -1 ... -1)."""
        return np.diag(self.signs())

    def signs(self) -> np.ndarray:
        return np.array([1.0] * self.pos + [-1.0] * self.neg)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family, signature, scale and normalization choice."""

    family: str = GAUSSIAN
    signature: Signature = field(default_factory=lambda: Signature(3, 0))
    scale: float = 1.0
    normalized: bool = False
    truncation: int = 2000

    def __post_init__(self):
        if self.family not in (GAUSSIAN, PERIODIC_SOBOLEV):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be positive and finite")
        if self.normalized and self.signature.neg > 0:
            raise ValueError("normalization is defined only for positive signatures")
        if self.truncation < 1:
            raise ValueError("truncation must be at least 1")
        if self.family == PERIODIC_SOBOLEV and self.signature != Signature(1, 0):
            raise ValueError("periodic_sobolev kernel lives on the line, signature (1, 0)")

    @classmethod
    def gaussian(cls, pos: int, neg: int = 0, scale: float = 1.0,
                 normalized: bool = False) -> "KernelSpec":
        return cls(GAUSSIAN, Signature(pos, neg), scale, normalized)

    @classmethod
    def periodic_sobolev(cls, truncation: int = 2000) -> "KernelSpec":
        return cls(PERIODIC_SOBOLEV, Signature(1, 0), 1.0, False, truncation)

    @property
    def dim(self) -> int:
        return self.signature.dim

    def signed_quad(self) -> np.ndarray:
        """Matrix S with k(x, y) = prefactor * exp(-1/2 (x-y)^T S (x-y))."""
        return self.scale ** 2 * self.signature.eta()

    def prefactor(self) -> float:
        if self.normalized:
            return (self.scale / math.sqrt(2.0 * math.pi)) ** self.signature.pos
        return 1.0

    def is_positive_definite(self) -> bool:
        return self.family == PERIODIC_SOBOLEV or self.signature.neg == 0


def sobolev_kernel_value(theta: float, truncation: int) -> float:
    """Truncated Fourier sum of the periodic Sobolev kernel at angle theta."""
    n = np.arange(1, truncation + 1)
    return float((1.0 + 2.0 * np.sum(np.cos(n * theta) / (1.0 + n * n))) / (2.0 * math.pi))


def sobolev_coth_reference() -> float:
    """Closed form of the untruncated kernel at zero separation, coth(pi)/2."""
    return math.cosh(math.pi) / math.sinh(math.pi) / 2.0


def _check_point(spec: KernelSpec, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (spec.dim,):
        raise ValueError(f"point of dimension {x.shape} does not match kernel dimension {spec.dim}")
    return x


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Kernel value k(x, y); symmetric, and 1 at zero separation (unnormalized)."""
    x = _check_point(spec, x)
    y = _check_point(spec, y)
    if spec.family == PERIODIC_SOBOLEV:
        return sobolev_kernel_value(float(x[0] - y[0]), spec.truncation)
    d = x - y
    exponent = -0.5 * spec.scale ** 2 * float(spec.signature.signs() @ (d * d))
    return spec.prefactor() * math.exp(exponent)


def gram_matrix(points, spec: KernelSpec) -> np.ndarray:
    """Pairwise kernel matrix of a list of points."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("need a nonempty list of points")
    if pts.shape[1] != spec.dim:
        raise ValueError(f"points of dimension {pts.shape[1]} do not match kernel dimension {spec.dim}")
    if spec.family == PERIODIC_SOBOLEV:
        diffs = pts[:, 0][:, None] - pts[None, :, 0]
        n = np.arange(1, spec.truncation + 1)
        rows = max(1, SOBOLEV_BLOCK_ELEMENTS // (len(diffs) * spec.truncation))
        series = np.empty_like(diffs)
        for start in range(0, len(diffs), rows):
            block = diffs[start:start + rows]
            series[start:start + rows] = (np.cos(block[..., None] * n) / (1.0 + n * n)).sum(axis=-1)
        return (1.0 + 2.0 * series) / (2.0 * math.pi)
    signs = spec.signature.signs()
    sq = ((pts[:, None, :] - pts[None, :, :]) ** 2 * signs).sum(axis=-1)
    return spec.prefactor() * np.exp(-0.5 * spec.scale ** 2 * sq)
