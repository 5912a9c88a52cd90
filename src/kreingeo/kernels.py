"""Kernel families and their pointwise evaluation.

Two kernel families are supported:

* ``gaussian`` -- exp(-L^2/2 sum_pos (x_i-y_i)^2 + L^2/2 sum_neg (x_j-y_j)^2)
  on R^p with signature (pos, neg), optionally carrying the normalization
  prefactor (L/sqrt(2 pi))^pos in the positive-definite case;
* ``periodic_sobolev`` -- the truncated Fourier kernel
  sum_{|n|<=N} e^{i n (x-y)} / (2 pi (1+n^2)) of the first-order Sobolev
  space of 2pi-periodic functions on the line.

Gram matrices are built without (N, N, d) or (N, N, T) arrays; see ``gram_matrix``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

GAUSSIAN = "gaussian"
PERIODIC_SOBOLEV = "periodic_sobolev"


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
    if not all(map(math.isfinite, x.tolist())):
        raise ValueError(f"point {x.tolist()} is not finite")
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


def signed_square_distances(pts: np.ndarray, signs) -> np.ndarray:
    """sum_k signs[k] (x_ik - x_jk)^2, one axis at a time: bit for bit numpy's sum over < 8 axes."""
    sq = np.zeros((len(pts), len(pts)))
    for k, sign in enumerate(signs):
        sq += (pts[:, k, None] - pts[None, :, k]) ** 2 * sign
    return sq


def gram_matrix(points, spec: KernelSpec) -> np.ndarray:
    """Pairwise kernel matrix of a list of finite points, exactly symmetric.

    Sobolev: cos(n(x-y)) = cos(nx)cos(ny) + sin(nx)sin(ny), so the series is (C/w) C^T + (S/w) S^T
    with (N, T) feature matrices C, S and w_n = 1+n^2: O(N*T + N^2) memory.  Gaussian: O(N^2).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("need a nonempty list of points")
    if pts.shape[1] != spec.dim:
        raise ValueError(f"points of dimension {pts.shape[1]} do not match kernel dimension {spec.dim}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    if spec.family == PERIODIC_SOBOLEV:
        n = np.arange(1, spec.truncation + 1)
        cos, sin, w = np.cos(pts * n), np.sin(pts * n), 1.0 + n * n
        series = (cos / w) @ cos.T + (sin / w) @ sin.T
        return (1.0 + (series + series.T)) / (2.0 * math.pi)  # 2 * series, exactly symmetric
    sq = signed_square_distances(pts, spec.signature.signs())
    return spec.prefactor() * np.exp(-0.5 * spec.scale ** 2 * sq)
