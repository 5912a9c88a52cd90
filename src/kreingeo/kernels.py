"""Kernel families and their evaluation on point sets.

Two kernel families are supported:

* ``gaussian`` -- exp(-L^2/2 sum_pos (x_i-y_i)^2 + L^2/2 sum_neg (x_j-y_j)^2)
  on R^p with signature (pos, neg), optionally carrying the normalization
  prefactor (L/sqrt(2 pi))^pos in the positive-definite case;
* ``periodic_sobolev`` -- the truncated Fourier kernel
  sum_{|n|<=N} e^{i n (x-y)} / (2 pi (1+n^2)) of the first-order Sobolev
  space of 2pi-periodic functions on the line.

``cross_kernel`` is the one place each formula is written.  ``kernel_eval`` is its
1x1 case and ``gram_matrix`` its blocked upper triangle, mirrored into the lower one:
no (N, N, d) or (N, N, T) array, and O(GRAM_BLOCK_ROWS * N) scratch.  The quadrature
oracle reads it through ``gram_matrix`` too, for the one-axis kernel matrix of each sign.
"""

import math
from dataclasses import dataclass, field

import numpy as np

GAUSSIAN = "gaussian"
PERIODIC_SOBOLEV = "periodic_sobolev"

# Rows per block of the Gaussian Gram build: in per-call timings on (3, 1) point sets of
# 200-2000 points, 64 was fastest or level with 16-256.  A (64, 2000) block is 1 MB.
GRAM_BLOCK_ROWS = 64


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


def _columns(points, spec: KernelSpec) -> np.ndarray:
    """A nonempty list of finite points of the kernel's dimension as (d, N) coordinate rows."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("need a nonempty list of points")
    if pts.shape[1] != spec.dim:
        raise ValueError(f"points of dimension {pts.shape[1]} do not match kernel dimension {spec.dim}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return np.ascontiguousarray(pts.T)


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """Kernel value k(x, y); symmetric, and 1 at zero separation (unnormalized)."""
    xs, ys = (_columns(np.reshape(p, (1, -1)), spec) for p in (x, y))
    return float(cross_kernel(xs, ys, spec)[0, 0])


def signed_square_distances(xs, ys, signs, out=None) -> np.ndarray:
    """(m, n) matrix of sum_k signs[k] (x_ik - y_jk)^2 for points given axis by axis.

    ``xs`` and ``ys`` have shapes (d, m) and (d, n), and each sign is +1 or -1.  The sum
    starts at 0 and adds or subtracts each axis's squared difference in axis order: numpy's
    broadcast sum over < 8 axes, bit for bit, and exactly the transpose of the (ys, xs)
    matrix, since (a - b)^2 == (b - a)^2 in floating point.  Rows of ``xs`` and ``ys`` with
    unit stride keep the subtraction vectorised.
    """
    sq = np.empty((len(xs[0]), len(ys[0]))) if out is None else out
    xs = xs[:, :, None]  # row k is a column against ys[k]
    # Outputs are passed by position: the out= keyword costs about 1 us a call, felt at N = 10.
    np.square(np.subtract(xs[0], ys[0], sq), sq)
    if signs[0] < 0:
        np.subtract(0.0, sq, sq)  # 0 - d^2 keeps a zero distance +0, as 0 + (-d^2) does
    if len(signs) > 1:
        tmp = np.empty_like(sq)
        for k in range(1, len(signs)):
            np.square(np.subtract(xs[k], ys[k], tmp), tmp)
            (np.add if signs[k] > 0 else np.subtract)(sq, tmp, sq)
    return sq


def cross_kernel(xs, ys, spec: KernelSpec, out=None) -> np.ndarray:
    """(m, n) matrix of k(x_i, y_j) for points given axis by axis, shapes (d, m) and (d, n).

    Gaussian: ``signed_square_distances``, times -s^2/2, exp and the prefactor, in place in
    ``out``; exactly the transpose of the (ys, xs) matrix.  Sobolev: cos(n(x-y)) splits into
    features, so the series is (C_x/w) C_y^T + (S_x/w) S_y^T with w_n = 1+n^2.  With ``ys is
    xs`` the features are built once and the series added to its transpose: exactly symmetric.
    """
    if spec.family == PERIODIC_SOBOLEV:
        n = np.arange(1, spec.truncation + 1)
        cx, sx, w = np.cos(xs[0][:, None] * n), np.sin(xs[0][:, None] * n), 1.0 + n * n
        cy, sy = (cx, sx) if ys is xs else (np.cos(ys[0][:, None] * n), np.sin(ys[0][:, None] * n))
        series = (cx / w) @ cy.T + (sx / w) @ sy.T
        out = np.add(series, series.T if ys is xs else series, out)
        return np.divide(np.add(1.0, out, out), 2.0 * math.pi, out)
    out = signed_square_distances(xs, ys, spec.signature.signs(), out)
    np.exp(np.multiply(out, -0.5 * spec.scale ** 2, out), out)
    if spec.normalized:  # the prefactor is 1 otherwise, and times 1.0 is exact
        np.multiply(out, spec.prefactor(), out)
    return out


def gram_matrix(points, spec: KernelSpec) -> np.ndarray:
    """Pairwise kernel matrix of a list of finite points, exactly symmetric.

    Sobolev: the ``cross_kernel`` of the points with themselves.  Gaussian: ``cross_kernel``
    blocks of ``GRAM_BLOCK_ROWS`` rows over columns i0..N in one reused scratch, each
    mirrored into the rows below it: every entry bit for bit the whole-matrix formula.
    """
    cols = _columns(points, spec)
    if spec.family == PERIODIC_SOBOLEV:
        return cross_kernel(cols, cols, spec)
    n = cols.shape[1]
    gram = np.empty((n, n))
    scratch = np.empty(min(GRAM_BLOCK_ROWS, n) * n)
    for i0 in range(0, n, GRAM_BLOCK_ROWS):
        i1 = min(i0 + GRAM_BLOCK_ROWS, n)
        block = scratch[:(i1 - i0) * (n - i0)].reshape(i1 - i0, n - i0)
        cross_kernel(cols[:, i0:i1], cols[:, i0:], spec, out=block)
        gram[i0:i1, i0:] = block
        gram[i1:, i0:i1] = block[:, i1 - i0:].T
    return gram
