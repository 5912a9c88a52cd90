"""Tensor-product quadrature oracle for the closed-form inner products.

The double integral of the kernel form is evaluated on Gauss--Legendre
grids, entirely independently of the Gaussian matrix algebra.  The Gaussian
kernel factorizes over axes, k(x, y) = prod_i exp(-s^2 sigma_i (x_i - y_i)^2 / 2),
so the integral is <F, (K_1 x ... x K_d) conj(G)> with one weighted n x n
kernel matrix per axis, applied one axis at a time.  That is O(d n^(d+1))
work where the double-grid integrand would cost O(n^(2d)).  Each matrix is
the one-axis ``gram_matrix`` times the weights, one real product per axis on
complex values viewed as float pairs.  Dimensions 1 and 2 contract the values
on the full tensor grid; above dimension 2 the elements must factorize over
coordinates (diagonal quadratic forms), each axis's product takes the factors
of all terms at once, and each term pair is a product of 1-d contractions.

The Gauss--Legendre rule of each node count is built once per process by
:func:`gauss_legendre` and kept read-only in a bounded cache:
Newton's method in theta = arccos(x) on the finite cosine series of
P_n(cos theta), with the weights from dP_n/dtheta.  Its weights agree with
40-digit values to about 3e-13 at 960 nodes, where numpy's ``leggauss``
is off by 3.5e-9.

A divergent integral shows as an integrand that does not decay at the edge
of the box.  After contraction that is checked on both sides, on
F(x) (K conj G)(x) and on conj G(y) (K F)(y): a combined form that grows
only along y decays in the first.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .elements import SpaceElement
from .errors import DivergentNormError
from .kernels import GAUSSIAN, KernelSpec, gram_matrix

# Integrand mass on the outermost node shell, relative to the global peak,
# above which the integral is declared non-convergent.
BOUNDARY_GROWTH_RATIO = 1e-8

# Newton passes allowed before gauss_legendre gives up; four suffice for
# every n from 2 to 1400.
NEWTON_PASSES = 10


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the n-point Gauss--Legendre rule on [-1, 1].

    Newton's method in theta = arccos(x) on the exact series
    P_n(cos theta) = sum_k c_k cos((n - 2k) theta), c_k = g_k g_(n-k) with
    g_k = binom(2k, k) / 4^k (Szego), folded onto its n//2 + 1 frequencies.
    Only the roots in (0, pi/2] are computed, from Tricomi's initial
    guesses; the rest follow by symmetry.  A root stops once its Newton step
    is at most 4 eps.  Rows with theta >= pi/4 take their phases from pi/2,
    exp(i m theta) = i^m exp(i m (theta - pi/2)), so no phase is larger than
    m pi/4 and its rounding error stays small.  The weight is
    2 / (dP_n/dtheta)^2, with the last derivative moved to the updated root
    by P'' = -cot(theta) P'.
    Raises RuntimeError when a root has not converged after NEWTON_PASSES.
    """
    if n < 1:
        raise ValueError("a Gauss-Legendre rule needs at least one node")
    half = (n + 1) // 2
    theta = np.pi * (4 * np.arange(1, half + 1) - 1) / (4 * n + 2)
    theta += 1.0 / (8.0 * n * n * np.tan(theta))
    k = np.arange(n // 2 + 1)
    i = np.arange(1, n + 1)
    g = np.cumprod(np.concatenate(([1.0], (i - 0.5) / i)))
    amp = 2.0 * g[k] * g[n - k]
    if n % 2 == 0:
        amp[-1] /= 2  # the constant term is not doubled by the fold
    freq = n - 2 * k
    # Columns: P_n and dP_n/dtheta, as the real and imaginary parts of one product.
    series = np.stack((amp, -freq * amp), axis=1).astype(complex)
    turned = series * (1j ** (freq % 4))[:, None]
    freq = freq.astype(float)
    slope = np.empty(half)
    active = np.arange(half)
    for _ in range(NEWTON_PASSES):
        t = theta[active]
        split = np.searchsorted(t, np.pi / 4)
        phase = t.copy()
        phase[split:] -= np.pi / 2
        e = np.exp(1j * np.outer(phase, freq))
        values = np.concatenate((e[:split] @ series, e[split:] @ turned))
        d = values[:, 1].imag
        step = values[:, 0].real / d
        t -= step
        theta[active] = t
        slope[active] = d * (1.0 + step / np.tan(t))
        active = active[np.abs(step) > 4 * np.finfo(float).eps]
        if active.size == 0:
            break
    else:
        raise RuntimeError(f"Gauss-Legendre nodes for n = {n} did not converge "
                           f"in {NEWTON_PASSES} Newton passes")
    x = np.cos(theta)
    if n % 2:
        x[-1] = 0.0  # the middle root, theta = pi/2
    w = 2.0 / slope ** 2
    m = n // 2
    return np.concatenate((-x, x[:m][::-1])), np.concatenate((w, w[:m][::-1]))


@functools.lru_cache(maxsize=64)
def _cached_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """gauss_legendre(n), built once per node count; read-only."""
    x, w = gauss_legendre(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class QuadratureGrid:
    """Per-dimension Gauss--Legendre node count and half-width of the box."""

    nodes: int = 64
    radius: float = 8.0

    def __post_init__(self):
        if isinstance(self.nodes, bool) or not isinstance(self.nodes, numbers.Integral):
            raise ValueError(f"quadrature node count must be an integer, got {self.nodes!r}")
        if self.nodes < 3:
            raise ValueError("need at least three quadrature nodes, so that each axis has an "
                             f"interior node for the boundary decay check, got {self.nodes}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"domain radius must be positive and finite, got {self.radius!r}")

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        x, w = _cached_rule(self.nodes)
        return x * self.radius, w * self.radius


def _check_boundary(values: np.ndarray, boundary_mask: np.ndarray):
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return
    edge = float(np.max(np.abs(values[boundary_mask]))) if boundary_mask.any() else 0.0
    if edge > BOUNDARY_GROWTH_RATIO * peak:
        raise DivergentNormError(
            f"integrand does not decay at the quadrature boundary "
            f"(edge/peak = {edge / peak:.3e})"
        )


def _apply_kernel(kernels: list, values: np.ndarray) -> np.ndarray:
    """(K_1 x ... x K_d) values, axis i by kernels[i], as real products on float pairs."""
    for axis, kernel in enumerate(kernels):
        front = np.ascontiguousarray(np.moveaxis(values, axis, 0))
        out = (kernel @ front.reshape(len(kernel), -1).view(float)).view(complex)
        values = np.moveaxis(out.reshape(front.shape), 0, axis)
    return values


def _edge(shape: tuple) -> np.ndarray:
    """Mask of the outermost node shell of a tensor grid."""
    return np.pad(np.zeros(tuple(n - 2 for n in shape), dtype=bool), 1, constant_values=True)


def _contract(f, kg, g, kf, weights, edge) -> complex:
    """sum_x w(x) f(x) (K g)(x), after the decay check on f (K g), then on g (K f)."""
    _check_boundary(f * kg, edge)
    _check_boundary(g * kf, edge)
    return complex(np.sum(weights * f * kg))


def _axis_values(t, axis: int, nodes: np.ndarray) -> np.ndarray:
    """Factor along one axis of a Gaussian term with a diagonal form."""
    a, b, k = t.quad[axis, axis], t.lin[axis], t.poly[axis]
    return nodes.astype(complex) ** k * np.exp(-0.5 * a * nodes ** 2 + b * nodes)


def _is_axis_separable(e: SpaceElement) -> bool:
    for t in e.gaussians:
        off = t.quad - np.diag(np.diag(t.quad))
        if np.max(np.abs(off)) > 0:
            return False
    return True


def quadrature_inner_product(e1: SpaceElement, e2: SpaceElement, spec: KernelSpec,
                             grid: QuadratureGrid | None = None) -> complex:
    """Numerical double integral of the kernel form; oracle for inner_product.

    Converges to the closed form as the node count grows.  The kernel is
    applied one axis at a time as a weighted n x n matrix, built with
    ``gram_matrix`` once per call for each sign of the signature in use and
    applied in real arithmetic.  Dimensions one and two contract the values
    of the elements on the n^dim tensor grid; higher dimensions require
    axis-separable elements (diagonal quadratic forms), apply each axis's
    kernel once to the stacked factors of all terms, and multiply
    one-dimensional contractions per term pair and axis.  A zero element gives 0.
    Raises DivergentNormError when either contracted side of the integrand,
    F (K conj G) or conj G (K F), does not decay at the boundary of the box.
    """
    if spec.family != GAUSSIAN:
        raise ValueError("quadrature oracle supports the gaussian family only")
    if e1.dim != spec.dim or e2.dim != spec.dim:
        raise ValueError("element dimensions do not match the kernel")
    if e1.deltas or e2.deltas:
        raise ValueError("quadrature oracle supports Gaussian-term elements only")
    if spec.dim > 2 and not (_is_axis_separable(e1) and _is_axis_separable(e2)):
        raise ValueError("above dimension 2 the oracle requires axis-separable elements")
    if not (e1.gaussians and e2.gaussians):
        return 0j
    grid = grid or QuadratureGrid()
    nodes, weights = grid.points()
    signs = spec.signature.signs().tolist()
    by_sign = {s: gram_matrix(nodes[:, None], KernelSpec.gaussian(int(s > 0), int(s < 0), spec.scale))
               for s in set(signs)}  # unnormalized: the prefactor is applied once, at the end
    for kernel in by_sign.values():
        kernel *= weights  # column j times w_j, in place
    kernels = [by_sign[sign] for sign in signs]
    if spec.dim <= 2:
        axes = np.meshgrid(*([nodes] * spec.dim), indexing="ij")
        pts = np.stack([x.reshape(-1) for x in axes], axis=-1)
        shape = axes[0].shape
        f, g = e1.evaluate(pts).reshape(shape), np.conj(e2.evaluate(pts)).reshape(shape)
        value = _contract(f, _apply_kernel(kernels, g), g, _apply_kernel(kernels, f),
                          functools.reduce(np.multiply.outer, [weights] * spec.dim), _edge(shape))
    else:
        # Per axis: columns f_1 .. f_T1 of e1's terms, then conj g_1 .. conj g_T2 of e2's.
        columns = [np.stack([_axis_values(t, axis, nodes) for t in e1.gaussians]
                            + [np.conj(_axis_values(t, axis, nodes)) for t in e2.gaussians], axis=1)
                   for axis in range(spec.dim)]
        applied = [_apply_kernel([k], c) for k, c in zip(kernels, columns)]
        edge, value = _edge(nodes.shape), 0j
        for i, t1 in enumerate(e1.gaussians):
            for j, t2 in enumerate(e2.gaussians, len(e1.gaussians)):
                prod = t1.coeff * np.conj(t2.coeff)
                for fg, kfg in zip(columns, applied):
                    prod *= _contract(fg[:, i], kfg[:, j], fg[:, j], kfg[:, i], weights, edge)
                value += prod
    return spec.prefactor() * value


def nodes_for_scale(scale: float, base: int = 96, per_unit: int = 48) -> int:
    """Node count resolving a kernel of width 1/scale on the default box."""
    return max(base, int(np.ceil(per_unit * scale)))
