"""Closed forms computed apart from kreingeo, used to check its outputs.

Nothing here imports the library.  Terms are plain tuples:

* a separable Gaussian term is ``(c, a, b, k)``: the function
  ``c * prod_i x_i^k_i * exp(-a_i x_i^2 / 2 + b_i x_i)`` with complex
  per-axis ``a`` (positive real part) and ``b``;
* a delta jet is ``(c, base, orders)``: ``c * d^orders delta(x - base)``.

The kernel is ``exp(-1/2 sum_i s_i (x_i - y_i)^2)`` with ``s_i = +-1``, and
the sesquilinear form is ``(f, g) = int int k(x, y) f(x) conj(g(y)) dx dy``.
"""

import cmath
import math

import numpy as np


def _moment2(k1: int, k2: int, mu, sigma) -> complex:
    """E[x^k1 y^k2] of a bivariate (complex) Gaussian, by Isserlis' rule."""
    if k1 == 0 and k2 == 0:
        return 1.0
    if k1 > 0:
        total = mu[0] * _moment2(k1 - 1, k2, mu, sigma)
        if k1 > 1:
            total += (k1 - 1) * sigma[0][0] * _moment2(k1 - 2, k2, mu, sigma)
        if k2 > 0:
            total += k2 * sigma[0][1] * _moment2(k1 - 1, k2 - 1, mu, sigma)
        return total
    total = mu[1] * _moment2(0, k2 - 1, mu, sigma)
    if k2 > 1:
        total += (k2 - 1) * sigma[1][1] * _moment2(0, k2 - 2, mu, sigma)
    return total


def axis_gauss_gauss(a1, b1, k1, a2, b2, k2, s: float) -> complex:
    """One axis of a separable Gaussian pair:
    int int x^k1 e^(-a1 x^2/2 + b1 x) e^(-s (x-y)^2/2) conj(y^k2 e^(-a2 y^2/2 + b2 y)).

    The 2x2 form M has a positive definite real part, so its eigenvalues lie
    in the right half plane and det(M)^(1/2) is the product of their
    principal square roots.
    """
    m00, m01, m11 = a1 + s, -s, np.conj(a2) + s
    v0, v1 = b1, np.conj(b2)
    det = m00 * m11 - m01 * m01
    disc = cmath.sqrt((m00 + m11) ** 2 - 4.0 * det)
    sqrt_det = cmath.sqrt(0.5 * (m00 + m11 + disc)) * cmath.sqrt(0.5 * (m00 + m11 - disc))
    sigma = ((m11 / det, -m01 / det), (-m01 / det, m00 / det))
    mu = (sigma[0][0] * v0 + sigma[0][1] * v1, sigma[1][0] * v0 + sigma[1][1] * v1)
    base = 2.0 * math.pi / sqrt_det * cmath.exp(0.5 * (v0 * mu[0] + v1 * mu[1]))
    return complex(base * _moment2(int(k1), int(k2), mu, sigma))


def gauss_gauss(t1, t2, signs) -> complex:
    c1, a1, b1, k1 = t1
    c2, a2, b2, k2 = t2
    value = c1 * np.conj(c2)
    for i, s in enumerate(signs):
        value *= axis_gauss_gauss(a1[i], b1[i], k1[i], a2[i], b2[i], k2[i], s)
    return complex(value)


def _axis_jet(x: float, order: int, a, b, k: int, s: float) -> complex:
    """d^order/dx^order of F(x) = int e^(-s (x-y)^2/2) conj(y^k e^(-a y^2/2 + b y)) dy.

    With alpha = s + conj(a), beta = s x + conj(b):
    F = sqrt(2 pi/alpha) E m_k,  E = exp(beta^2/(2 alpha) - s x^2/2),
    E' = u E with u = s (beta/alpha - x),  and m_k the k-th moment of
    N(beta/alpha, 1/alpha), whose x-derivatives follow from d beta/dx = s.
    """
    alpha = s + np.conj(a)
    beta = s * x + np.conj(b)
    scale = cmath.sqrt(2.0 * math.pi / alpha) * cmath.exp(beta * beta / (2.0 * alpha) - 0.5 * s * x * x)
    mean, var = beta / alpha, 1.0 / alpha
    m = (1.0, mean, mean * mean + var)[k]
    dm = (0.0, s / alpha, 2.0 * s * beta / alpha ** 2)[k]
    ddm = (0.0, 0.0, 2.0 * s * s / alpha ** 2)[k]
    u = s * (beta / alpha - x)
    du = s * (s / alpha - 1.0)
    if order == 0:
        return complex(scale * m)
    if order == 1:
        return complex(scale * (u * m + dm))
    if order == 2:
        return complex(scale * ((u * u + du) * m + 2.0 * u * dm + ddm))
    raise ValueError("jet orders above 2 are not covered")


def jet_gauss(td, tg, signs) -> complex:
    """(c d^alpha delta_base, g) = c conj(c_g) (-1)^|alpha| prod_i F_i^(alpha_i)(base_i)."""
    cd, base, orders = td
    cg, a, b, k = tg
    value = cd * np.conj(cg) * (-1.0) ** sum(orders)
    for i, s in enumerate(signs):
        value *= _axis_jet(float(base[i]), int(orders[i]), a[i], b[i], int(k[i]), s)
    return complex(value)


def kernel(x, y, signs) -> float:
    """exp(-1/2 (x - y)^T S (x - y)) with S = diag(signs)."""
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return math.exp(-0.5 * float(np.dot(signs, d * d)))


def delta_delta(t1, t2, signs) -> complex:
    c1, x, o1 = t1
    c2, y, o2 = t2
    if any(o1) or any(o2):
        raise ValueError("only zero-order delta pairs have a reference here")
    return complex(c1 * np.conj(c2) * kernel(x, y, signs))


def mixture_inner(gauss1, jets1, gauss2, jets2, signs) -> tuple[complex, float]:
    """(f, g) of two mixtures, and the sum of |pair value| as its error scale.

    Jet-jet pairs are covered for zero-order deltas only.
    """
    values = [gauss_gauss(t1, t2, signs) for t1 in gauss1 for t2 in gauss2]
    values += [jet_gauss(td, tg, signs) for td in jets1 for tg in gauss2]
    values += [np.conj(jet_gauss(td, tg, signs)) for tg in gauss1 for td in jets2]
    values += [delta_delta(t1, t2, signs) for t1 in jets1 for t2 in jets2]
    return complex(sum(values)), float(sum(abs(v) for v in values))


def normalized_gaussian_norm(scale: float, dim: int) -> float:
    """||pi^(-d/4) exp(-|x|^2/2)||^2 under the normalized Gaussian kernel."""
    return (1.0 + 1.0 / (2.0 * scale * scale)) ** (-0.5 * dim)


TOY_EVEN_NORM = math.pi / math.sqrt(2.0)         # exp(-2 t^2) on the time toy
TOY_ODD_NORM = -math.pi / (8.0 * math.sqrt(2.0))  # t exp(-2 t^2) on the time toy


def sobolev_kernel(theta):
    """Untruncated periodic Sobolev kernel cosh(pi - (theta mod 2 pi)) / (2 sinh pi)."""
    return np.cosh(math.pi - np.mod(theta, 2.0 * math.pi)) / (2.0 * math.sinh(math.pi))


def rotation(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation of R^3 about ``axis``."""
    k = np.asarray(axis, dtype=float)
    k = k / np.linalg.norm(k)
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def lorentz(axis, angle: float, velocity) -> np.ndarray:
    """Rotation after a boost, coordinates (x1, x2, x3, t), c = 1."""
    v = np.asarray(velocity, dtype=float)
    b2 = float(v @ v)
    gamma = 1.0 / math.sqrt(1.0 - b2)
    boost = np.eye(4)
    boost[:3, :3] += (gamma - 1.0) * np.outer(v, v) / b2
    boost[:3, 3] = boost[3, :3] = -gamma * v
    boost[3, 3] = gamma
    rot = np.eye(4)
    rot[:3, :3] = rotation(axis, angle)
    return rot @ boost


def galileo_point(A, v, b, c, x) -> np.ndarray:
    """(x, t) -> (A x + v t + b, t + c)."""
    return np.append(A @ x[:3] + v * x[3] + b, x[3] + c)


DIFFEO_MAPS = ("0.9 * u1 + 0.1 * sin(u2)", "0.9 * u2 + 0.1 * cos(u1)")


def diffeo_point(u) -> np.ndarray:
    """The map written as DIFFEO_MAPS, evaluated without the expression parser."""
    return np.array([0.9 * u[0] + 0.1 * math.sin(u[1]), 0.9 * u[1] + 0.1 * math.cos(u[0])])


def pullback_metric(name: str, u) -> np.ndarray:
    """Analytic metric J^T eta J of each catalog manifold."""
    if name == "euclidean3":
        return np.eye(3)
    if name == "minkowski31":
        return np.diag([1.0, 1.0, 1.0, -1.0])
    if name == "sphere2":
        return np.diag([1.0, math.sin(u[0]) ** 2])
    if name == "flat_torus2":
        return np.eye(2)
    if name == "de_sitter2":
        return np.diag([-1.0, math.cosh(u[0]) ** 2])
    raise ValueError(f"no reference metric for {name!r}")
