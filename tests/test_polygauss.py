"""Engine checks: moments, derivatives and substitution of poly-Gaussians.

The integrate() closed form is checked against plain trapezoid quadrature,
which shares no code with the moment recursion.
"""

import math
import time

import numpy as np
import pytest

from kreingeo.algebra import norm_squared
from kreingeo.elements import SpaceElement
from kreingeo.errors import DivergentNormError, IntegralOverflowError
from kreingeo.kernels import KernelSpec
from kreingeo.polygauss import PolyGaussian, gaussian_moments, min_real_eigenvalues


def grid_values(pg, pts):
    """Values of ``pg`` at the rows of ``pts``, written apart from PolyGaussian.evaluate."""
    z = pts.astype(complex)
    expo = -0.5 * np.einsum("mi,ij,mj->m", z, pg.quad, z) + z @ pg.lin + pg.const
    poly = sum(c * np.prod(z ** np.array(g), axis=1) for g, c in pg.poly.items())
    return poly * np.exp(expo)


def trapezoid_integral(pg, radius=10.0, n=4001):
    xs = np.linspace(-radius, radius, n)
    if pg.dim == 1:
        return np.trapezoid(grid_values(pg, xs[:, None]), xs)
    coarse = xs[::8]
    pts = np.stack(np.meshgrid(coarse, coarse, indexing="ij"), axis=-1).reshape(-1, 2)
    step = xs[8] - xs[0]
    return grid_values(pg, pts).sum() * step * step


def test_plain_gaussian_integral():
    pg = PolyGaussian({(0,): 1.0}, [[2.0]], [0.0])
    assert pg.integrate() == pytest.approx(np.sqrt(2 * np.pi / 2.0), rel=1e-14)


def test_moment_integrals_against_trapezoid():
    pg = PolyGaussian({(3,): 1.5, (1,): -0.5, (0,): 2.0}, [[1.3]], [0.4], 0.1)
    assert pg.integrate() == pytest.approx(trapezoid_integral(pg), rel=1e-10)


def test_complex_shift_and_coefficients():
    pg = PolyGaussian({(2,): 1.0 + 0.5j}, [[1.0 + 0.3j]], [0.2 - 0.1j], 0.05j)
    got = pg.integrate()
    want = trapezoid_integral(pg)
    assert abs(got - want) / abs(want) < 1e-10


def test_two_dimensional_integral():
    quad = np.array([[1.5, 0.3], [0.3, 2.0]], dtype=complex)
    pg = PolyGaussian({(1, 1): 1.0, (0, 0): 0.7}, quad, [0.1, -0.2])
    got = pg.integrate()
    want = trapezoid_integral(pg, radius=8.0)
    assert abs(got - want) / abs(want) < 1e-4  # coarse 2-d trapezoid


def test_differentiate_matches_finite_difference():
    pg = PolyGaussian({(2, 0): 1.0, (0, 1): 0.5}, [[1.2, 0.1], [0.1, 0.9]], [0.3, -0.4])
    d0 = pg.differentiate(0)
    z = np.array([0.37, -0.81])
    h = 1e-6
    fd = (pg.evaluate(z + [h, 0]) - pg.evaluate(z - [h, 0])) / (2 * h)
    assert d0.evaluate(z) == pytest.approx(fd, rel=1e-8)


def test_substitute_pins_coordinates():
    pg = PolyGaussian({(1, 2): 1.0}, [[1.0, 0.2], [0.2, 1.5]], [0.0, 0.3])
    fixed = pg.substitute({0: 0.7})
    assert fixed.dim == 1
    assert fixed.evaluate([0.4]) == pytest.approx(pg.evaluate([0.7, 0.4]), rel=1e-14)


def test_divergence_raises_with_eigenvalue():
    pg = PolyGaussian({(0, 0): 1.0}, [[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0])
    with pytest.raises(DivergentNormError) as err:
        pg.integrate()
    assert err.value.min_eigenvalue == pytest.approx(0.0, abs=1e-14)


def test_min_real_eigenvalue_helper():
    m = np.array([[3.0, 1.0], [1.0, 3.0]]) + 1j * np.ones((2, 2))
    assert min_real_eigenvalues(m) == pytest.approx(2.0)
    assert min_real_eigenvalues(np.stack([m, 2.0 * m])) == pytest.approx([2.0, 4.0])


def test_zero_polynomial_integrates_to_zero():
    pg = PolyGaussian({}, [[1.0]], [0.0])
    assert pg.integrate() == 0.0


def test_sqrt_det_branch_is_continuous():
    # Rotating the quadratic form's phase must not jump across a branch cut.
    values = []
    for phi in np.linspace(0, 1.2, 13):
        quad = [[2.0 * np.exp(1j * phi)]]
        pg = PolyGaussian({(0,): 1.0}, quad, [0.0])
        values.append(pg.integrate())
    diffs = np.abs(np.diff(values))
    assert diffs.max() < 0.2


def test_high_degree_moments_match_closed_form():
    # int x^(2k) exp(-a x^2/2) dx = (2k-1)!! a^-k sqrt(2 pi / a); degree 1200
    # is beyond any recursion depth and still inside the float range.
    a, k = 1000.0, 600
    log_double_factorial = math.lgamma(2 * k + 1) - k * math.log(2.0) - math.lgamma(k + 1)
    want = math.exp(log_double_factorial - k * math.log(a)) * math.sqrt(2 * math.pi / a)
    got = PolyGaussian({(2 * k,): 1.0}, [[a]], [0.0]).integrate()
    assert got.real == pytest.approx(want, rel=1e-10)
    assert got.imag == 0.0


def test_overflowing_moment_raises_named_error():
    # The true norm is of order 10^9000.
    e = SpaceElement.gaussian([[1.0]], poly=(3000,))
    start = time.perf_counter()
    with pytest.raises(IntegralOverflowError, match="float range"):
        norm_squared(e, KernelSpec.gaussian(1, 0))
    assert time.perf_counter() - start < 5.0


def reference_moment(gamma, mu, sigma):
    """E[z^gamma] by the moment recursion, written recursively."""
    if not any(gamma):
        return 1.0 + 0.0j
    i = next(k for k, g in enumerate(gamma) if g)
    rest = gamma[:i] + (gamma[i] - 1,) + gamma[i + 1:]
    total = mu[i] * reference_moment(rest, mu, sigma)
    for j, gj in enumerate(rest):
        if gj:
            lower = rest[:j] + (gj - 1,) + rest[j + 1:]
            total += gj * sigma[i, j] * reference_moment(lower, mu, sigma)
    return total


def test_moments_match_the_recursive_reference():
    rng = np.random.default_rng(12)
    for n in (1, 2, 4, 8):
        mu = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        m = rng.normal(size=(3, n, n))
        sigma = m @ m.transpose(0, 2, 1) + 0.3j * (m + m.transpose(0, 2, 1))
        gammas = [tuple(int(k) for k in rng.integers(0, 3 if n < 8 else 2, size=n)) for _ in range(4)]
        got = gaussian_moments(gammas, mu, sigma)
        for b in range(3):
            want = [reference_moment(g, mu[b], sigma[b]) for g in gammas]
            assert np.allclose(got[:, b], want, rtol=1e-13, atol=0)
