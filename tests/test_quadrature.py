import math

import numpy as np
import pytest

from kreingeo.algebra import inner_product, norm_squared
from kreingeo.elements import SpaceElement
from kreingeo.errors import DivergentNormError
from kreingeo.kernels import KernelSpec
from kreingeo.quadrature import QuadratureGrid, nodes_for_scale, quadrature_inner_product

SQRT_TWO_THIRDS = 0.816496580927726
PI_OVER_SQRT2 = 2.221441469079183


def unit_l2_gaussian(dim=1):
    return SpaceElement.gaussian(np.eye(dim), coeff=math.pi ** (-0.25 * dim))


def test_unit_gaussian_64_nodes():
    spec = KernelSpec.gaussian(1, 0, normalized=True)
    got = quadrature_inner_product(unit_l2_gaussian(), unit_l2_gaussian(), spec,
                                   QuadratureGrid(64, 8.0))
    assert got.real == pytest.approx(SQRT_TWO_THIRDS, abs=1e-8)
    assert abs(got.imag) < 1e-14


def test_even_time_toy_64_nodes():
    spec = KernelSpec.gaussian(0, 1)
    f = SpaceElement.gaussian([[4.0]])
    got = quadrature_inner_product(f, f, spec, QuadratureGrid(64, 8.0))
    assert got.real == pytest.approx(PI_OVER_SQRT2, abs=1e-6)


def test_parity_orthogonality():
    spec = KernelSpec.gaussian(1, 0)
    f_even = SpaceElement.gaussian([[2.0]])
    f_odd = SpaceElement.gaussian([[2.0]], poly=(1,))
    got = quadrature_inner_product(f_even, f_odd, spec, QuadratureGrid(64, 8.0))
    assert abs(got) < 1e-10


def test_matches_closed_form_on_random_pairs():
    rng = np.random.default_rng(2)
    for dim in (1, 2):
        spec = KernelSpec.gaussian(dim, 0)
        nodes = 96 if dim == 1 else 48
        for _ in range(6):
            quad = np.diag(rng.uniform(1.0, 2.2, size=dim)).astype(complex)
            quad += 1j * np.diag(rng.uniform(-0.3, 0.3, size=dim))
            lin = rng.normal(scale=0.4, size=dim) + 1j * rng.normal(scale=0.3, size=dim)
            e1 = SpaceElement.gaussian(quad, lin=lin, coeff=1.0 + 0.5j,
                                       poly=tuple(rng.integers(0, 2, size=dim)))
            e2 = SpaceElement.gaussian(np.eye(dim) * rng.uniform(1.0, 2.0),
                                       lin=rng.normal(scale=0.3, size=dim))
            closed = inner_product(e1, e2, spec)
            quad_val = quadrature_inner_product(e1, e2, spec, QuadratureGrid(nodes, 8.0))
            assert abs(closed - quad_val) <= 1e-6 * max(abs(closed), 1e-3)


def coupled_element(rng, neg):
    """Dim-2 Gaussian with an off-diagonal form; Re(a) >= 2.6 on a time axis."""
    lo = np.array([1.0] * (2 - neg) + [2.6] * neg)
    quad = np.diag(rng.uniform(lo, lo + 1.2) + 1j * rng.uniform(-0.3, 0.3, size=2))
    quad[0, 1] = quad[1, 0] = rng.uniform(-0.4, 0.4) + 0.1j * rng.uniform(-1, 1)
    lin = rng.normal(scale=0.4, size=2) + 1j * rng.normal(scale=0.3, size=2)
    return SpaceElement.gaussian(quad, lin=lin, coeff=complex(*rng.normal(size=2)),
                                 poly=tuple(rng.integers(0, 2, size=2)))


@pytest.mark.parametrize("signature", [(2, 0), (1, 1)])
def test_matches_closed_form_on_coupled_pairs(signature):
    rng = np.random.default_rng(5)
    spec = KernelSpec.gaussian(*signature)
    for _ in range(4):
        e1 = coupled_element(rng, signature[1]) + coupled_element(rng, signature[1])
        e2 = coupled_element(rng, signature[1])
        closed = inner_product(e1, e2, spec)
        scale = math.sqrt(abs(norm_squared(e1, spec) * norm_squared(e2, spec)))
        quad_val = quadrature_inner_product(e1, e2, spec, QuadratureGrid(48, 8.0))
        assert abs(closed - quad_val) <= 1e-6 * scale


def test_separable_three_dimensional_norm():
    spec = KernelSpec.gaussian(3, 0, scale=2.0, normalized=True)
    f = unit_l2_gaussian(3)
    closed = norm_squared(f, spec)
    got = quadrature_inner_product(f, f, spec, QuadratureGrid(nodes_for_scale(2.0), 8.0))
    assert got.real == pytest.approx(closed, rel=1e-9)


def test_high_dimension_requires_separable_terms():
    spec = KernelSpec.gaussian(3, 0)
    quad = np.eye(3)
    quad[0, 1] = quad[1, 0] = 0.3
    e = SpaceElement.gaussian(quad)
    with pytest.raises(ValueError):
        quadrature_inner_product(e, e, spec)


def test_boundary_growth_detected():
    spec = KernelSpec.gaussian(0, 1)
    e = SpaceElement.gaussian([[1.0]])  # norm diverges against the time kernel
    with pytest.raises(DivergentNormError):
        quadrature_inner_product(e, e, spec, QuadratureGrid(48, 8.0))


def test_growth_along_either_contracted_side_detected():
    # The combined form [[9, 1], [1, 0.05]] of this pair is indefinite, but
    # the integrand grows only along the exp(-0.525 y^2) side.
    spec = KernelSpec.gaussian(0, 1)
    narrow, wide = SpaceElement.gaussian([[10.0]]), SpaceElement.gaussian([[1.05]])
    for e1, e2 in ((narrow, wide), (wide, narrow)):
        with pytest.raises(DivergentNormError):
            quadrature_inner_product(e1, e2, spec, QuadratureGrid(48, 8.0))


def test_rejects_delta_terms():
    spec = KernelSpec.gaussian(1, 0)
    with pytest.raises(ValueError):
        quadrature_inner_product(SpaceElement.delta([0.0]), unit_l2_gaussian(), spec)


def test_nodes_for_scale_grows_with_scale():
    assert nodes_for_scale(1.0) == 96
    assert nodes_for_scale(20.0) == 960
