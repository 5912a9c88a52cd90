import math
import tracemalloc

import numpy as np
import pytest

from kreingeo.algebra import inner_product, norm_squared
from kreingeo.elements import SpaceElement
from kreingeo.errors import DivergentNormError
from kreingeo.kernels import KernelSpec
from kreingeo import quadrature
from kreingeo.quadrature import (QuadratureGrid, gauss_legendre, nodes_for_scale,
                                 quadrature_inner_product)

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


def test_diverging_pair_and_axis_is_the_one_reported():
    # Under signature (2, 1) the pair (narrow, other) converges, while (wide, other) grows
    # along the time axis 2 only, on both contracted sides and with different edge/peak
    # ratios, so the message also tells which side was checked first.
    spec = KernelSpec.gaussian(2, 1)
    narrow = SpaceElement.gaussian(np.diag([1.0, 1.0, 4.0]))
    wide = SpaceElement.gaussian(np.diag([1.0, 1.0, 1.95]), coeff=0.5)
    e1, e2 = narrow + wide, SpaceElement.gaussian(np.diag([1.0, 1.0, 2.1]))
    grid = QuadratureGrid(48, 8.0)
    nodes, weights = grid.points()
    edge = np.zeros(len(nodes), dtype=bool)
    edge[[0, -1]] = True
    diverging = {}
    for i, t1 in enumerate(e1.gaussians):
        for j, t2 in enumerate(e2.gaussians):
            for axis, sign in enumerate(spec.signature.signs()):
                kernel = np.exp(-0.5 * sign * np.subtract.outer(nodes, nodes) ** 2) * weights
                f = quadrature._axis_values(t1, axis, nodes)
                g = np.conj(quadrature._axis_values(t2, axis, nodes))
                try:
                    quadrature._contract(f, kernel @ g, g, kernel @ f, weights, edge)
                except DivergentNormError as err:
                    diverging[i, j, axis] = str(err)
    assert list(diverging) == [(1, 0, 2)]
    with pytest.raises(DivergentNormError) as raised:
        quadrature_inner_product(e1, e2, spec, grid)
    assert str(raised.value) == diverging[1, 0, 2]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_zero_element_gives_exactly_zero(dim):
    spec = KernelSpec.gaussian(dim, 0)
    zero, f = SpaceElement.zero(dim), unit_l2_gaussian(dim)
    for e1, e2 in ((zero, f), (f, zero), (zero, zero)):
        assert quadrature_inner_product(e1, e2, spec, QuadratureGrid(16, 8.0)) == 0


def test_kernel_is_never_copied_to_complex():
    # At 960 nodes the weighted kernel is 8 n^2 bytes; a complex copy would add 16 n^2.
    n = nodes_for_scale(20.0)
    spec = KernelSpec.gaussian(3, 0, scale=20.0, normalized=True)
    f, grid = unit_l2_gaussian(3), QuadratureGrid(n, 8.0)
    grid.points()
    tracemalloc.start()
    try:
        quadrature_inner_product(f, f, spec, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * n * n


def test_rejects_delta_terms():
    spec = KernelSpec.gaussian(1, 0)
    with pytest.raises(ValueError):
        quadrature_inner_product(SpaceElement.delta([0.0]), unit_l2_gaussian(), spec)


def test_nodes_for_scale_grows_with_scale():
    assert nodes_for_scale(1.0) == 96
    assert nodes_for_scale(20.0) == 960


@pytest.mark.parametrize("n", [2, 3, 10, 96, 97, 960])
def test_gauss_legendre_is_symmetric_with_weights_summing_to_two(n):
    x, w = gauss_legendre(n)
    assert np.all(np.diff(x) > 0)
    np.testing.assert_array_equal(x, -x[::-1])
    np.testing.assert_array_equal(w, w[::-1])
    assert w.sum() == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("n", [2, 7, 48, 96, 200])
def test_gauss_legendre_integrates_even_monomials_exactly(n):
    x, w = gauss_legendre(n)
    k = np.arange(n)
    got = (x[None, :] ** (2 * k[:, None])) @ w
    np.testing.assert_allclose(got, 2.0 / (2 * k + 1), rtol=1e-13, atol=0)


def test_gauss_legendre_agrees_with_leggauss():
    # Against 40-digit values, leggauss's own weights are off by up to
    # 8.2e-12 for n <= 96 (at n = 90, where the Newton weights are off by
    # 1.1e-14), so the weights are compared at that scale.
    for n in range(2, 97):
        x, w = gauss_legendre(n)
        ref_x, ref_w = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - ref_x)) <= 1e-15
        assert np.max(np.abs(w / ref_w - 1)) <= 1e-11


def test_gauss_legendre_converges_for_every_degree():
    # n = 542 stalls one ulp-scale step above 4 eps when every phase is
    # taken from theta = 0; phases from pi/2 above theta = pi/4 fix it.
    for n in [*range(2, 201), 240, 480, 542, 960, 1001]:
        x, w = gauss_legendre(n)
        assert x.shape == w.shape == (n,)
        assert np.all(np.diff(x) > 0) and np.all(w > 0)


def test_gauss_legendre_weights_at_960_nodes_match_40_digit_values():
    # Computed once with mpmath at 40 digits (Newton on the three-term
    # recurrence), rounded to 20 digits: endpoint and centre weights.
    exact = {959: 8.0436512933654074568e-6, 958: 1.8724005596337262448e-5,
             957: 2.9419974450555088459e-5, 480: 3.2707839945978482883e-3,
             481: 3.2707490035874193027e-3, 482: 3.2706790219408968766e-3}
    x, w = gauss_legendre(960)
    for i, value in exact.items():
        assert w[i] == pytest.approx(value, rel=1e-13)
        assert w[959 - i] == w[i]


def test_gauss_legendre_raises_when_newton_does_not_converge(monkeypatch):
    monkeypatch.setattr(quadrature, "NEWTON_PASSES", 1)
    with pytest.raises(RuntimeError, match="did not converge"):
        gauss_legendre(96)


@pytest.mark.parametrize("nodes, radius", [
    (64.5, 8.0),
    (True, 8.0),
    (64, float("nan")),
    (64, float("inf")),
])
def test_grid_rejects_bad_input(nodes, radius):
    with pytest.raises(ValueError):
        QuadratureGrid(nodes, radius)


def test_grid_needs_an_interior_node():
    # With two nodes both are edge nodes, and the decay check would reject every integrand.
    with pytest.raises(ValueError, match="interior node"):
        QuadratureGrid(2, 8.0)
    assert len(QuadratureGrid(3, 8.0).points()[0]) == 3


@pytest.fixture
def empty_rule_cache():
    quadrature._cached_rule.cache_clear()
    yield
    quadrature._cached_rule.cache_clear()


@pytest.mark.parametrize("n", [3, 48, 96, 960])
def test_grid_points_are_the_scaled_rule_bit_for_bit(n):
    x, w = gauss_legendre(n)
    for radius in (8.0, 2.5):
        nodes, weights = QuadratureGrid(n, radius).points()
        assert np.array_equal(nodes, x * radius) and np.array_equal(weights, w * radius)


def test_rule_is_built_once_per_node_count(monkeypatch, empty_rule_cache):
    calls = []

    def counting(n):
        calls.append(n)
        return gauss_legendre(n)

    monkeypatch.setattr(quadrature, "gauss_legendre", counting)
    spec = KernelSpec.gaussian(1, 0)
    f = SpaceElement.gaussian([[2.0]])
    grid = QuadratureGrid(40, 8.0)
    first = quadrature_inner_product(f, f, spec, grid)
    assert quadrature_inner_product(f, f, spec, grid) == first
    assert calls == [40]


def test_cached_rule_is_read_only_and_points_are_fresh(empty_rule_cache):
    x, w = quadrature._cached_rule(24)
    assert not x.flags.writeable and not w.flags.writeable
    grid = QuadratureGrid(24, 1.0)
    nodes, weights = grid.points()
    expected = nodes.copy(), weights.copy()
    nodes[:] = 0.0
    weights[:] = 0.0
    again = grid.points()
    assert np.array_equal(again[0], expected[0]) and np.array_equal(again[1], expected[1])


def test_newton_failure_is_not_cached(monkeypatch, empty_rule_cache):
    monkeypatch.setattr(quadrature, "NEWTON_PASSES", 1)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="did not converge"):
            QuadratureGrid(97).points()
