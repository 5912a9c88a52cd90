"""Closed-form inner products against independent integration oracles.

Expected values were computed first from the defining double integrals
(trapezoid/Gauss-Legendre quadrature and hand-evaluated Gaussian
integrals), then frozen here.
"""

import math

import numpy as np
import pytest

from kreingeo.algebra import (combined_form_min_eigenvalue, even_odd_split,
                              inner_product, l2_inner_product, norm_squared)
from kreingeo.elements import SpaceElement
from kreingeo.errors import DivergentNormError
from kreingeo.kernels import KernelSpec, Signature

SQRT_TWO_THIRDS = 0.816496580927726      # (1 + 1/2)^(-1/2)
PI_OVER_SQRT2 = 2.221441469079183        # even time-toy norm
PI_OVER_8SQRT2 = 0.2776801836348979      # |odd time-toy norm|
SQRT_PI = 1.7724538509055159
DELTA_PRIME_GAUSS = 0.6901942235215714   # (sqrt(pi)/2) e^(-1/4)

TOY = KernelSpec.gaussian(0, 1)
LINE = KernelSpec.gaussian(1, 0)


def unit_l2_gaussian(dim: int) -> SpaceElement:
    return SpaceElement.gaussian(np.eye(dim), coeff=math.pi ** (-0.25 * dim))


def brute_force_pair(e1, e2, spec, radius=9.0, n=1201):
    """Trapezoid evaluation of the double integral; 1-dim elements only."""
    xs = np.linspace(-radius, radius, n)
    v1 = e1.evaluate(xs[:, None])
    v2 = np.conj(e2.evaluate(xs[:, None]))
    sign = 1.0 if spec.signature.pos else -1.0
    kernel = np.exp(-0.5 * sign * (xs[:, None] - xs[None, :]) ** 2)
    step = xs[1] - xs[0]
    return spec.prefactor() * (v1 @ kernel @ v2) * step * step


def test_unit_gaussian_norm_closed_form():
    spec = KernelSpec.gaussian(1, 0, normalized=True)
    assert norm_squared(unit_l2_gaussian(1), spec) == pytest.approx(
        SQRT_TWO_THIRDS, abs=1e-14)


def test_unit_gaussian_norm_against_trapezoid():
    spec = KernelSpec.gaussian(1, 0, normalized=True)
    f = unit_l2_gaussian(1)
    want = brute_force_pair(f, f, spec)
    assert norm_squared(f, spec) == pytest.approx(want.real, rel=1e-6)


def test_even_time_toy_norm():
    f = SpaceElement.gaussian([[4.0]])
    assert norm_squared(f, TOY) == pytest.approx(PI_OVER_SQRT2, abs=1e-12)
    assert norm_squared(f, TOY) > 0


def test_odd_time_toy_norm():
    f = SpaceElement.gaussian([[4.0]], poly=(1,))
    assert norm_squared(f, TOY) == pytest.approx(-PI_OVER_8SQRT2, abs=1e-12)
    assert norm_squared(f, TOY) < 0


def test_even_odd_cross_term_vanishes():
    f_even = SpaceElement.gaussian([[4.0]])
    f_odd = SpaceElement.gaussian([[4.0]], poly=(1,))
    assert inner_product(f_even, f_odd, TOY) == 0


def test_norm_convergence_law():
    # (1 + 1/(2 L^2))^(-d/2), increasing toward one.
    for dim in (1, 3):
        f = unit_l2_gaussian(dim)
        previous = 0.0
        for L in (1.0, 2.0, 5.0, 10.0, 20.0):
            spec = KernelSpec.gaussian(dim, 0, scale=L, normalized=True)
            value = norm_squared(f, spec)
            want = (1.0 + 1.0 / (2.0 * L * L)) ** (-0.5 * dim)
            assert value == pytest.approx(want, abs=1e-12)
            assert previous < value < 1.0
            previous = value


def test_delta_norm_is_kernel_diagonal():
    spec = KernelSpec.gaussian(3, 1)
    for a in ([0, 0, 0, 0], [0.3, -1.0, 2.0, 0.7]):
        assert norm_squared(SpaceElement.delta(a), spec) == pytest.approx(1.0, abs=1e-14)


def test_zero_element_norm():
    assert norm_squared(SpaceElement.zero(2), KernelSpec.gaussian(2, 0)) == 0.0


def test_delta_pair_is_kernel_value():
    got = inner_product(SpaceElement.delta([0.0]), SpaceElement.delta([1.0]), LINE)
    assert got == pytest.approx(0.6065306597126334, abs=1e-14)


def test_delta_against_gaussian():
    g = SpaceElement.gaussian([[1.0]])
    assert inner_product(SpaceElement.delta([0.0]), g, LINE).real == pytest.approx(
        SQRT_PI, rel=1e-14)
    assert inner_product(SpaceElement.delta([1.0], orders=(1,)), g, LINE).real == \
        pytest.approx(DELTA_PRIME_GAUSS, rel=1e-13)


def test_delta_jet_metric_values():
    dp = SpaceElement.delta([0.0], orders=(1,))
    assert inner_product(dp, dp, LINE).real == pytest.approx(1.0, abs=1e-14)
    assert inner_product(dp, dp, TOY).real == pytest.approx(-1.0, abs=1e-14)


def test_hermitian_symmetry_random_elements():
    rng = np.random.default_rng(11)
    spec = KernelSpec.gaussian(2, 0)
    for _ in range(25):
        def rand_element():
            diag = rng.uniform(0.9, 2.0, size=2)
            quad = np.diag(diag).astype(complex)
            quad[0, 1] = quad[1, 0] = rng.uniform(-0.2, 0.2) + 0.1j
            lin = rng.normal(size=2) + 1j * rng.normal(scale=0.3, size=2)
            el = SpaceElement.gaussian(quad, lin=lin, coeff=rng.normal() + 1j * rng.normal(),
                                       poly=tuple(rng.integers(0, 2, size=2)))
            if rng.uniform() < 0.5:
                el = el + SpaceElement.delta(rng.normal(size=2),
                                             coeff=rng.normal() + 1j * rng.normal(),
                                             orders=(int(rng.integers(0, 2)), 0))
            return el
        e1, e2 = rand_element(), rand_element()
        a = inner_product(e1, e2, spec)
        b = inner_product(e2, e1, spec)
        assert abs(a - np.conj(b)) <= 1e-12 * max(abs(a), 1.0)


def _is_zero(e) -> bool:
    return not e.gaussians and not e.deltas


def test_even_odd_split_pure_even():
    f = SpaceElement.gaussian([[4.0]])
    even, odd = even_odd_split(f, Signature(0, 1))
    assert len(even.gaussians) == 1 and _is_zero(odd)
    assert even.gaussians[0] is f.gaussians[0]


def test_even_odd_split_pure_odd():
    f = SpaceElement.gaussian([[4.0]], poly=(1,))
    even, odd = even_odd_split(f, Signature(0, 1))
    assert _is_zero(even) and len(odd.gaussians) == 1


def test_even_odd_split_mixed():
    f = SpaceElement.gaussian([[4.0]]) + SpaceElement.gaussian([[4.0]], poly=(1,))
    even, odd = even_odd_split(f, Signature(0, 1))
    assert norm_squared(even, TOY) == pytest.approx(PI_OVER_SQRT2, abs=1e-12)
    assert norm_squared(odd, TOY) == pytest.approx(-PI_OVER_8SQRT2, abs=1e-12)


def test_even_odd_split_sum_reconstructs():
    rng = np.random.default_rng(5)
    sig = Signature(1, 1)
    spec = KernelSpec.gaussian(1, 1)
    quad = np.array([[3.0, 0.4], [0.4, 5.0]], dtype=complex)
    e = SpaceElement.gaussian(quad, lin=[0.3, 0.8 + 0.2j], coeff=1.1 - 0.4j)
    even, odd = even_odd_split(e, sig)
    recombined = even + odd
    xs = rng.normal(size=(20, 2))
    assert np.allclose(recombined.evaluate(xs), e.evaluate(xs), atol=1e-14)
    # Parity under reflection of the negative coordinate.
    flipped = xs * np.array([1.0, -1.0])
    assert np.allclose(even.evaluate(flipped), even.evaluate(xs), atol=1e-13)
    assert np.allclose(odd.evaluate(flipped), -odd.evaluate(xs), atol=1e-13)


def test_even_odd_split_rejects_offset_delta_jets():
    e = SpaceElement.delta([0.0, 0.5])
    with pytest.raises(ValueError):
        even_odd_split(e, Signature(1, 1))


def test_even_odd_split_delta_jet_parity():
    # A time-derivative jet at the origin is odd under time reflection.
    e = SpaceElement.delta([0.0], orders=(1,))
    even, odd = even_odd_split(e, Signature(0, 1))
    assert _is_zero(even) and len(odd.deltas) == 1


def test_random_parity_signs():
    rng = np.random.default_rng(23)
    sig = Signature(0, 1)
    for _ in range(50):
        a = rng.uniform(2.4, 5.0) + 1j * rng.uniform(-0.8, 0.8)
        b = rng.uniform(0.2, 1.0) + 1j * rng.normal(scale=0.5)
        term = SpaceElement.gaussian([[a]], lin=[b], coeff=rng.normal() + 1j * rng.normal())
        even = term + term.reflected(sig)
        odd = term - term.reflected(sig)
        assert norm_squared(even, TOY) > 0
        assert norm_squared(odd, TOY) < 0
        cross = inner_product(even, odd, TOY)
        scale = math.sqrt(abs(norm_squared(even, TOY)) * abs(norm_squared(odd, TOY)))
        assert abs(cross) <= 1e-12 * max(scale, 1.0)


def test_divergence_exactly_at_eigenvalue_criterion():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = rng.uniform(0.3, 6.0) + 1j * rng.uniform(-0.5, 0.5)
        e = SpaceElement.gaussian([[a]])
        predicted = combined_form_min_eigenvalue(e, e, TOY) <= 1e-10
        try:
            norm_squared(e, TOY)
            raised = False
        except DivergentNormError:
            raised = True
        assert raised == predicted


def test_envelope_boundary_case_diverges():
    # Quadratic form exactly singular: the even envelope itself.
    e = SpaceElement.gaussian([[2.0]])
    assert combined_form_min_eigenvalue(e, e, TOY) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(DivergentNormError):
        norm_squared(e, TOY)


def test_delta_gauss_divergence():
    # Against the indefinite kernel the y-integral needs Re(A) > 1.
    spec = TOY
    d = SpaceElement.delta([0.0])
    with pytest.raises(DivergentNormError):
        inner_product(d, SpaceElement.gaussian([[0.8]]), spec)
    value = inner_product(d, SpaceElement.gaussian([[3.0]]), spec)
    assert np.isfinite(value.real)


def test_imaginary_norm_guard():
    spec = KernelSpec.gaussian(1, 0)
    e = SpaceElement.gaussian([[1.0]], coeff=1.0) + SpaceElement.delta([0.5], coeff=1j)
    value = inner_product(e, e, spec)
    assert abs(value.imag) < 1e-13 * abs(value)
    assert norm_squared(e, spec) == pytest.approx(value.real)


def test_l2_inner_product_unit_norm():
    f = unit_l2_gaussian(1)
    assert l2_inner_product(f, f).real == pytest.approx(1.0, rel=1e-14)


def test_l2_rejects_deltas():
    with pytest.raises(ValueError):
        l2_inner_product(SpaceElement.delta([0.0]), unit_l2_gaussian(1))


def test_inner_product_requires_gaussian_family():
    with pytest.raises(ValueError):
        inner_product(SpaceElement.delta([0.0]), SpaceElement.delta([0.0]),
                      KernelSpec.periodic_sobolev())


def test_serialization_round_trip():
    e = (SpaceElement.gaussian(np.array([[1.5, 0.2j], [0.2j, 2.0]]),
                               lin=[0.1, -0.4 + 0.3j], coeff=2.0 - 1.0j, poly=(1, 0))
         + SpaceElement.delta([0.3, -0.8], coeff=0.5j, orders=(0, 2)))
    restored = SpaceElement.from_dict(e.to_dict())
    spec = KernelSpec.gaussian(2, 0)
    assert inner_product(e, restored, spec) == pytest.approx(
        inner_product(e, e, spec), rel=1e-14)
    record = e.to_dict()
    assert record["gaussians"][0]["coeff"] == [2.0, -1.0]
    assert record["deltas"][0]["orders"] == [0, 2]
