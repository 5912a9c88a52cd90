import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreingeo.elements import DeltaJetTerm, GaussianTerm, SpaceElement
from kreingeo.kernels import Signature


def test_gaussian_term_requires_positive_real_part():
    with pytest.raises(ValueError):
        GaussianTerm(1.0, [[-1.0]], [0.0])
    with pytest.raises(ValueError):
        GaussianTerm(1.0, [[0.0]], [0.0])


def test_gaussian_term_requires_symmetry():
    with pytest.raises(ValueError):
        GaussianTerm(1.0, [[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0])


def test_gaussian_term_poly_validation():
    with pytest.raises(ValueError):
        GaussianTerm(1.0, np.eye(2), np.zeros(2), poly=(1,))
    with pytest.raises(ValueError):
        GaussianTerm(1.0, np.eye(1), np.zeros(1), poly=(-1,))


@pytest.mark.parametrize("coeff, quad, lin", [
    (complex(np.nan, 0.0), [[1.0]], [0.0]),
    (1.0, [[np.inf]], [0.0]),
    (1.0, [[1.0]], [complex(0.0, np.nan)]),
])
def test_gaussian_term_rejects_non_finite_inputs(coeff, quad, lin):
    with pytest.raises(ValueError, match="finite"):
        GaussianTerm(coeff, quad, lin)


def test_delta_jet_rejects_non_finite_coefficient():
    with pytest.raises(ValueError, match="finite"):
        DeltaJetTerm(complex(np.inf, 1.0), np.zeros(2))


@pytest.mark.parametrize("derive", [
    lambda e: e.derivative(1), lambda e: e.mul_coord(0), lambda e: e * (2.0 - 1.0j),
    lambda e: e.reflected(Signature(1, 1)),
], ids=["derivative", "mul_coord", "scaled", "reflected"])
def test_derived_terms_are_not_revalidated(monkeypatch, derive):
    e = SpaceElement.gaussian([[1.5 + 0.5j, 0.2], [0.2, 1.0]], lin=[0.3, -0.1j], poly=(1, 2))
    monkeypatch.setattr(GaussianTerm, "__post_init__",
                        lambda self: pytest.fail("a derived term was re-validated"))
    assert derive(e).gaussians


def test_delta_jet_order_cap():
    DeltaJetTerm(1.0, np.zeros(3), (1, 1, 0))
    with pytest.raises(ValueError):
        DeltaJetTerm(1.0, np.zeros(3), (2, 1, 0))


def test_delta_jet_base_validation():
    with pytest.raises(ValueError):
        DeltaJetTerm(1.0, np.array([np.inf]), (0,))
    with pytest.raises(ValueError):
        DeltaJetTerm(1.0, np.zeros(2), (1,))


def test_element_dimension_consistency():
    with pytest.raises(ValueError):
        SpaceElement(2, deltas=(DeltaJetTerm(1.0, np.zeros(3)),))
    with pytest.raises(ValueError):
        SpaceElement.delta([0.0]) + SpaceElement.delta([0.0, 0.0])


def test_linear_combinations_stay_elements():
    a = SpaceElement.gaussian(np.eye(2))
    b = SpaceElement.delta([1.0, 0.0])
    combo = 2.0 * a - b * (1.0 + 1.0j)
    assert combo.dim == 2
    assert len(combo.gaussians) == 1 and len(combo.deltas) == 1
    assert combo.deltas[0].coeff == -(1.0 + 1.0j)


def test_evaluate_matches_direct_formula():
    quad = np.array([[1.2, 0.1], [0.1, 0.8]], dtype=complex)
    lin = np.array([0.3, -0.2 + 0.4j])
    e = SpaceElement.gaussian(quad, lin=lin, coeff=1.5 - 0.5j, poly=(2, 1))
    pts = np.random.default_rng(0).normal(size=(6, 2))
    direct = np.array([
        (1.5 - 0.5j) * p[0] ** 2 * p[1]
        * np.exp(-0.5 * p @ quad @ p + lin @ p) for p in pts])
    assert np.allclose(e.evaluate(pts), direct, atol=1e-14)


def test_evaluate_rejects_deltas():
    with pytest.raises(ValueError):
        SpaceElement.delta([0.0]).evaluate(np.zeros((1, 1)))


def test_derivative_matches_finite_difference():
    e = SpaceElement.gaussian([[1.3]], lin=[0.4], coeff=2.0, poly=(2,))
    de = e.derivative(0)
    x = np.array([[0.37]])
    h = 1e-6
    fd = (e.evaluate(x + h) - e.evaluate(x - h)) / (2 * h)
    assert de.evaluate(x)[0] == pytest.approx(fd[0], rel=1e-8)


def test_mul_coord_raises_degree():
    e = SpaceElement.gaussian(np.eye(1)).mul_coord(0)
    assert e.gaussians[0].poly == (1,)


def test_reflection_parity():
    sig = Signature(1, 1)
    e = SpaceElement.gaussian(np.diag([1.0, 2.0]), lin=[0.5, 0.7], poly=(0, 1))
    r = e.reflected(sig)
    pts = np.random.default_rng(1).normal(size=(5, 2))
    flipped = pts * np.array([1.0, -1.0])
    assert np.allclose(r.evaluate(pts), e.evaluate(flipped), atol=1e-14)


def test_compose_affine_substitution_semantics():
    e = SpaceElement.gaussian([[1.0]], lin=[0.2], poly=(1,))
    M = np.array([[2.0]])
    w = np.array([0.5])
    composed = e.compose_affine(M, w)
    xs = np.linspace(-1, 1, 7)[:, None]
    assert np.allclose(composed.evaluate(xs), e.evaluate(2.0 * xs + 0.5), atol=1e-13)


def test_compose_affine_validates_each_transformed_form_once(monkeypatch):
    e = (SpaceElement.gaussian(1.2 * np.eye(3), poly=(2, 2, 2))
         + SpaceElement.gaussian([[1.0, 0.3, 0.0], [0.3, 1.5, 0.1], [0.0, 0.1, 0.9]],
                                 lin=[0.2, -0.1j, 0.4], coeff=0.5 - 1j, poly=(1, 0, 2)))
    M = np.array([[1.0, 0.4, -0.2], [0.1, 0.9, 0.3], [-0.5, 0.2, 1.2]])
    w = np.array([0.3, -0.2, 0.1])
    validate = GaussianTerm.__post_init__
    calls = []
    monkeypatch.setattr(GaussianTerm, "__post_init__", lambda t: calls.append(1) or validate(t))
    composed = e.compose_affine(M, w)
    assert len(calls) == len(e.gaussians) < len(composed.gaussians)
    monkeypatch.undo()
    # Each term is what a full validation of its form and monomial would give.
    rebuilt = SpaceElement(3, tuple(GaussianTerm(t.coeff, t.quad, t.lin, t.poly)
                                    for t in composed.gaussians))
    us = np.random.default_rng(4).normal(size=(20, 3))
    assert np.array_equal(composed.evaluate(us), rebuilt.evaluate(us))
    assert np.allclose(composed.evaluate(us), e.evaluate(us @ M.T + w), rtol=1e-12, atol=0)


def test_pushforward_composes_with_map():
    # (f o g^{-1})(g(x)) = f(x) for the affine map g(x) = M x + w.
    e = SpaceElement.gaussian([[1.1]], lin=[0.3], poly=(2,))
    M = np.array([[1.5]])
    w = np.array([-0.7])
    xs = np.linspace(-2, 2, 9)[:, None]
    mapped = xs @ M.T + w
    assert np.allclose(e.pushforward_affine(M, w).evaluate(mapped),
                       e.evaluate(xs), atol=1e-12)


def test_jet_order_two_pushforward_under_rotation():
    theta = 0.6
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    e = SpaceElement.delta([0.3, -0.2], orders=(2, 0))
    out = e.pushforward_affine(R, np.zeros(2))
    # Total order preserved, coefficients sum like a quadratic form row.
    assert all(t.order == 2 for t in out.deltas)
    total = sum(t.coeff for t in out.deltas)
    assert np.isfinite(total.real)


def test_serialization_zero_element():
    z = SpaceElement.zero(3)
    assert SpaceElement.from_dict(z.to_dict()).is_zero


@st.composite
def coupled_elements(draw):
    """Gaussian mixtures in dims 1-3 on coupled complex forms, monomial degree <= 2 per axis.

    Diagonals have real part >= 0.8 and off-diagonal entries stay within
    0.2 (1 + i), so every real part is diagonally dominant.  Returns the
    element, an axis and three sample points.
    """
    dim = draw(st.integers(1, 3))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        quad = np.diag([complex(draw(st.floats(0.8, 2.0)), draw(st.floats(-0.5, 0.5)))
                        for _ in range(dim)])
        for i in range(dim):
            for j in range(i + 1, dim):
                quad[i, j] = quad[j, i] = complex(draw(st.floats(-0.2, 0.2)),
                                                  draw(st.floats(-0.2, 0.2)))
        lin = [complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))) for _ in range(dim)]
        poly = tuple(draw(st.integers(0, 2)) for _ in range(dim))
        # Magnitudes from 0.1 up: a subnormal coefficient loses relative precision.
        coeff = draw(st.floats(0.1, 2.0)) * cmath.exp(1j * draw(st.floats(-math.pi, math.pi)))
        terms.append(GaussianTerm(coeff, quad, lin, poly))
    # Off the coordinate planes, where a monomial's value and slope vanish but
    # not the higher derivatives that set the finite-difference error.
    points = np.array([[draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.2, 1.5))
                        for _ in range(dim)] for _ in range(3)])
    return SpaceElement(dim, tuple(terms)), draw(st.integers(0, dim - 1)), points


def _magnitude(e: SpaceElement, points: np.ndarray) -> np.ndarray:
    """Sum of the term magnitudes at each point, the scale of its rounding error."""
    return sum(np.abs(SpaceElement(e.dim, (t,)).evaluate(points)) for t in e.gaussians)


@settings(max_examples=60, deadline=None)
@given(coupled_elements())
def test_derivative_and_mul_coord_match_pointwise_values(case):
    e, axis, points = case
    h = 1e-3
    step = h * np.eye(e.dim)[axis]
    # Fourth-order central difference; its truncation error is about h^4 f^(5) / 30.
    fd = (8.0 * (e.evaluate(points + step) - e.evaluate(points - step))
          - (e.evaluate(points + 2 * step) - e.evaluate(points - 2 * step))) / (12.0 * h)
    derivative = e.derivative(axis)
    scale = (max(_magnitude(e, points + s * step).max() for s in (-2, -1, 0, 1, 2))
             + _magnitude(derivative, points).max())
    assert np.abs(derivative.evaluate(points) - fd).max() <= 1e-9 * scale
    product = points[:, axis] * e.evaluate(points)
    assert np.abs(e.mul_coord(axis).evaluate(points) - product).max() \
        <= 1e-14 * _magnitude(e, points).max()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_derivative_with_overflowing_coefficient_is_rejected():
    e = SpaceElement.gaussian([[1.0]], lin=[1e10], coeff=1e300)
    with pytest.raises(ValueError, match="finite"):
        e.derivative(0)


def _fd_partial(f, x: np.ndarray, orders: tuple[int, ...], h: float = 2e-3) -> complex:
    """d^orders f at x by tensor-product central differences, Richardson-extrapolated."""
    def central(h):
        stencils = {0: {0: 1.0}, 1: {1: 0.5 / h, -1: -0.5 / h},
                    2: {1: h ** -2, 0: -2.0 * h ** -2, -1: h ** -2}}
        total = 0.0
        for offsets in itertools.product(*(stencils[k].items() for k in orders)):
            shift = np.array([o for o, _ in offsets], dtype=float) * h
            total += math.prod(w for _, w in offsets) * f((x + shift)[None, :])[0]
        return total
    return (4.0 * central(0.5 * h) - central(h)) / 3.0


PUSHFORWARD_MAPS = {
    2: np.array([[1.3, 0.4], [-0.2, 0.9]]),
    3: np.array([[1.1, 0.3, -0.2], [0.1, 0.8, 0.4], [-0.3, 0.2, 1.2]]),
}
JET_CASES = [(dim, orders) for dim in (2, 3)
             for orders in itertools.product(range(3), repeat=dim) if 1 <= sum(orders) <= 2]


@pytest.mark.parametrize("dim, orders", JET_CASES, ids=[f"{d}d-{o}" for d, o in JET_CASES])
def test_jet_pushforward_coefficients_follow_the_chain_rule(dim, orders):
    # sum_beta c_beta d^beta phi(g a) = d^alpha (phi o g)(a) for g(x) = M x + w,
    # where |det M| c_beta are the coefficients of the pushed-forward jet.
    M = PUSHFORWARD_MAPS[dim]
    w = np.linspace(-0.3, 0.4, dim)
    a = np.linspace(0.2, -0.5, dim)
    quad = 1.2 * np.eye(dim) + 0.2 * (np.ones((dim, dim)) - np.eye(dim))
    phi = SpaceElement.gaussian(quad, lin=np.linspace(0.3, -0.4, dim))
    out = SpaceElement.delta(a, orders=orders).pushforward_affine(M, w)
    det = abs(np.linalg.det(M))
    pushed = sum(t.coeff / det * _fd_partial(phi.evaluate, t.base, t.orders) for t in out.deltas)
    direct = _fd_partial(lambda x: phi.evaluate(x @ M.T + w), a, orders)
    assert all(np.allclose(t.base, M @ a + w) and t.order == sum(orders) for t in out.deltas)
    assert abs(pushed - direct) <= 1e-8 * abs(direct)
