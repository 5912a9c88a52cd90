import numpy as np
import pytest

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


def test_conjugated_term_is_not_revalidated(monkeypatch):
    t = GaussianTerm(1.0 + 2.0j, [[1.5 + 0.5j]], [0.3 - 0.1j], (2,))
    monkeypatch.setattr(GaussianTerm, "__post_init__",
                        lambda self: pytest.fail("conjugated() re-validated its term"))
    c = t.conjugated()
    assert c.coeff == 1.0 - 2.0j and c.poly == (2,)
    assert np.array_equal(c.quad, [[1.5 - 0.5j]]) and np.array_equal(c.lin, [0.3 + 0.1j])


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
