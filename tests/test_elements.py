import cmath
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreingeo.elements import DeltaJetTerm, GaussianTerm, SpaceElement, gaussian_terms
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


def evaluate_term_by_term(e, points):
    """Pointwise values with each term's exponential and monomial computed on its own."""
    pts = np.asarray(points, dtype=float)
    out = np.zeros(pts.shape[0], dtype=complex)
    for t in e.gaussians:
        expo = -0.5 * np.einsum("ni,ij,nj->n", pts, t.quad, pts) + pts @ t.lin
        mono = np.ones(pts.shape[0], dtype=complex)
        for i, k in enumerate(t.poly):
            if k:
                mono = mono * pts[:, i] ** k
        out += t.coeff * mono * np.exp(expo)
    return out


@pytest.mark.parametrize("dim", [1, 3])
def test_evaluate_shares_one_exponential_per_form(dim, monkeypatch):
    rng = np.random.default_rng(dim)

    def form():
        quad = np.diag(rng.uniform(0.6, 1.4, dim)) + 0.3j * np.eye(dim)
        return SpaceElement.gaussian(quad, lin=rng.normal(size=dim) + 0.5j, coeff=rng.normal() + 1j)

    f, g = form(), form()
    term = f.gaussians[0]
    twin = SpaceElement.gaussian(term.quad.copy(), lin=term.lin.copy())
    shifted = SpaceElement(dim, (term._sibling(0.7j, lin=term.lin + 0.25),))
    # Siblings of f and g interleaved, a term equal in value to f's form but built apart,
    # and one on f's quadratic part with another linear part.
    e = (f + f.derivative(0) + 2j * g.mul_coord(dim - 1) + g + twin + shifted
         + (0.5 - 1j) * f.mul_coord(0).mul_coord(0) + g.derivative(dim - 1).derivative(0))
    pts = rng.normal(size=(23, dim))
    shapes, exp = [], np.exp

    def counting_exp(z):
        shapes.append(np.shape(z))
        return exp(z)

    monkeypatch.setattr(np, "exp", counting_exp)
    values = e.evaluate(pts)
    monkeypatch.undo()
    assert shapes == [(23,)] * 4 and len(e.gaussians) >= 9
    assert np.array_equal(values, evaluate_term_by_term(e, pts))
    if dim > 1:  # one point given as a vector
        assert e.evaluate(pts[0]) == values[0]


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
    back = SpaceElement.from_dict(z.to_dict())
    assert (back.dim, back.gaussians, back.deltas) == (3, (), ())


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


# Gaussian terms built as one checked stack.

@st.composite
def term_stacks(draw):
    """1-6 valid Gaussian terms in dims 1-4 as stacked arrays, powers (n, p) or None.

    Before scaling by 1 or 1e4, diagonals have real part >= 0.8 and
    off-diagonal entries stay within 0.2 (1 + i), so every real part is
    diagonally dominant.  A form may carry an asymmetry inside the tolerance,
    which is relative to its largest entry and which both constructors remove.
    """
    dim, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    parts = st.floats(-0.2, 0.2)
    quads = np.empty((n, dim, dim), dtype=complex)
    for quad in quads:
        for i in range(dim):
            for j in range(i, dim):
                quad[i, j] = quad[j, i] = complex(draw(parts), draw(parts))
            quad[i, i] += 1.0
        quad *= draw(st.sampled_from([1.0, 1e4]))
        quad[0, -1] += draw(st.sampled_from([0.0, 3e-13, -1e-13j])) * abs(quad).max()
    lins = np.array([[complex(draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
                      for _ in range(dim)] for _ in range(n)])
    coeffs = [complex(draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))) for _ in range(n)]
    polys = draw(st.one_of(st.none(), st.lists(st.lists(st.integers(0, 3), min_size=dim, max_size=dim),
                                                 min_size=n, max_size=n)))
    return coeffs, quads, lins, polys


@settings(max_examples=80, deadline=None)
@given(term_stacks())
def test_each_row_of_a_stack_is_the_single_term(stack):
    coeffs, quads, lins, polys = stack
    terms = gaussian_terms(coeffs, quads, lins, polys)
    assert len(terms) == len(coeffs)
    for i, t in enumerate(terms):
        alone = GaussianTerm(coeffs[i], quads[i], lins[i], () if polys is None else tuple(polys[i]))
        assert t.coeff == alone.coeff and type(t.coeff) is complex
        assert np.array_equal(t.quad, alone.quad) and np.array_equal(t.lin, alone.lin)
        assert np.array_equal(t.quad, t.quad.T)
        assert t.poly == alone.poly and all(type(k) is int for k in t.poly)


def _valid_stack(n: int = 5, dim: int = 2):
    return ([1.0 + 0.5j] * n, np.array([[[1.5, 0.2j], [0.2j, 1.0]]] * n, dtype=complex),
            np.full((n, dim), 0.3 - 0.1j), [[1, 0]] * n)


def _corrupt(kind: str, stack, i: int):
    coeffs, quads, lins, polys = stack
    if kind == "NaN in a form":
        quads[i, 1, 1] = np.nan
    elif kind == "infinite form":
        quads[i, 0, 0] = np.inf
    elif kind == "asymmetric":
        quads[i, 0, 1] += 1e-6
    elif kind == "non-finite coefficient":
        coeffs[i] = complex(np.inf, 0.0)
    elif kind == "non-finite linear part":
        lins[i, 1] = np.nan
    elif kind == "negative power":
        polys[i] = [0, -1]
    elif kind == "fractional power":
        polys[i] = [1.5, 0]
    elif kind == "not positive definite":
        quads[i] = [[1.0, 2.0], [2.0, 1.0]]


BAD_TERMS = {
    "NaN in a form": "quadratic form must be finite",
    "infinite form": "quadratic form must be finite",
    "asymmetric": "quadratic form must be symmetric",
    "non-finite coefficient": "Gaussian term coefficient and linear part must be finite",
    "non-finite linear part": "Gaussian term coefficient and linear part must be finite",
    "negative power": "monomial powers must be nonnegative",
    "fractional power": "monomial powers must be whole numbers, not 1.5",
    "not positive definite": "real part of the quadratic form must be positive definite",
}


@pytest.mark.parametrize("i", [0, 3, 4])
@pytest.mark.parametrize("kind", BAD_TERMS)
def test_a_stack_names_its_first_bad_term_and_one_term_keeps_its_message(kind, i):
    stack = _valid_stack()
    _corrupt(kind, stack, i)
    if i < 4:  # a second bad term after the first
        _corrupt(kind, stack, 4)
    message = BAD_TERMS[kind]
    with pytest.raises(ValueError, match=f"^{re.escape(message)} \\(stack index {i}\\)$"):
        gaussian_terms(*stack)
    coeffs, quads, lins, polys = stack
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GaussianTerm(coeffs[i], quads[i], lins[i], tuple(polys[i]))


@pytest.mark.parametrize("args, message", [
    ((1.0, np.eye(3), np.zeros(2)), "quadratic form must be 2x2"),
    ((1.0, [[np.nan]], [0.0]), "quadratic form must be finite"),
    ((1.0, [[1.0, 0.5], [0.0, 1.0]], [0.0, 0.0]), "quadratic form must be symmetric"),
    ((np.inf, [[1.0]], [0.0]), "Gaussian term coefficient and linear part must be finite"),
    ((1.0, np.eye(2), np.zeros(2), (1,)), "monomial powers must match the dimension"),
    ((1.0, np.eye(1), np.zeros(1), (-1,)), "monomial powers must be nonnegative"),
    ((1.0, [[0.0]], [0.0]), "real part of the quadratic form must be positive definite"),
])
def test_single_term_messages_are_unchanged(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GaussianTerm(*args)


@pytest.mark.parametrize("make, message", [
    (lambda: GaussianTerm(1, [[1.0]], [0.0], (1.5,)), "monomial powers must be whole numbers, not 1.5"),
    (lambda: GaussianTerm(1, [[1.0]], [0.0], (np.nan,)), "monomial powers must be whole numbers, not nan"),
    (lambda: GaussianTerm(1, np.eye(2), [0.0, 0.0], (0, np.inf)), "monomial powers must be whole numbers, not inf"),
    (lambda: DeltaJetTerm(1, [0.0], (0.7,)), "derivative orders must be whole numbers, not 0.7"),
    (lambda: DeltaJetTerm(1, [0.0, 0.0], (1, "1")), "derivative orders must be whole numbers"),
    (lambda: DeltaJetTerm(1, [0.0], (-1,)), "derivative orders must be nonnegative"),
    (lambda: GaussianTerm(1, [[1.0]], [[0.3]]), "linear part must be one vector per term"),
    (lambda: DeltaJetTerm(1, [[0.0, 1.0]]), "base point must be one vector"),
    (lambda: SpaceElement(-2), "ambient dimension must be at least 1"),
    (lambda: SpaceElement(0), "ambient dimension must be at least 1"),
    (lambda: SpaceElement(1.5), "ambient dimension must be a whole number, not 1.5"),
    (lambda: SpaceElement.from_dict({"dim": 1.5}), "ambient dimension must be a whole number, not 1.5"),
    (lambda: gaussian_terms(1.0, [np.eye(1)], [[0.0]]), "one coefficient per term"),
    (lambda: gaussian_terms([1.0], [np.eye(1)], [0.0]), "linear part must be one vector per term"),
    (lambda: gaussian_terms([1.0, 1.0], [np.eye(2)] * 2, np.zeros((2, 2)), [[0, 1]]),
     "monomial powers must match the dimension"),
])
def test_non_integral_powers_wrong_ranks_and_bad_dims_are_rejected(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_integral_floats_and_numpy_ints_stay_accepted():
    assert GaussianTerm(1, [[1.0]], [0.0], (2.0,)).poly == (2,)
    assert GaussianTerm(1, np.eye(2), [0.0, 0.0], tuple(np.array([1, 0], dtype=np.int32))).poly == (1, 0)
    assert DeltaJetTerm(1, [0.0, 0.0], (1.0, np.int64(1))).orders == (1, 1)
    assert all(type(k) is int for k in DeltaJetTerm(1, [0.0, 0.0], (1.0, np.int64(1))).orders)
    e = SpaceElement(np.int64(2), deltas=(DeltaJetTerm(1.0, [0.0, 1.0]),))
    assert e.dim == 2 and type(e.dim) is int
    record = SpaceElement.gaussian(np.eye(2), poly=(1, 2)).to_dict()
    record["dim"] = 2.0
    record["gaussians"][0]["poly"] = [1.0, 2.0]
    back = SpaceElement.from_dict(json.loads(json.dumps(record)))
    assert back.dim == 2 and back.gaussians[0].poly == (1, 2)
