import math

import numpy as np
import pytest

from kreingeo.algebra import inner_product
from kreingeo.elements import SpaceElement
from kreingeo.errors import NonAffineMapError
from kreingeo.geometry import embed_delta
from kreingeo.groups import (AffineMap, DeltaSpanOperator, DiffeoMap, GalileoElement,
                             PoincareElement, act_on_element, apply_point,
                             check_gram_invariance, extend_to_span,
                             parse_group_element, random_galileo, random_poincare,
                             transform_gram)
from kreingeo.kernels import KernelSpec, gram_matrix

SPEC31 = KernelSpec.gaussian(3, 1)


def interval(a, b):
    d = np.asarray(a) - np.asarray(b)
    return d[0] ** 2 + d[1] ** 2 + d[2] ** 2 - d[3] ** 2


def test_poincare_validation():
    with pytest.raises(ValueError):
        PoincareElement(np.diag([2.0, 1.0, 1.0, 1.0]), np.zeros(4))
    with pytest.raises(ValueError):
        PoincareElement.boost([1.0, 0.0, 0.0])


def test_identity_acts_trivially():
    x = np.array([0.3, -0.7, 1.1, 0.5])
    assert np.array_equal(apply_point(PoincareElement.identity(), x), x)
    assert np.array_equal(apply_point(GalileoElement.identity(), x), x)


def test_x_boost_standard_formulas():
    boost = PoincareElement.boost([0.6, 0.0, 0.0])
    got = apply_point(boost, [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(got, [1.25, 0.0, 0.0, -0.75], atol=1e-12)
    assert boost.rapidity() == pytest.approx(math.atanh(0.6), rel=1e-12)


def test_galileo_drift():
    g = GalileoElement(np.eye(3), np.array([1.0, 0.0, 0.0]), np.zeros(3), 0.0)
    got = apply_point(g, [0.0, 0.0, 0.0, 2.0])
    assert np.allclose(got, [2.0, 0.0, 0.0, 2.0])


def test_galileo_validation():
    with pytest.raises(ValueError):
        GalileoElement(np.diag([1.0, 1.0, 2.0]), np.zeros(3), np.zeros(3))


def test_group_inverses():
    rng = np.random.default_rng(0)
    x = rng.normal(size=4)
    for _ in range(10):
        g = random_poincare(rng)
        assert type(g.inverse()) is PoincareElement
        assert np.allclose(apply_point(g.inverse(), apply_point(g, x)), x, atol=1e-12)
        h = random_galileo(rng)
        assert type(h.inverse()) is GalileoElement
        assert np.allclose(apply_point(h.inverse(), apply_point(h, x)), x, atol=1e-12)


def test_boost_preserves_interval():
    rng = np.random.default_rng(4)
    boost = PoincareElement.boost([0.6, 0.0, 0.0])
    a = np.array([0.0, 0.0, 0.0, 0.0])
    b = np.array([1.0, 0.0, 0.0, 1.0])  # lightlike pair
    assert interval(a, b) == pytest.approx(0.0, abs=1e-15)
    ga, gb = apply_point(boost, a), apply_point(boost, b)
    assert interval(ga, gb) == pytest.approx(0.0, abs=1e-12)
    for _ in range(20):
        a, b = rng.normal(size=(2, 4))
        g = random_poincare(rng)
        assert interval(apply_point(g, a), apply_point(g, b)) == pytest.approx(
            interval(a, b), abs=1e-11)


def test_extend_to_span_maps_deltas():
    shift = PoincareElement.from_translation([1.0, 0.0, 0.0, 0.0])
    op = extend_to_span(shift, np.zeros((1, 4)))
    image = act_on_element(op, embed_delta(np.zeros(4)))
    assert np.array_equal(image.deltas[0].base, [1.0, 0.0, 0.0, 0.0])


def test_extend_to_span_identity():
    pts = np.array([[0.0, 0, 0, 0], [1.0, 0, 0, 1]])
    op = extend_to_span(PoincareElement.identity(), pts)
    assert np.array_equal(op.sources, op.targets)


def test_extend_to_span_rejects_duplicates():
    pts = np.zeros((2, 4))
    with pytest.raises(ValueError):
        extend_to_span(PoincareElement.identity(), pts)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_span_rejects_non_finite_points(bad):
    pts = np.array([[bad, 0, 0, 0], [1.0, 0, 0, 1]])
    with pytest.raises(ValueError, match="finite"):
        extend_to_span(PoincareElement.identity(), pts)
    with pytest.raises(ValueError, match="finite"):
        DeltaSpanOperator(np.eye(2, 4), pts)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_apply_point_rejects_non_finite_points(bad):
    elements = [PoincareElement.boost([0.3, 0, 0]), GalileoElement.identity(),
                AffineMap(np.eye(2), np.zeros(2)),
                DiffeoMap.from_strings(["u1", "u2"], [(-1.0, 1.0), (-1.0, 1.0)])]
    for g in elements:
        point = np.zeros(g.dim if isinstance(g, (AffineMap, DiffeoMap)) else 4)
        point[0] = bad
        with pytest.raises(ValueError, match="not finite"):
            apply_point(g, point)


def test_span_rejects_numerically_dependent_deltas():
    # Distinct but nearly coincident points fail the Gram conditioning check.
    pts = np.array([[0.0, 0, 0, 0], [1e-7, 0, 0, 0]])
    with pytest.raises(ValueError):
        extend_to_span(PoincareElement.identity(), pts)


def test_span_commutes_with_embedding():
    rng = np.random.default_rng(8)
    for _ in range(50):
        g = random_poincare(rng)
        a = rng.normal(size=4)
        pts = np.vstack([a, rng.normal(size=4)])
        op = extend_to_span(g, pts)
        via_span = act_on_element(op, embed_delta(a))
        direct = embed_delta(apply_point(g, a))
        assert np.array_equal(via_span.deltas[0].base, direct.deltas[0].base)


def test_span_operator_linear_combination():
    pts = np.array([[0.0, 0, 0, 0], [1.0, 0, 0, 1]])
    boost = PoincareElement.boost([0.6, 0.0, 0.0])
    op = extend_to_span(boost, pts)
    e = embed_delta(pts[0]) * 2.0 + embed_delta(pts[1]) * (1.0 - 1.0j)
    out = op.apply(e)
    assert out.deltas[0].coeff == 2.0
    assert out.deltas[1].coeff == 1.0 - 1.0j
    assert np.allclose(out.deltas[1].base, apply_point(boost, pts[1]))


def test_span_operator_rejects_outside_elements():
    op = DeltaSpanOperator(np.zeros((1, 2)), np.ones((1, 2)))
    with pytest.raises(ValueError):
        op.apply(embed_delta([5.0, 5.0]))
    for outside in (SpaceElement.gaussian(np.eye(2)), SpaceElement.delta([0.0, 0.0], orders=(1, 0))):
        with pytest.raises(ValueError):
            op.apply(outside)


def test_affine_pushforward_of_gaussian_translation():
    e = SpaceElement.gaussian([[1.0]])
    shifted = act_on_element(AffineMap(np.eye(1), np.array([1.0])), e)
    xs = np.linspace(-2, 3, 11)
    assert np.allclose(shifted.evaluate(xs[:, None]),
                       np.exp(-0.5 * (xs - 1.0) ** 2), atol=1e-14)


def test_delta_maps_to_delta_under_boost():
    boost = PoincareElement.boost([0.6, 0.0, 0.0])
    a = np.array([0.3, -0.2, 0.1, 0.5])
    out = act_on_element(boost, SpaceElement.delta(a))
    assert np.allclose(out.deltas[0].base, apply_point(boost, a), atol=1e-14)
    assert out.deltas[0].coeff == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("make", [random_poincare, random_galileo])
def test_group_elements_act_as_their_affine_maps(make):
    g = make(np.random.default_rng(12))
    e = (SpaceElement.gaussian(np.eye(4) * 1.2, lin=[0.1, -0.2, 0.3, 0.0], coeff=0.5 - 0.5j)
         + SpaceElement.delta([0.3, -0.2, 0.1, 0.5], coeff=2.0, orders=(1, 0, 0, 1)))
    want = act_on_element(AffineMap(g.matrix, g.offset), e)
    assert act_on_element(g, e).to_dict() == want.to_dict()


def test_pushforward_is_kernel_adjoint_for_isometries():
    # (f o g^{-1}, phi) = (f, phi o g) when g preserves the kernel; this
    # exercises the jet transformation chain rule including order 2.
    spec = KernelSpec.gaussian(2, 0)
    rot = AffineMap(np.array([[math.cos(0.7), -math.sin(0.7)],
                              [math.sin(0.7), math.cos(0.7)]]), np.array([0.3, -0.4]))
    e = (SpaceElement.delta([0.2, 0.5], coeff=1.5, orders=(1, 0))
         + SpaceElement.delta([-0.3, 0.1], coeff=2.0 - 1.0j, orders=(1, 1)))
    phi = SpaceElement.gaussian(np.eye(2) * 1.3, lin=[0.2, -0.1], coeff=0.8 + 0.2j)
    lhs = inner_product(act_on_element(rot, e), phi, spec)
    rhs = inner_product(e, phi.compose_affine(rot.matrix, rot.offset), spec)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_nonaffine_on_gaussian_raises():
    diffeo = DiffeoMap.from_strings(
        ["0.9 * u1 + 0.1 * sin(u2)", "0.9 * u2 + 0.1 * cos(u1)"],
        [(-1.0, 1.0), (-1.0, 1.0)])
    for outside in (SpaceElement.gaussian(np.eye(2)), SpaceElement.delta([0.5, -0.5], orders=(1, 0))):
        with pytest.raises(NonAffineMapError):
            act_on_element(diffeo, outside)
    out = act_on_element(diffeo, embed_delta([0.5, -0.5]))
    assert np.allclose(out.deltas[0].base, diffeo.apply([0.5, -0.5]))


def test_diffeo_domain_checks():
    diffeo = DiffeoMap.from_strings(["0.5 * u1"], [(-1.0, 1.0)])
    with pytest.raises(ValueError):
        diffeo.apply([2.0])
    with pytest.raises(ValueError):
        DiffeoMap.from_strings(["u1 + 5"], [(-1.0, 1.0)])


def test_gram_invariance_poincare():
    rng = np.random.default_rng(14)
    pts = rng.normal(scale=0.5, size=(10, 4))
    for _ in range(25):
        g = random_poincare(rng)
        assert check_gram_invariance(g, pts, SPEC31) <= 1e-12


def test_gram_invariance_spatial_rotation():
    rng = np.random.default_rng(15)
    pts = rng.normal(size=(10, 3))
    rot3 = AffineMap(np.array(PoincareElement.rotation([0, 0, 1.0], 0.8).lorentz[:3, :3]),
                     np.zeros(3))
    assert check_gram_invariance(rot3, pts, KernelSpec.gaussian(3, 0)) <= 1e-13


def test_gram_invariance_negative_control():
    scaling = AffineMap(np.diag([2.0, 1.0, 1.0, 1.0]), np.zeros(4))
    pts = np.vstack([np.zeros(4), np.eye(4)[0]])
    dev = check_gram_invariance(scaling, pts, KernelSpec.gaussian(4, 0))
    assert dev == pytest.approx(abs(math.exp(-2.0) - math.exp(-0.5)), rel=1e-12)
    assert dev > 0.1


def test_gram_invariance_dimension_mismatch():
    with pytest.raises(ValueError):
        check_gram_invariance(PoincareElement.identity(), np.zeros((2, 3)),
                              KernelSpec.gaussian(3, 0))


def test_transform_gram_indefinite_invariance():
    rng = np.random.default_rng(21)
    pts = rng.normal(scale=0.5, size=(6, 4))
    boost = PoincareElement.boost([0.6, 0.0, 0.0])
    op = extend_to_span(boost, pts)
    gram = gram_matrix(pts, SPEC31)
    out = transform_gram(op, gram, boost, SPEC31)
    assert np.max(np.abs(out - gram)) <= 1e-12


def test_transform_gram_positive_changes():
    pos = KernelSpec.gaussian(4, 0)
    pts = np.vstack([np.zeros(4), np.array([1.0, 0, 0, 1.0])])
    boost = PoincareElement.boost([0.6, 0.0, 0.0])
    op = extend_to_span(boost, pts)
    gram = gram_matrix(pts, pos)
    out = transform_gram(op, gram, boost, pos)
    assert gram[0, 1] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert out[0, 1] == pytest.approx(math.exp(-0.25), rel=1e-12)
    assert abs(out[0, 1] - gram[0, 1]) > 0.1


def test_transform_gram_identity():
    pts = np.vstack([np.zeros(4), np.array([1.0, 0, 0, 0.0])])
    op = extend_to_span(PoincareElement.identity(), pts)
    gram = gram_matrix(pts, SPEC31)
    assert np.array_equal(transform_gram(op, gram, PoincareElement.identity(), SPEC31), gram)


def test_transform_gram_validates_inputs():
    pts = np.vstack([np.zeros(4), np.array([1.0, 0, 0, 0.0])])
    boost = PoincareElement.boost([0.3, 0.0, 0.0])
    op = extend_to_span(boost, pts)
    with pytest.raises(ValueError):
        transform_gram(op, np.eye(3), boost, SPEC31)
    with pytest.raises(ValueError):
        transform_gram(op, np.eye(2), PoincareElement.boost([0.5, 0.0, 0.0]), SPEC31)


def test_parse_group_element_boost():
    g = parse_group_element({"boost": [0.6, 0.0, 0.0]})
    assert isinstance(g, PoincareElement)
    assert np.allclose(apply_point(g, [1.0, 0, 0, 0]), [1.25, 0, 0, -0.75])


def test_parse_group_element_combined_poincare():
    g = parse_group_element({"rotation": {"axis": [0, 0, 1], "angle": 0.5},
                             "boost": [0.3, 0.0, 0.0],
                             "translation": [1.0, 0.0, 0.0, 2.0]})
    reference = (PoincareElement.from_translation([1.0, 0, 0, 2.0])
                 @ PoincareElement.boost([0.3, 0, 0])
                 @ PoincareElement.rotation([0, 0, 1], 0.5))
    x = np.array([0.4, -0.2, 0.9, 0.1])
    assert np.allclose(apply_point(g, x), apply_point(reference, x), atol=1e-14)


def test_parse_group_element_galileo():
    g = parse_group_element({"galileo": {"axis": [0, 0, 1], "angle": 0.0,
                                         "v": [1, 0, 0], "b": [0, 0, 0], "c": 0.0}})
    assert isinstance(g, GalileoElement)
    assert np.allclose(apply_point(g, [0, 0, 0, 2.0]), [2.0, 0, 0, 2.0])


def test_parse_group_element_diffeo():
    g = parse_group_element({"diffeo": {"maps": ["0.5 * u1"], "domain": [[-1, 1]]}})
    assert isinstance(g, DiffeoMap)
    assert np.allclose(apply_point(g, [0.8]), [0.4])


def test_parse_group_element_rejects_unknown():
    with pytest.raises(ValueError):
        parse_group_element({"teleport": [1, 2, 3]})
    with pytest.raises(ValueError):
        parse_group_element({"galileo": {"warp": 9}})


def test_group_composition_consistency():
    rng = np.random.default_rng(30)
    x = rng.normal(size=4)
    for _ in range(20):
        g, h = random_poincare(rng), random_poincare(rng)
        assert np.allclose(apply_point(g @ h, x),
                           apply_point(g, apply_point(h, x)), atol=1e-12)
        assert type(g @ h) is PoincareElement
        gg, hh = random_galileo(rng), random_galileo(rng)
        assert np.allclose(apply_point(gg @ hh, x),
                           apply_point(gg, apply_point(hh, x)), atol=1e-12)
        composed = gg @ hh
        assert type(composed) is GalileoElement
        A1, v1, b1, c1 = gg.rotation, gg.velocity, gg.shift, gg.time_shift
        A2, v2, b2, c2 = hh.rotation, hh.velocity, hh.shift, hh.time_shift
        assert np.allclose(composed.rotation, A1 @ A2, rtol=0, atol=1e-14)
        assert np.allclose(composed.velocity, A1 @ v2 + v1, rtol=0, atol=1e-14)
        assert np.allclose(composed.shift, A1 @ b2 + v1 * c2 + b1, rtol=0, atol=1e-14)
        assert composed.time_shift == pytest.approx(c1 + c2, rel=0, abs=1e-14)
