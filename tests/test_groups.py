import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreingeo.algebra import inner_product
from kreingeo.elements import DeltaJetTerm, SpaceElement
from kreingeo.errors import DegenerateImmersionError, NonAffineMapError
from kreingeo.expressions import FUNCTIONS, BinOp, Call, Neg, Num, Var, evaluate
from kreingeo.geometry import embed_delta
from kreingeo import groups
from kreingeo.groups import (AffineMap, DeltaSpanOperator, DiffeoMap, GalileoElement,
                             PoincareElement, act_on_element, apply_point,
                             check_gram_invariance, extend_to_span,
                             parse_group_element, transform_gram)
from kreingeo.kernels import KernelSpec, gram_matrix

SPEC31 = KernelSpec.gaussian(3, 1)


def random_poincare(rng, max_rapidity=2.0, translation_scale=1.0):
    """Random rotation * boost * translation: the one-row stack of one set of draws."""
    return groups._poincare_stack([groups._poincare_draws(rng, max_rapidity, translation_scale)])[0]


def random_galileo(rng):
    return groups._galileo_stack([groups._galileo_draws(rng)])[0]


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_group_elements_reject_non_finite_entries(bad):
    matrix = np.eye(4)
    matrix[1, 2] = bad
    offset = np.zeros(4)
    offset[3] = bad
    builds = [lambda: AffineMap(matrix, np.zeros(4)), lambda: AffineMap(np.eye(4), offset),
              lambda: PoincareElement(matrix, np.zeros(4)),
              lambda: PoincareElement(np.eye(4), offset),
              lambda: GalileoElement(matrix[:3, :3], np.zeros(3), np.zeros(3)),
              lambda: GalileoElement(np.eye(3), [bad, 0, 0], np.zeros(3)),
              lambda: GalileoElement(np.eye(3), np.zeros(3), np.zeros(3), bad),
              lambda: PoincareElement.boost([bad, 0, 0]),
              lambda: parse_group_element({"translation": [0, 0, bad, 0]}),
              lambda: parse_group_element({"boost": [0, bad, 0]}),
              lambda: parse_group_element({"rotation": {"axis": [0, bad, 1], "angle": 0.5}}),
              lambda: parse_group_element({"rotation": {"axis": [0, 0, 1], "angle": bad}}),
              lambda: parse_group_element({"galileo": {"v": [0, 0, bad]}}),
              lambda: parse_group_element({"galileo": {"b": [bad, 0, 0], "c": 1.0}})]
    for build in builds:
        with pytest.raises(ValueError, match="finite"):
            build()


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


# A RuntimeWarning on the way is an error under the pytest settings.
@pytest.mark.parametrize("bounds", [(0.0, 0.0), (1.0, 0.0), (math.nan, 1.0), (0.0, math.nan),
                                    (-math.inf, 1.0), (0.0, math.inf)])
def test_diffeo_rejects_an_empty_or_infinite_domain_interval(bounds):
    with pytest.raises(ValueError, match="domain interval .* must be finite, with its upper"):
        DiffeoMap.from_strings(["u1", "u2"], [(-1.0, 1.0), bounds])


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


# Point stacks: one call maps every row, with the bits of the row mapped alone.

def _affine_maps():
    rng = np.random.default_rng(17)
    return [random_poincare(rng), random_galileo(rng),
            AffineMap(rng.normal(size=(3, 3)), rng.normal(size=3))]


@pytest.mark.parametrize("n", [1, 2, 20])
def test_a_stack_maps_each_row_as_alone(n):
    rng = np.random.default_rng(n)
    for g in _affine_maps():
        stack = rng.normal(scale=2.0, size=(n, g.dim))
        rows = np.array([g.apply(p) for p in stack])
        assert np.array_equal(g.apply(stack), rows)
        assert np.array_equal(apply_point(g, stack), rows)
        assert np.array_equal(extend_to_span(g, stack).targets, rows)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_stack_with_one_non_finite_row_is_rejected(bad):
    diffeo = DiffeoMap.from_strings(["u1", "u2"], [(-1.0, 1.0), (-1.0, 1.0)])
    for g in _affine_maps() + [diffeo]:
        stack = np.zeros((5, g.dim))
        stack[3, -1] = bad
        with pytest.raises(ValueError, match="not finite") as info:
            apply_point(g, stack)
        assert str(info.value) == f"point {stack[3].tolist()} is not finite"


def test_a_stack_of_the_wrong_shape_is_rejected():
    diffeo = DiffeoMap.from_strings(["u1", "u2"], [(-1.0, 1.0), (-1.0, 1.0)])
    for g in _affine_maps() + [diffeo]:
        for points in (np.zeros((4, g.dim + 1)), np.zeros((2, 3, g.dim))):
            with pytest.raises(ValueError, match="point dimension mismatch"):
                apply_point(g, points)


def test_a_diffeo_maps_a_stack_point_by_point():
    diffeo = DiffeoMap.from_strings(["0.9 * u1 + 0.1 * sin(u2)", "0.9 * u2 + 0.1 * cos(u1)"],
                                    [(-1.0, 1.0), (-1.0, 1.0)])
    pts = np.random.default_rng(5).uniform(-0.95, 0.95, size=(7, 2))
    op = extend_to_span(diffeo, pts)
    assert np.array_equal(op.targets, np.array([diffeo.apply(p) for p in pts]))
    assert np.array_equal(apply_point(diffeo, pts), op.targets)


# Each group element is built, and checked, once.

def test_random_poincare_is_rotation_times_boost_bit_for_bit():
    rng, replay = np.random.default_rng(23), np.random.default_rng(23)
    for _ in range(50):
        g = random_poincare(rng, max_rapidity=3.0, translation_scale=2.0)
        # The draws of random_poincare, in its order.
        axis = replay.normal(size=3)
        while np.linalg.norm(axis) < 1e-6:
            axis = replay.normal(size=3)
        angle = replay.uniform(0.0, 2.0 * math.pi)
        rap = replay.uniform(0.0, 3.0)
        direction = replay.normal(size=3)
        direction /= np.linalg.norm(direction)
        velocity = math.tanh(rap) * direction
        expected = PoincareElement.rotation(axis, angle) @ PoincareElement.boost(velocity)
        assert np.array_equal(g.lorentz, expected.lorentz)
        assert np.array_equal(g.offset, replay.normal(scale=2.0, size=4))


@pytest.mark.parametrize("velocity", [[math.nan, 0, 0], [1.0, 0, 0], [0.6, 0.8, 0.0],
                                      [0.0, 0.0, -1.5], [math.inf, 0, 0]])
def test_boost_rejects_nan_and_speeds_of_one_or_more(velocity):
    with pytest.raises(ValueError, match="boost speed must be finite and below 1"):
        PoincareElement.boost(velocity)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_one_delta_span_rejects_non_finite_points(bad):
    point = np.array([[0.0, bad, 0.0, 0.0]])
    with pytest.raises(ValueError, match="sources and targets must be finite"):
        DeltaSpanOperator(point, np.zeros((1, 4)))
    with pytest.raises(ValueError, match="sources and targets must be finite"):
        DeltaSpanOperator(np.zeros((1, 4)), point)


def test_coincident_sources_are_rejected():
    pts = np.array([[0.5, 0.0, 1.0, 0.0], [1.0, 2.0, 0.0, 0.0], [0.5, 0.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="pairwise distinct"):
        DeltaSpanOperator(pts, pts)
    with pytest.raises(ValueError, match="pairwise distinct"):
        extend_to_span(PoincareElement.boost([0.3, 0.0, 0.0]), pts[[0, 2]])


def test_lorentz_metric_constant_is_read_only():
    with pytest.raises(ValueError, match="read-only"):
        groups._ETA4[0, 0] = 2.0


def test_span_operator_names_the_first_delta_outside_its_span():
    pts = np.array([[0.0, 0, 0, 0], [1.0, 0, 0, 1], [0.0, 2, 0, 0]])
    op = extend_to_span(PoincareElement.boost([0.6, 0.0, 0.0]), pts)
    inside = embed_delta(pts[2]) * 3.0 + embed_delta(pts[0]) + embed_delta(pts[1]) * 1j
    out = op.apply(inside)
    for term, p in zip(out.deltas, pts[[2, 0, 1]]):
        assert np.array_equal(term.base, op.targets[np.flatnonzero((pts == p).all(axis=1))[0]])
    near = pts[1] + 1e-13  # within the 1e-12 rule
    assert np.array_equal(op.apply(embed_delta(near)).deltas[0].base, op.targets[1])
    with pytest.raises(ValueError, match="outside the operator span"):
        op.apply(embed_delta(pts[1] + [2e-12, 0, 0, 0]))
    outside = embed_delta(pts[0]) + embed_delta([0.0, 0, 3, 0]) + embed_delta([0.0, 0, 4, 0])
    with pytest.raises(ValueError, match=r"delta at \[0.0, 0.0, 3.0, 0.0\] is outside"):
        op.apply(outside)


# Config records: unknown and missing keys are errors that name the key.

@pytest.mark.parametrize("record, message", [
    ({"rotation": {"axis": [0, 0, 1], "angle": 1, "foo": 2}}, r"unknown rotation keys: \['foo'\]"),
    ({"rotation": {"axis": [0, 0, 1]}}, r"missing rotation keys: \['angle'\]"),
    ({"rotation": {"angle": 1}, "boost": [0.1, 0, 0]}, r"missing rotation keys: \['axis'\]"),
    ({"galileo": {"axis": [0, 0, 1], "v": [1, 0, 0]}}, r"missing galileo keys: \['angle'\]"),
    ({"galileo": {"angle": 0.5}}, r"missing galileo keys: \['axis'\]"),
    ({"diffeo": {"maps": ["u1"]}}, r"missing diffeo keys: \['domain'\]"),
    ({"diffeo": {"domain": [[-1, 1]]}}, r"missing diffeo keys: \['maps'\]"),
    ({"rotation": {"axis": [0, 1], "angle": 1}}, "rotation axis must be a 3-vector"),
    ({"galileo": {"axis": [0, 0, 1, 0], "angle": 1}}, "rotation axis must be a 3-vector"),
])
def test_parse_group_element_rejects_unknown_and_missing_keys(record, message):
    with pytest.raises(ValueError, match=message):
        parse_group_element(record)


# Stacks of affine maps: one build and one check for k elements, each row
# with the bits of the element built alone.

_finite = st.floats(-3.0, 3.0, allow_nan=False)
_axis = st.tuples(_finite, _finite, _finite).filter(lambda v: np.linalg.norm(v) > 1e-3)
_angle = st.floats(0.0, 2.0 * math.pi)
_poincare_draw = st.tuples(_axis, _angle, st.floats(0.0, 2.0), _axis,
                           st.tuples(_finite, _finite, _finite, _finite))
_galileo_draw = st.tuples(_axis, _angle, st.tuples(_finite, _finite, _finite),
                          st.tuples(_finite, _finite, _finite), _finite)


def _single_poincare(axis, angle, rapidity, direction, shift):
    direction = np.asarray(direction, dtype=float)
    velocity = math.tanh(rapidity) * (direction / np.linalg.norm(direction))
    lorentz = (PoincareElement.rotation(axis, angle) @ PoincareElement.boost(velocity)).lorentz
    return PoincareElement(lorentz, shift)


def _single_galileo(axis, angle, velocity, shift, time_shift):
    return GalileoElement(groups.rotation_matrix(axis, angle), velocity, shift, time_shift)


def _same_map(a, b, points):
    assert np.array_equal(a.matrix, b.matrix) and np.array_equal(a.offset, b.offset)
    assert np.array_equal(a.apply(points), b.apply(points))
    assert np.array_equal(apply_point(a, points), apply_point(b, points))


@settings(max_examples=40, deadline=None)
@given(st.lists(_poincare_draw, min_size=1, max_size=8), st.lists(_galileo_draw, min_size=1, max_size=8),
       st.integers(0, 2 ** 32 - 1))
def test_each_stack_row_is_the_element_built_alone(p_draws, g_draws, seed):
    rng = np.random.default_rng(seed)
    for draws, stack, single in ((p_draws, groups._poincare_stack, _single_poincare),
                                 (g_draws, groups._galileo_stack, _single_galileo)):
        G = stack([tuple(np.asarray(x, dtype=float) for x in d) for d in draws])
        k = len(draws)
        H = G[rng.permutation(k)]
        points = rng.normal(scale=2.0, size=(3, k, 4))
        images, composed = apply_point(G, points), G @ H
        assert type(composed) is type(G) and type(G[0]) is type(G)
        for i, d in enumerate(draws):
            g, h = single(*d), G[i]
            _same_map(G[i], g, points[:, i])
            assert np.array_equal(images[:, i], apply_point(g, points[:, i]))
            _same_map(composed[i], g @ H[i], points[:, i])
            assert np.array_equal(composed.apply(points)[:, i], (g @ H[i]).apply(points[:, i]))
            _same_map(h @ H[i], g @ H[i], points[:, i])


@settings(max_examples=30, deadline=None)
@given(st.lists(_poincare_draw, min_size=1, max_size=8), st.integers(0, 2 ** 32 - 1))
def test_stacked_elements_keep_the_indefinite_gram_matrix(draws, seed):
    G = groups._poincare_stack([tuple(np.asarray(x, dtype=float) for x in d) for d in draws])
    points = np.random.default_rng(seed).normal(scale=0.7, size=(4, 4))
    scale = max(1.0, float(np.max(np.abs(gram_matrix(points, SPEC31)))))
    for i in range(len(draws)):
        assert check_gram_invariance(G[i], points, SPEC31) <= 1e-11 * scale


@settings(max_examples=30, deadline=None)
@given(st.lists(_poincare_draw, min_size=1, max_size=8), st.lists(_galileo_draw, min_size=1, max_size=8),
       st.data())
def test_a_stack_with_one_bad_matrix_names_its_index(p_draws, g_draws, data):
    G = groups._poincare_stack([tuple(np.asarray(x, dtype=float) for x in d) for d in p_draws])
    # Every element from ``bad`` on fails: the first of them is named.
    bad = data.draw(st.integers(0, len(p_draws) - 1))
    lorentz = G.lorentz.copy()
    lorentz[bad:] = np.diag([1.5, 1.0, 1.0, 1.0]) @ lorentz[bad:]
    with pytest.raises(ValueError, match=rf"preserve the flat space-time metric \(stack index {bad}\)$"):
        PoincareElement(lorentz, G.offset)
    H = groups._galileo_stack([tuple(np.asarray(x, dtype=float) for x in d) for d in g_draws])
    bad = data.draw(st.integers(0, len(g_draws) - 1))
    rotation = H.rotation.copy()
    rotation[bad:, 0] *= 1.01
    with pytest.raises(ValueError, match=rf"must be orthogonal \(stack index {bad}\)$"):
        GalileoElement(rotation, H.velocity, H.shift, H.offset[:, 3])
    matrix = H.matrix.copy()
    matrix[bad:, 3, 0] = 0.5
    with pytest.raises(ValueError, match=rf"block matrix \[\[A, v\], \[0, 1\]\] \(stack index {bad}\)$"):
        H._like(matrix, H.offset)
    offset = H.offset.copy()
    offset[bad:, 2] = math.nan
    with pytest.raises(ValueError, match=rf"finite matrix and offset \(stack index {bad}\)$"):
        AffineMap(H.matrix, offset)


def test_a_single_map_is_not_a_stack():
    g = PoincareElement.boost([0.3, 0.0, 0.0])
    with pytest.raises(TypeError, match="only a stack"):
        g[0]
    with pytest.raises(ValueError, match=r"metric$"):
        PoincareElement(np.diag([2.0, 1.0, 1.0, 1.0]), np.zeros(4))


def test_stacked_constructors_match_their_single_calls():
    axes = np.array([[0.0, 0.0, 1.0], [1.0, -2.0, 0.5], [0.3, 0.1, -0.2]])
    angles = np.array([0.7, -2.5, 4.0])
    velocities = np.array([[0.0, 0.0, 0.0], [0.6, 0.0, 0.0], [0.1, -0.5, 0.3]])
    rotations, boosts = PoincareElement.rotation(axes, angles), PoincareElement.boost(velocities)
    for i in range(3):
        assert np.array_equal(rotations[i].lorentz, PoincareElement.rotation(axes[i], angles[i]).lorentz)
        assert np.array_equal(boosts[i].lorentz, PoincareElement.boost(velocities[i]).lorentz)
    assert np.array_equal(boosts[0].lorentz, np.eye(4))  # a boost at rest
    assert not np.signbit(boosts[0].lorentz).any()
    with pytest.raises(ValueError, match=r"below 1 \(stack index 1\)$"):
        PoincareElement.boost(velocities * [[1.0], [2.0], [1.0]])
    with pytest.raises(ValueError, match=r"nonzero \(stack index 2\)$"):
        groups.rotation_matrix(axes * [[1.0], [1.0], [0.0]], angles)


def test_random_elements_draw_then_build():
    rng, replay = np.random.default_rng(3), np.random.default_rng(3)
    G = groups._poincare_stack([groups._poincare_draws(rng, 1.5, 0.5) for _ in range(2)])
    H = groups._galileo_stack([groups._galileo_draws(rng) for _ in range(2)])
    gs = [random_poincare(replay, max_rapidity=1.5, translation_scale=0.5) for _ in range(2)]
    hs = [random_galileo(replay) for _ in range(2)]
    for i in range(2):  # each row of a stack is the element its draws build alone
        _same_map(gs[i], G[i], np.ones(4))
        _same_map(hs[i], H[i], np.ones(4))
    assert np.array_equal(rng.normal(size=3), replay.normal(size=3))


# Stacks of maps pair point i with map i: check_gram_invariance moves all the
# points under each map of a stack, and the other Gram checks take one element.

def test_gram_checks_reject_a_stack_of_maps():
    rng = np.random.default_rng(0)
    G = groups._poincare_stack([groups._poincare_draws(rng) for _ in range(3)])
    for n in (3, 5):  # three points once paired point i with map i; five raised numpy's broadcast error
        pts = rng.normal(size=(n, 4))
        devs = check_gram_invariance(G, pts, SPEC31)
        assert devs.shape == (3,) and devs.tolist() == [check_gram_invariance(g, pts, SPEC31) for g in G]
        assert check_gram_invariance(G[:1], pts, SPEC31).tolist() == devs[:1].tolist()
        op = extend_to_span(G[0], pts)
        with pytest.raises(ValueError, match="^transform_gram takes one group element, not a stack of 3$"):
            transform_gram(op, gram_matrix(pts, SPEC31), G, SPEC31)
        with pytest.raises(ValueError, match="not a stack of 3$"):
            extend_to_span(G, pts)
        with pytest.raises(ValueError, match=r"extends over points \(n, 3, m\)"):
            extend_to_span(G, pts[:, None])
        stacked = extend_to_span(G, np.stack([pts] * 3, axis=1))
        with pytest.raises(ValueError, match="one span operator, not a stack"):
            transform_gram(stacked, gram_matrix(pts, SPEC31), G[0], SPEC31)
        with pytest.raises(TypeError, match="acts through its elements"):
            stacked.apply(embed_delta(pts[0]))


# Diffeomorphisms on point stacks: one evaluation per expression, with the
# bits of the row-by-row evaluation below.

def _apply_by_rows(diffeo, points):
    """The image of each row on its own, one expression at a time."""
    return np.array([[float(evaluate(e, p)) for e in diffeo.exprs] for p in points]).reshape(points.shape)


def _unvalidated_diffeo(exprs, dim):
    """A map on [-1, 1]^dim without the sample-grid checks, which random trees rarely pass."""
    diffeo = object.__new__(DiffeoMap)
    diffeo.__dict__.update(exprs=tuple(exprs), domain=((-1.0, 1.0),) * dim)
    return diffeo


def _trees(leaves):
    return st.recursive(leaves, lambda sub: st.one_of(
        st.builds(Neg, sub), st.builds(Call, st.sampled_from(sorted(FUNCTIONS)), sub),
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]), sub, sub)), max_leaves=10)


_constants = st.floats(-3.0, 3.0, allow_nan=False).map(Num)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_a_diffeo_maps_a_stack_as_row_by_row(data, dim, n, seed):
    variables = st.integers(0, dim - 1).map(Var)
    exprs = [data.draw(_trees(_constants) if data.draw(st.booleans()) else _trees(_constants | variables))
             for _ in range(dim)]
    diffeo = _unvalidated_diffeo(exprs, dim)
    points = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, dim))
    with np.errstate(all="ignore"):  # random trees overflow and divide by zero
        try:
            want = _apply_by_rows(diffeo, points)
        except ZeroDivisionError:  # a constant subtree divides Python floats by zero, on every path
            with pytest.raises(ZeroDivisionError):
                diffeo.apply(points)
            return
        got = diffeo.apply(points)
        singles = np.array([diffeo.apply(p) for p in points])
    assert got.shape == points.shape and got.dtype == float
    assert np.array_equal(got, want, equal_nan=True)  # == on every finite value, NaN where it was
    assert np.array_equal(singles, want, equal_nan=True)


def test_a_constant_map_is_broadcast_to_the_stack():
    diffeo = _unvalidated_diffeo([Num(0.25), Call("sin", Num(0.5))], 2)
    points = np.zeros((3, 2))
    assert np.array_equal(diffeo.apply(points), np.tile([0.25, math.sin(0.5)], (3, 1)))
    assert np.array_equal(diffeo.apply(points[0]), [0.25, math.sin(0.5)])


def test_a_diffeo_names_the_first_point_outside_its_domain():
    diffeo = DiffeoMap.from_strings(["0.5 * u1", "0.5 * u2"], [(-1.0, 1.0), (-1.0, 1.0)])
    points = np.array([[0.0, 0.0], [0.5, 1.5], [0.0, 0.2], [-2.0, 0.0]])
    with pytest.raises(ValueError, match=r"^point \[0.5, 1.5\] is outside the map domain$"):
        diffeo.apply(points)
    with pytest.raises(ValueError, match=r"^point \[-2.0, 0.0\] is outside the map domain$"):
        apply_point(diffeo, points[[0, 3]])
    assert np.array_equal(diffeo.apply(points, check_domain=False), 0.5 * points)


def test_diffeo_samples_fail_in_grid_order():
    # The Jacobian is singular at the grid point (-1/3, -1), before (-1/3, 1) leaves the box.
    with pytest.raises(DegenerateImmersionError, match=r"rank deficient at \[-0.333"):
        DiffeoMap.from_strings(["0.5 * cos(u1 + 1 / 3)", "u2 + 0.5 * (u1 + 1) ^ 2"], [(-1, 1), (-1, 1)])
    with pytest.raises(ValueError, match=r"sends the sample point \[-0.333\d*, 1.0\] outside"):
        DiffeoMap.from_strings(["0.5 * u1", "u2 + 0.5 * (u1 + 1) ^ 2"], [(-1, 1), (-1, 1)])


def test_a_diffeo_with_a_non_finite_image_is_rejected():
    diffeo = DiffeoMap.from_strings(["u1 / (u1 - 0.5) * (u1 - 0.5)"], [(-1.0, 1.0)])  # NaN at 0.5 only
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.array_equal(act_on_element(diffeo, embed_delta([0.2])).deltas[0].base, [0.2])
        with pytest.raises(ValueError, match=r"^image of the delta at \[0.5\] is not finite$"):
            act_on_element(diffeo, embed_delta([0.2]) + embed_delta([0.5]) * 2.0)
        with pytest.raises(ValueError, match="sources and targets must be finite"):
            extend_to_span(diffeo, [[0.2], [0.5]])


# Stacks of span operators: one check for k operators, each operator the
# one built alone.

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
def test_a_stacked_span_operator_is_k_single_operators(k, n, m, seed):
    rng = np.random.default_rng(seed)
    sources, targets = rng.normal(size=(2, k, n, m))
    ops = DeltaSpanOperator(sources, targets)
    assert (ops.size, ops.dim) == (n, m)
    for i, op in enumerate(ops):
        alone = DeltaSpanOperator(sources[i], targets[i])
        assert np.array_equal(op.sources, alone.sources) and np.array_equal(op.targets, alone.targets)
        bases = sources[i][rng.permutation(n)] + 1e-13
        owners = np.zeros(n, dtype=int)
        assert np.array_equal(op._match(bases, owners), alone._match(bases, owners))
        e = embed_delta(sources[i, 0]) * (1.0 - 2.0j)
        assert np.array_equal(op.apply(e).deltas[0].base, alone.apply(e).deltas[0].base)
    assert i == k - 1


@settings(max_examples=30, deadline=None)
@given(st.lists(_poincare_draw, min_size=1, max_size=6), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
def test_extend_to_span_on_a_point_stack_is_k_extensions(draws, n, seed):
    G = groups._poincare_stack([tuple(np.asarray(x, dtype=float) for x in d) for d in draws])
    k = len(draws)
    points = np.random.default_rng(seed).normal(size=(n, k, 4))
    diffeo = DiffeoMap.from_strings(["0.9 * u1 + 0.1 * sin(u2)", "0.9 * u2 + 0.1 * cos(u1)"],
                                    [(-1.0, 1.0), (-1.0, 1.0)])
    boxed = np.tanh(points[..., :2])
    for g, pts in ((G, points), (G[0], points), (diffeo, boxed)):
        ops = extend_to_span(g, pts)
        for i in range(k):
            alone = extend_to_span(g[i] if g is G else g, pts[:, i])
            assert np.array_equal(ops[i].sources, alone.sources)
            assert np.array_equal(ops[i].targets, alone.targets)


_span_faults = st.sampled_from(["coincident", "dependent", "non-finite"])


def _spoil(points, fault):
    """Give a point set (n, m) the fault: a repeated point, a point 1e-7 from another, or a NaN."""
    if fault == "non-finite":
        points[-1, 0] = math.nan
    else:
        points[-1] = points[0] + (1e-7 if fault == "dependent" else 0.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(2, 4), _span_faults, _span_faults, st.data())
def test_a_span_stack_names_its_first_bad_operator(k, n, fault, later_fault, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    sources = rng.normal(size=(k, n, 3))
    bad = data.draw(st.integers(0, k - 1))
    _spoil(sources[bad], fault)
    for later in data.draw(st.lists(st.integers(bad + 1, k - 1), max_size=2)) if bad < k - 1 else []:
        _spoil(sources[later], later_fault)  # a later bad operator, of any fault, is not named
    message = {"coincident": "source points must be pairwise distinct",
               "dependent": r"source deltas are numerically linearly dependent \(Gram eigenvalue [-0-9.e+]+\)",
               "non-finite": "sources and targets must be finite"}[fault]
    with pytest.raises(ValueError, match=rf"^{message}$") as alone:  # alone, an operator names no index
        DeltaSpanOperator(sources[bad], sources[bad])
    with pytest.raises(ValueError) as stacked:
        DeltaSpanOperator(sources, sources)
    assert str(stacked.value) == f"{alone.value} (stack index {bad})"


def test_a_span_operator_with_two_faults_names_the_first_rule():
    points = np.array([[0.0, 0.0], [0.0, 0.0], [math.inf, 1.0]])
    with pytest.raises(ValueError, match="^sources and targets must be finite$"):
        DeltaSpanOperator(points, points)
    stack = np.stack([points[:2] + [0.0, 1.0], points[1:]])  # coincident, then non-finite
    with pytest.raises(ValueError, match=r"^source points must be pairwise distinct \(stack index 0\)$"):
        DeltaSpanOperator(stack, stack)


def test_a_single_span_operator_is_not_a_stack():
    op = DeltaSpanOperator(np.zeros((1, 2)), np.ones((1, 2)))
    with pytest.raises(TypeError, match="only a stack"):
        op[0]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
def test_a_stack_has_the_rapidity_of_each_element(k):
    # A stack once raised IndexError (k <= 3) or numpy's TypeError (k >= 4).
    G = groups._poincare_stack([groups._poincare_draws(np.random.default_rng(k)) for _ in range(k)])
    rapidities = G.rapidity()
    assert rapidities.shape == (k,)
    assert rapidities.tolist() == [g.rapidity() for g in G]
    assert [g.rapidity() for g in G] == [math.acosh(max(float(g.lorentz[3, 3]), 1.0)) for g in G]
    assert all(type(g.rapidity()) is float for g in G)


# A stack of k span operators acts on k elements in one pass, operator i on
# element i, with the bits of k single operators.

def _delta_sum(rng, points, count: int) -> tuple[SpaceElement, np.ndarray]:
    """``count`` deltas at rows of ``points``, some moved 1e-13 off, with complex coefficients; and the rows."""
    rows = rng.integers(0, len(points), size=count)
    nudge = 1e-13 * rng.integers(0, 2, size=(count, 1))
    coeffs = rng.normal(size=count) + 1j * rng.normal(size=count)
    return SpaceElement(points.shape[1], deltas=tuple(
        DeltaJetTerm(c, b) for c, b in zip(coeffs.tolist(), points[rows] + nudge))), rows


def _terms(e: SpaceElement) -> list:
    return [(t.coeff, t.base.tolist(), t.orders) for t in e.deltas]


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=6), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1))
def test_a_span_stack_acts_as_k_single_operators(counts, n, m, seed):
    rng = np.random.default_rng(seed)
    k = len(counts)  # ragged: each element has its own number of deltas, possibly none
    sources, targets = rng.normal(size=(2, k, n, m))
    ops = DeltaSpanOperator(sources, targets)
    elements, rows = zip(*(_delta_sum(rng, sources[i], count) for i, count in enumerate(counts)))
    images = act_on_element(ops, elements)
    assert isinstance(images, list) and len(images) == k
    for i, (e, image) in enumerate(zip(elements, images)):
        alone = DeltaSpanOperator(sources[i], targets[i]).apply(e)
        assert (image.dim, image.gaussians) == (m, ())
        assert _terms(image) == _terms(alone)  # == on coefficients, bases and orders
        # Each delta goes to its own operator's target, with its coefficient.
        assert _terms(image) == [(t.coeff, b, (0,) * m) for t, b in zip(e.deltas, targets[i][rows[i]].tolist())]
    assert [_terms(x) for x in ops.apply(tuple(elements))] == [_terms(x) for x in images]


@pytest.mark.parametrize("k, bad", [(1, 0), (3, 0), (3, 2), (5, 3)])
def test_a_span_stack_names_the_element_with_a_delta_outside_its_operator(k, bad):
    rng = np.random.default_rng(10 * k + bad)
    sources = rng.normal(size=(k, 2, 3))
    ops = DeltaSpanOperator(sources, sources + 1.0)
    elements = [embed_delta(s[0]) + embed_delta(s[1]) * 1j for s in sources]
    # Inside another operator's span, but not in operator bad's.
    outside = sources[bad + 1, 0] if bad + 1 < k else np.array([5.0, 5.0, 5.0])
    elements[bad] = elements[bad] + embed_delta(outside)
    if bad + 2 < k:
        elements[-1] = elements[-1] + embed_delta([7.0, 7.0, 7.0])  # a later bad element is not named
    message = f"delta at {outside.tolist()} is outside the operator span"
    with pytest.raises(ValueError, match=rf"^{re.escape(message)} \(stack index {bad}\)$"):
        ops.apply(elements)
    with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):  # alone, an operator names no index
        ops[bad].apply(elements[bad])


def test_a_span_stack_names_the_first_element_that_fails_a_rule():
    sources = np.random.default_rng(2).normal(size=(3, 2, 2))
    ops = DeltaSpanOperator(sources, sources)
    good = [embed_delta(s[0]) for s in sources]
    for i, spoiled, message in (
            (1, SpaceElement.gaussian(np.eye(2)), "span operators do not act on Gaussian terms; "
                                                  "only delta spans transform"),
            (2, SpaceElement.delta(sources[2, 0], orders=(1, 0)), "span operators act on zero-order deltas only"),
            (0, embed_delta([0.0, 0.0, 0.0]), "span operators act on elements of dimension 2, not 3")):
        elements = good[:i] + [spoiled] + good[i + 1:]
        with pytest.raises(ValueError, match=rf"^{message} \(stack index {i}\)$"):
            ops.apply(elements)
        with pytest.raises(ValueError, match=rf"^{message}$"):
            ops[i].apply(spoiled)
    with pytest.raises(ValueError, match="^a stack of 3 span operators acts on as many elements, not 2$"):
        ops.apply(good[:2])
    with pytest.raises(TypeError, match="^a stack of span operators acts through its elements$"):
        ops.apply(good[0])
    with pytest.raises(TypeError, match="^one span operator acts on one element$"):
        ops[0].apply(good[:1])
