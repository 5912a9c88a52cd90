import math

import numpy as np
import pytest

from kreingeo.groups import DeltaSpanOperator
from kreingeo.kernels import (GRAM_BLOCK_ROWS, KernelSpec, Signature, cross_kernel, gram_matrix,
                              kernel_eval, sobolev_coth_reference, sobolev_kernel_value)

COTH_PI_HALF = 0.5018709365986606  # cosh(pi)/sinh(pi)/2
K2000_AT_ZERO = 0.5017118214509261  # truncated sum, N = 2000


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature(-1, 2)
    with pytest.raises(ValueError):
        Signature(0, 0)
    assert Signature(3, 1).dim == 4
    assert np.array_equal(Signature(2, 1).eta(), np.diag([1.0, 1.0, -1.0]))


def test_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec.gaussian(3, 0, scale=0.0)
    with pytest.raises(ValueError):
        KernelSpec("gaussian", Signature(3, 1), 1.0, normalized=True)
    with pytest.raises(ValueError):
        KernelSpec("periodic_sobolev", Signature(2, 0))
    with pytest.raises(ValueError):
        KernelSpec("unknown_family", Signature(1, 0))


@pytest.mark.parametrize("scale", [math.nan, math.inf])
def test_spec_rejects_non_finite_scale(scale):
    with pytest.raises(ValueError, match="finite"):
        KernelSpec.gaussian(3, 1, scale=scale)


def test_signature_rejects_fractional_counts():
    with pytest.raises(ValueError, match="whole numbers"):
        Signature(1.5, 0)
    assert Signature(3.0, 1) == Signature(3, 1)


def test_zero_separation_is_one():
    spec = KernelSpec.gaussian(3, 0)
    assert kernel_eval(spec, [0.3, -1.0, 2.0], [0.3, -1.0, 2.0]) == 1.0


def test_null_separation_cancels():
    spec = KernelSpec.gaussian(3, 1)
    assert kernel_eval(spec, [0, 0, 0, 0], [1, 0, 0, 1]) == pytest.approx(1.0, abs=1e-15)


def test_unit_separation_value():
    spec = KernelSpec.gaussian(1, 0)
    assert kernel_eval(spec, [0.0], [1.0]) == pytest.approx(0.6065306597126334, rel=1e-14)


def test_scale_enters_quadratically():
    spec = KernelSpec.gaussian(1, 0, scale=2.0)
    assert kernel_eval(spec, [0.0], [1.0]) == pytest.approx(math.exp(-2.0), rel=1e-14)


def test_normalized_prefactor():
    spec = KernelSpec.gaussian(3, 0, scale=2.0, normalized=True)
    pref = (2.0 / math.sqrt(2 * math.pi)) ** 3
    assert kernel_eval(spec, np.zeros(3), np.zeros(3)) == pytest.approx(pref, rel=1e-14)


def test_dimension_mismatch():
    spec = KernelSpec.gaussian(2, 0)
    with pytest.raises(ValueError):
        kernel_eval(spec, [0.0], [1.0])


def test_symmetry():
    spec = KernelSpec.gaussian(2, 1)
    x, y = np.array([0.2, -0.7, 1.1]), np.array([1.0, 0.0, 0.4])
    assert kernel_eval(spec, x, y) == kernel_eval(spec, y, x)


def test_gram_single_point():
    spec = KernelSpec.gaussian(3, 0)
    assert np.array_equal(gram_matrix([[0.0, 0.0, 0.0]], spec), [[1.0]])


def test_gram_two_points():
    spec = KernelSpec.gaussian(1, 0)
    got = gram_matrix([[0.0], [1.0]], spec)
    want = np.array([[1.0, 0.6065306597126334], [0.6065306597126334, 1.0]])
    assert np.allclose(got, want, rtol=1e-14)


def test_gram_lightlike_line_is_all_ones():
    spec = KernelSpec.gaussian(3, 1)
    pts = [[0, 0, 0, 0], [1, 0, 0, 1], [2, 0, 0, 2]]
    assert np.allclose(gram_matrix(pts, spec), np.ones((3, 3)), atol=1e-14)


def test_gram_positive_definite_for_distinct_points():
    rng = np.random.default_rng(3)
    spec = KernelSpec.gaussian(3, 0)
    pts = rng.normal(size=(8, 3))
    eigs = np.linalg.eigvalsh(gram_matrix(pts, spec))
    assert eigs.min() > 0


def test_sobolev_kernel_truncated_value():
    assert sobolev_kernel_value(0.0, 2000) == pytest.approx(K2000_AT_ZERO, abs=1e-12)
    # Approaches the closed form as the truncation error 1/(pi N) predicts.
    assert abs(sobolev_kernel_value(0.0, 2000) - COTH_PI_HALF) < 2e-4
    assert sobolev_coth_reference() == pytest.approx(COTH_PI_HALF, rel=1e-14)


def test_sobolev_kernel_periodic():
    spec = KernelSpec.periodic_sobolev()
    assert kernel_eval(spec, [0.0], [2 * math.pi]) == pytest.approx(
        kernel_eval(spec, [0.0], [0.0]), abs=1e-12)


def test_sobolev_gram_matches_pointwise():
    spec = KernelSpec.periodic_sobolev(500)
    pts = [[0.0], [1.0], [2.5]]
    gram = gram_matrix(pts, spec)
    for i, a in enumerate(pts):
        for j, b in enumerate(pts):
            assert gram[i, j] == pytest.approx(kernel_eval(spec, a, b), rel=1e-12)


@pytest.mark.parametrize("truncation", [1, 50, 2000])
def test_sobolev_gram_matches_the_direct_series(truncation):
    # Points over several periods, negative angles included; the Gram matrix is a
    # product of cosine/sine feature matrices, so it agrees to rounding only.
    spec = KernelSpec.periodic_sobolev(truncation)
    pts = np.concatenate([np.linspace(-13.0, 17.0, 11), [-2 * math.pi, 0.0, 4 * math.pi]])[:, None]
    diffs = pts[:, 0][:, None] - pts[None, :, 0]
    n = np.arange(1, truncation + 1)
    direct = (1.0 + 2.0 * (np.cos(diffs[..., None] * n) / (1.0 + n * n)).sum(axis=-1)) / (2.0 * math.pi)
    assert np.max(np.abs(gram_matrix(pts, spec) - direct)) <= 1e-14


@pytest.mark.parametrize("pos, neg, scale, normalized", [
    (1, 0, 1.0, False), (0, 1, 1.0, False), (3, 1, 1.0, False), (4, 0, 1.0, False),
    (1, 0, 2.5, False), (0, 1, 2.5, False), (3, 1, 2.5, False), (4, 0, 2.5, False),
    (1, 0, 2.5, True), (4, 0, 2.5, True)])
def test_gaussian_gram_equals_the_broadcast_formula(pos, neg, scale, normalized):
    # The per-axis sum keeps numpy's order, so gram_invariance.csv keeps its bytes.
    spec = KernelSpec.gaussian(pos, neg, scale=scale, normalized=normalized)
    pts = np.random.default_rng(11).normal(scale=2.0, size=(40, pos + neg))
    sq = ((pts[:, None, :] - pts[None, :, :]) ** 2 * spec.signature.signs()).sum(axis=-1)
    broadcast = spec.prefactor() * np.exp(-0.5 * spec.scale ** 2 * sq)
    assert np.array_equal(gram_matrix(pts, spec), broadcast)


@pytest.mark.parametrize("spec", [KernelSpec.gaussian(3, 1), KernelSpec.periodic_sobolev(2000)],
                         ids=["gaussian", "sobolev"])
def test_gram_is_exactly_symmetric(spec):
    pts = np.random.default_rng(12).uniform(-20.0, 20.0, size=(60, spec.dim))
    gram = gram_matrix(pts, spec)
    assert np.array_equal(gram, gram.T)


@pytest.mark.parametrize("spec", [KernelSpec.gaussian(3, 1), KernelSpec.periodic_sobolev(50)],
                         ids=["gaussian", "sobolev"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gram_rejects_non_finite_points(spec, bad):
    pts = np.zeros((2, spec.dim))
    pts[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        gram_matrix(pts, spec)


@pytest.mark.parametrize("spec", [KernelSpec.gaussian(3, 1), KernelSpec.periodic_sobolev(50)],
                         ids=["gaussian", "sobolev"])
def test_kernel_eval_rejects_non_finite_points(spec):
    bad = np.zeros(spec.dim)
    bad[0] = math.inf
    with pytest.raises(ValueError, match="finite"):
        kernel_eval(spec, bad, np.zeros(spec.dim))
    bad[0] = math.nan
    with pytest.raises(ValueError, match="finite"):
        kernel_eval(spec, np.zeros(spec.dim), bad)


BLOCK_SIZES = [GRAM_BLOCK_ROWS - 1, GRAM_BLOCK_ROWS, GRAM_BLOCK_ROWS + 1,
               2 * GRAM_BLOCK_ROWS + 3, 300]


@pytest.mark.parametrize("n", BLOCK_SIZES)
@pytest.mark.parametrize("pos, neg, scale, normalized", [
    (1, 0, 1.0, False), (0, 1, 1.0, False), (3, 1, 1.0, False), (4, 0, 1.0, False),
    (1, 0, 2.5, False), (0, 1, 2.5, False), (3, 1, 2.5, False), (4, 0, 2.5, False),
    (1, 0, 2.5, True), (4, 0, 2.5, True)])
def test_blocked_gaussian_gram_equals_the_broadcast_formula(pos, neg, scale, normalized, n):
    # Point counts around the row-block size check the tiling and the mirrored lower triangle.
    spec = KernelSpec.gaussian(pos, neg, scale=scale, normalized=normalized)
    pts = np.random.default_rng(13).normal(scale=2.0, size=(n, pos + neg))
    pts[-1] = pts[0]  # a repeated point across blocks: a zero distance off the diagonal
    sq = ((pts[:, None, :] - pts[None, :, :]) ** 2 * spec.signature.signs()).sum(axis=-1)
    broadcast = spec.prefactor() * np.exp(-0.5 * spec.scale ** 2 * sq)
    gram = gram_matrix(pts, spec)
    assert np.array_equal(gram, broadcast)
    assert np.array_equal(gram, gram.T)


@pytest.mark.parametrize("pos, neg, scale, normalized", [
    (1, 0, 2.5, False), (1, 0, 2.5, True), (3, 1, 2.5, False), (0, 1, 2.5, False)])
def test_cross_kernel_transposes_exactly(pos, neg, scale, normalized):
    spec = KernelSpec.gaussian(pos, neg, scale=scale, normalized=normalized)
    rng = np.random.default_rng(15)
    xs, ys = rng.normal(size=(pos + neg, 37)), rng.normal(size=(pos + neg, 23))
    kxy = cross_kernel(xs, ys, spec)
    assert kxy.shape == (37, 23)
    assert np.array_equal(kxy, cross_kernel(ys, xs, spec).T)


@pytest.mark.parametrize("spec", [KernelSpec.gaussian(3, 1, scale=1.7),
                                  KernelSpec.gaussian(2, 0, scale=0.8, normalized=True),
                                  KernelSpec.periodic_sobolev(2000)],
                         ids=["gaussian31", "gaussian20-normalized", "sobolev"])
def test_cross_kernel_of_the_point_set_is_its_gram_matrix(spec):
    # 150 points span three row blocks of the Gaussian Gram build.
    pts = np.random.default_rng(16).uniform(-6.0, 6.0, size=(150, spec.dim))
    cols = np.ascontiguousarray(pts.T)
    assert np.array_equal(cross_kernel(cols, cols, spec), gram_matrix(pts, spec))


@pytest.mark.parametrize("truncation", [1, 50, 2000])
def test_sobolev_cross_kernel_matches_the_series(truncation):
    spec = KernelSpec.periodic_sobolev(truncation)
    rng = np.random.default_rng(17)
    xs, ys = rng.uniform(-10.0, 10.0, size=(1, 30)), rng.uniform(-10.0, 10.0, size=(1, 20))
    want = [[sobolev_kernel_value(x - y, truncation) for y in ys[0]] for x in xs[0]]
    assert np.max(np.abs(cross_kernel(xs, ys, spec) - want)) <= 1e-14


@pytest.mark.parametrize("n", BLOCK_SIZES)
def test_span_operator_rejects_near_duplicate_and_dependent_points(n):
    pts = np.random.default_rng(14).normal(scale=n, size=(n, 4))
    DeltaSpanOperator(pts, pts)
    for offset, match in [(1e-13, "pairwise distinct"), (1e-7, "linearly dependent")]:
        near = pts.copy()
        near[-1] = near[0] + offset
        with pytest.raises(ValueError, match=match):
            DeltaSpanOperator(near, near)
