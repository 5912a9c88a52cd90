import dataclasses
import math

import numpy as np
import pytest

from kreingeo import geometry
from kreingeo.algebra import inner_product, norm_squared
from kreingeo.catalog import builtin
from kreingeo.errors import DegenerateImmersionError
from kreingeo.geometry import (EmbeddingMap, MetricTensor, PulledBackKernel,
                               analytic_pullback_metric, chordal_distance,
                               delta_oplus, delta_scale, embed_delta, induced_metric)
from kreingeo.kernels import KernelSpec, Signature


def identity_embedding(dim, pos, neg):
    return EmbeddingMap(dim, dim, Signature(pos, neg),
                        func=lambda u: u, jacobian=lambda u: np.eye(dim),
                        domain=((-3.0, 3.0),) * dim)


def sphere_embedding():
    def func(u):
        th, ph = u
        return np.array([math.sin(th) * math.cos(ph),
                         math.sin(th) * math.sin(ph),
                         math.cos(th)])
    # The phi range is periodic; widen the box so phi = 0 sits interior.
    return EmbeddingMap(2, 3, Signature(3, 0), func=func,
                        domain=((0.2, math.pi - 0.2), (-1.0, 2 * math.pi + 1.0)))


def test_embed_delta_origin():
    e = embed_delta([0.0, 0.0, 0.0])
    assert e.dim == 3 and len(e.deltas) == 1
    assert e.deltas[0].coeff == 1.0 and e.deltas[0].order == 0


def test_delta_norms_all_equal():
    spec = KernelSpec.gaussian(3, 0)
    norms = [norm_squared(embed_delta(a), spec)
             for a in ([0, 0, 0], [1, 2, 3], [-0.5, 0.1, 7.0])]
    assert all(n == pytest.approx(norms[0], abs=1e-14) for n in norms)


def test_delta_pair_inner_product():
    spec = KernelSpec.gaussian(3, 0)
    got = inner_product(embed_delta([0, 0, 0]), embed_delta([1, 0, 0]), spec)
    assert got.real == pytest.approx(0.6065306597126334, rel=1e-14)


def test_induced_metric_euclidean_identity():
    emb = identity_embedding(3, 3, 0)
    pk = PulledBackKernel(emb, KernelSpec.gaussian(3, 0))
    g = induced_metric(pk, [0.3, -0.7, 1.1])
    assert np.allclose(g.components, np.eye(3), atol=1e-7)


def test_induced_metric_minkowski():
    emb = identity_embedding(4, 3, 1)
    pk = PulledBackKernel(emb, KernelSpec.gaussian(3, 1))
    g = induced_metric(pk, [0.1, 0.2, -0.3, 0.5])
    assert np.allclose(g.components, np.diag([1, 1, 1, -1]), atol=1e-7)
    assert g.eigenvalue_signature() == (3, 1)


def test_induced_metric_sphere():
    pk = PulledBackKernel(sphere_embedding(), KernelSpec.gaussian(3, 0))
    g = induced_metric(pk, [math.pi / 4, 0.0])
    assert np.allclose(g.components, np.diag([1.0, 0.5]), atol=1e-7)


def test_finite_difference_second_order():
    pk = PulledBackKernel(sphere_embedding(), KernelSpec.gaussian(3, 0))
    u0 = np.array([math.pi / 4, 0.7])
    want = analytic_pullback_metric(sphere_embedding(), u0).components
    err = {h: np.max(np.abs(induced_metric(pk, u0, step=h).components - want))
           for h in (2e-2, 1e-2)}
    ratio = err[2e-2] / err[1e-2]
    assert 3.0 < ratio < 5.0


def test_richardson_flag_improves_accuracy():
    pk = PulledBackKernel(sphere_embedding(), KernelSpec.gaussian(3, 0))
    u0 = np.array([math.pi / 4, 0.7])
    want = analytic_pullback_metric(sphere_embedding(), u0).components
    plain = np.max(np.abs(induced_metric(pk, u0, step=2e-2).components - want))
    better = np.max(np.abs(induced_metric(pk, u0, step=2e-2, richardson=True).components - want))
    assert better < plain / 100


@pytest.mark.parametrize("richardson, steps", [(False, 1), (True, 2)])
@pytest.mark.parametrize("name", ["sphere2", "minkowski31"])
def test_induced_metric_embeds_each_stencil_point_once(name, richardson, steps):
    entry = builtin(name)
    calls = []
    counted = dataclasses.replace(entry.embedding,
                                  func=lambda u: calls.append(1) or entry.embedding.func(u))
    n = counted.domain_dim
    u = np.array([0.5 * (lo + hi) for lo, hi in counted.domain])
    induced_metric(PulledBackKernel(counted, entry.spec), u, richardson=richardson)
    assert len(calls) == 2 * n * steps


@pytest.mark.parametrize("richardson", [False, True])
@pytest.mark.parametrize("name", ["sphere2", "minkowski31"])
def test_induced_metric_is_exactly_symmetric(monkeypatch, name, richardson):
    # MetricTensor symmetrizes what it is given, so look at the components before it does.
    entry = builtin(name)
    seen = []
    monkeypatch.setattr(geometry, "_rank_check", lambda g, where: seen.append(g))
    rng = np.random.default_rng(18)
    for _ in range(5):
        u = np.array([rng.uniform(lo + 0.1, hi - 0.1) for lo, hi in entry.embedding.domain])
        induced_metric(PulledBackKernel(entry.embedding, entry.spec), u, richardson=richardson)
    assert len(seen) == 5
    assert all(np.array_equal(g, g.T) for g in seen)


def test_non_finite_embedding_values_are_rejected():
    emb = EmbeddingMap(1, 1, Signature(1, 0), func=lambda u: np.where(u < 0.5, np.inf, u),
                       domain=((0.0, 1.0),))
    assert emb([0.7])[0] == 0.7
    with pytest.raises(ValueError, match="finite vector"):
        emb([0.2])
    with pytest.raises(ValueError, match="finite vector"):
        induced_metric(PulledBackKernel(emb, KernelSpec.gaussian(1, 0)), [0.5])


def test_margin_validation():
    pk = PulledBackKernel(sphere_embedding(), KernelSpec.gaussian(3, 0))
    with pytest.raises(ValueError):
        induced_metric(pk, [0.2, 0.0], step=1e-2)


def test_analytic_pullback_sphere():
    g = analytic_pullback_metric(sphere_embedding(), [math.pi / 4, 0.0])
    assert np.allclose(g.components, np.diag([1.0, 0.5]), atol=1e-9)


def test_analytic_pullback_de_sitter():
    def func(u):
        tau, th = u
        return np.array([math.cosh(tau) * math.cos(th),
                         math.cosh(tau) * math.sin(th),
                         math.sinh(tau)])
    emb = EmbeddingMap(2, 3, Signature(2, 1), func=func,
                       domain=((-1.0, 1.0), (0.0, 2 * math.pi)))
    g = analytic_pullback_metric(emb, [0.0, 0.0])
    assert np.allclose(g.components, np.diag([-1.0, 1.0]), atol=1e-9)


def test_analytic_pullback_flat_torus():
    def func(u):
        return np.array([math.cos(u[0]), math.sin(u[0]), math.cos(u[1]), math.sin(u[1])])
    emb = EmbeddingMap(2, 4, Signature(4, 0), func=func,
                       domain=((0.0, 2 * math.pi),) * 2)
    g = analytic_pullback_metric(emb, [0.8, 2.1])
    assert np.allclose(g.components, np.eye(2), atol=1e-9)


def test_degenerate_immersion_detected():
    emb = EmbeddingMap(2, 3, Signature(3, 0),
                       func=lambda u: np.array([u[0], u[0], 0.0]),
                       domain=((-1.0, 1.0),) * 2)
    with pytest.raises(DegenerateImmersionError):
        analytic_pullback_metric(emb, [0.3, 0.4])


def test_metric_tensor_validation():
    with pytest.raises(ValueError):
        MetricTensor([0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])
    g = MetricTensor([0.0], [[2.0]])
    assert g.eigenvalue_signature() == (1, 0)
    assert g.csv_row() == [0.0, 2.0]


def test_chordal_distance_zero_at_coincidence():
    spec = KernelSpec.gaussian(2, 0)
    assert chordal_distance([0.3, 0.4], [0.3, 0.4], spec) == 0.0


def test_chordal_distance_wraps_on_circle():
    spec = KernelSpec.periodic_sobolev()
    assert chordal_distance([0.0], [2 * math.pi], spec) <= 1e-10


def test_chordal_distance_half_turn():
    from kreingeo.kernels import sobolev_kernel_value
    spec = KernelSpec.periodic_sobolev()
    want = math.sqrt(2 * (sobolev_kernel_value(0.0, 2000) - sobolev_kernel_value(math.pi, 2000)))
    got = chordal_distance([0.0], [math.pi], spec)
    assert got == pytest.approx(want, rel=1e-12)
    assert got > 0


def test_chordal_rejects_indefinite():
    with pytest.raises(ValueError):
        chordal_distance([0, 0, 0, 0], [1, 0, 0, 0], KernelSpec.gaussian(3, 1))


@pytest.mark.parametrize("spec", [KernelSpec.gaussian(2, 0), KernelSpec.periodic_sobolev(50)],
                         ids=["gaussian", "sobolev"])
def test_chordal_distance_rejects_bad_points(spec):
    good = np.zeros(spec.dim)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            chordal_distance(good, np.full(spec.dim, bad), spec)
    with pytest.raises(ValueError, match="dimension"):
        chordal_distance(np.zeros(3), np.zeros(3), spec)
    with pytest.raises(ValueError):
        chordal_distance(good, np.zeros(spec.dim + 1), spec)


def test_chordal_symmetry_and_triangle():
    rng = np.random.default_rng(9)
    for spec in (KernelSpec.gaussian(3, 0), KernelSpec.periodic_sobolev(300)):
        dim = spec.dim
        for _ in range(100):
            a, b, c = rng.normal(scale=1.5, size=(3, dim))
            dab = chordal_distance(a, b, spec)
            dba = chordal_distance(b, a, spec)
            assert dab == pytest.approx(dba, abs=1e-14)
            assert dab <= chordal_distance(a, c, spec) + chordal_distance(c, b, spec) + 1e-12


def test_delta_vector_ops():
    assert np.array_equal(
        delta_oplus(embed_delta([1.0, 0.0, 0.0]), embed_delta([0.0, 2.0, 0.0])).deltas[0].base,
        [1.0, 2.0, 0.0])
    assert np.array_equal(
        delta_oplus(embed_delta([0.5, 0.5, 0.5]), embed_delta([0.0, 0.0, 0.0])).deltas[0].base,
        [0.5, 0.5, 0.5])
    assert np.array_equal(
        delta_scale(2.0, embed_delta([1.0, 1.0, 1.0])).deltas[0].base,
        [2.0, 2.0, 2.0])


def test_delta_vector_ops_reject_non_images():
    g = embed_delta([0.0]) * 2.0
    with pytest.raises(ValueError):
        delta_oplus(g, embed_delta([0.0]))
    with pytest.raises(ValueError):
        delta_scale(1.0, embed_delta([0.0], ) + embed_delta([1.0]))
