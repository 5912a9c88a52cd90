import json
import math

import numpy as np
import pytest

from kreingeo.catalog import (BUILTIN_EXPRESSIONS, builtin, builtin_names,
                              parse_embedding)
from kreingeo.errors import (CatalogConsistencyError, DegenerateImmersionError,
                             ExpressionError)
from kreingeo.expressions import evaluate, parse_expression
from kreingeo.geometry import PulledBackKernel, analytic_pullback_metric, induced_metric
from kreingeo.kernels import PERIODIC_SOBOLEV


def test_builtin_names():
    assert builtin_names() == ["circle_sobolev", "de_sitter2", "euclidean3",
                               "flat_torus2", "minkowski31", "sphere2"]


def test_unknown_name():
    with pytest.raises(ValueError):
        builtin("klein_bottle")


def test_minkowski_metric_everywhere():
    entry = builtin("minkowski31")
    for u in ([0, 0, 0, 0], [1.0, -0.5, 0.3, 0.9]):
        assert np.array_equal(entry.analytic_metric_at(u).components,
                              np.diag([1.0, 1.0, 1.0, -1.0]))


def test_sphere_equator_metric():
    entry = builtin("sphere2")
    got = entry.analytic_metric_at([math.pi / 2, 1.234]).components
    assert np.allclose(got, np.eye(2), atol=1e-12)


def test_de_sitter_origin_metric():
    entry = builtin("de_sitter2")
    assert np.allclose(entry.analytic_metric_at([0.0, 0.0]).components,
                       np.diag([-1.0, 1.0]), atol=1e-12)


def test_circle_sobolev_entry():
    entry = builtin("circle_sobolev")
    assert entry.spec.family == PERIODIC_SOBOLEV
    assert entry.metric is None
    with pytest.raises(ValueError):
        entry.analytic_metric_at([0.0])


def _interior_grid(entry, per_axis: int, margin: float = 0.05) -> np.ndarray:
    """Regular grid of interior points of the entry's domain box."""
    axes = [np.linspace(lo + margin * (hi - lo), hi - margin * (hi - lo), per_axis)
            for lo, hi in entry.embedding.domain]
    return np.stack([m.reshape(-1) for m in np.meshgrid(*axes, indexing="ij")], axis=-1)


@pytest.mark.parametrize("name", ["euclidean3", "minkowski31", "sphere2",
                                  "flat_torus2", "de_sitter2"])
def test_builtin_induced_vs_analytic_on_grid(name):
    entry = builtin(name)
    pk = PulledBackKernel(entry.embedding, entry.spec)
    step = 1e-4
    # 5 points per axis, shrunk to keep the finite-difference margin.
    for u in _interior_grid(entry, per_axis=5 if entry.embedding.domain_dim <= 2 else 3):
        got = induced_metric(pk, u, step=step).components
        want = entry.analytic_metric_at(u).components
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(got - want)) / scale <= 1e-6


@pytest.mark.parametrize("name", list(BUILTIN_EXPRESSIONS))
def test_expression_equivalents_match_builtins(name):
    entry = builtin(name)
    exprs = [parse_expression(s) for s in BUILTIN_EXPRESSIONS[name]]
    rng = np.random.default_rng(1)
    lo = np.array([d[0] for d in entry.embedding.domain])
    hi = np.array([d[1] for d in entry.embedding.domain])
    for _ in range(5):
        u = rng.uniform(lo, hi)
        from_exprs = np.array([float(evaluate(e, u)) for e in exprs])
        assert np.allclose(from_exprs, entry.embedding(u), atol=1e-12)


def circle_config(**overrides):
    record = {
        "name": "circle",
        "domain_dim": 1,
        "signature": [2, 0],
        "domain": [[0.0, 2 * math.pi]],
        "maps": ["cos(u1)", "sin(u1)"],
        "metric": [["1"]],
    }
    record.update(overrides)
    return json.dumps(record)


def test_parse_embedding_circle():
    entry = parse_embedding(circle_config())
    assert entry.name == "circle"
    g = analytic_pullback_metric(entry.embedding, [1.0])
    assert np.allclose(g.components, [[1.0]], atol=1e-8)
    pk = PulledBackKernel(entry.embedding, entry.spec)
    got = induced_metric(pk, [1.0], step=1e-4)
    assert np.allclose(got.components, [[1.0]], atol=1e-6)


def test_parse_embedding_without_metric():
    record = json.dumps({"domain_dim": 1, "signature": [2, 0],
                         "domain": [[0.0, 6.28]], "maps": ["cos(u1)", "sin(u1)"]})
    entry = parse_embedding(record)
    assert entry.metric is None


def test_parse_embedding_malformed_expression():
    with pytest.raises(ExpressionError) as err:
        parse_embedding(circle_config(maps=["cos(u1", "sin(u1)"]))
    assert err.value.column == 7


def test_parse_embedding_bad_json_has_position():
    with pytest.raises(ExpressionError) as err:
        parse_embedding("{\"domain_dim\": 1,,}")
    assert err.value.line == 1 and err.value.column > 1


def test_parse_embedding_self_consistency_failure():
    with pytest.raises(CatalogConsistencyError):
        parse_embedding(circle_config(metric=[["2"]]))


def test_parse_embedding_immersion_failure():
    bad = json.dumps({"domain_dim": 1, "signature": [2, 0], "domain": [[-1.0, 1.0]],
                      "maps": ["1", "2"]})
    with pytest.raises(DegenerateImmersionError):
        parse_embedding(bad)


def test_parse_embedding_unknown_key():
    with pytest.raises(ExpressionError):
        parse_embedding(circle_config(color="red"))


def test_parse_embedding_dimension_mismatches():
    with pytest.raises(ExpressionError):
        parse_embedding(circle_config(maps=["cos(u1)"]))
    with pytest.raises(ExpressionError):
        parse_embedding(circle_config(domain=[[0.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ExpressionError):
        parse_embedding(circle_config(maps=["cos(u2)", "sin(u1)"]))


def test_parsed_entry_matches_builtin_sphere():
    record = json.dumps({
        "name": "sphere_expr",
        "domain_dim": 2,
        "signature": [3, 0],
        "domain": [[0.2, math.pi - 0.2], [0.0, 2 * math.pi]],
        "maps": BUILTIN_EXPRESSIONS["sphere2"],
    })
    entry = parse_embedding(record)
    ref = builtin("sphere2")
    u = np.array([0.9, 2.0])
    got = analytic_pullback_metric(entry.embedding, u).components
    want = ref.analytic_metric_at(u).components
    assert np.allclose(got, want, atol=1e-8)
