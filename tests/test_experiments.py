"""The tally that reduces per-case values, NaN cases end to end, the JSON
mirror writer, the pair-engine passes of slice-dynamics, gram-invariance's
stacked group law and oracle-check's stacked elements.

A NaN per-case value must fail its measurement: a running ``max`` started
at 0.0 drops it, and a count of ``x <= 0.0`` does not count it.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from kreingeo import algebra, elements, experiments, groups
from kreingeo.cli import main
from kreingeo.dynamics import SLICE_METRICS, slice_inner_product
from kreingeo.elements import SpaceElement
from kreingeo.experiments import (EXPERIMENTS, ExperimentConfig, Tally, emit_report,
                                  run_experiment)
from kreingeo.geometry import embed_delta
from kreingeo.groups import DiffeoMap, act_on_element, apply_point, extend_to_span
from kreingeo.kernels import Signature, gram_matrix


@pytest.mark.parametrize("values", [
    [math.nan, 1.0, 3.0, 2.0],
    [1.0, 3.0, math.nan, 2.0],
    [1.0, 3.0, 2.0, math.nan],
])
def test_worst_keeps_a_nan_wherever_it_comes(values):
    tally = Tally()
    for v in values:
        tally.worst("deviation", v)
    assert math.isnan(tally.values["deviation"])


def test_worst_keeps_the_largest_value_and_count_adds_failed_cases():
    tally = Tally()
    for v in [-3.0, -1.0, -2.0]:
        tally.worst("margin", v)
    for failed in [False, True, False, True]:
        tally.count("violations", failed)
    tally.count("clean", False)
    assert tally.values == {"margin": -1.0, "violations": 2, "clean": 0}


def _nan_on_call(function, call: int):
    """``function`` with its result on the ``call``-th call replaced by NaN."""
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        value = function(*args, **kwargs)
        return math.nan if len(calls) == call else value
    return patched


def _refuse_constant(token):
    raise ValueError(f"{token} is not JSON")


def _strict_json(path):
    """The JSON file at ``path``, refusing the NaN and Infinity tokens that strict JSON lacks."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse_constant)


def _invoke(tmp_path, name: str, parameters: dict):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"parameters": parameters}), encoding="utf-8")
    out = tmp_path / "results"
    result = CliRunner().invoke(main, [name, "--config", str(path), "--out", str(out)])
    report = _strict_json(out / f"{name}_report.json")
    return result, {m["name"]: m for m in report["measurements"]}


def _nan_in_stack_row(function, row: int):
    """``function`` with row ``row`` of each stacked result replaced by NaN; single results kept."""
    def patched(*args, **kwargs):
        value = function(*args, **kwargs)
        if np.ndim(value):
            value[row] = math.nan
        return value
    return patched


def test_a_nan_gram_deviation_fails_gram_invariance(tmp_path, monkeypatch):
    # The second of five random samples, which are checked as one stack; the negative control is single.
    monkeypatch.setattr(experiments, "check_gram_invariance",
                        _nan_in_stack_row(experiments.check_gram_invariance, 1))
    result, measured = _invoke(tmp_path, "gram-invariance",
                               {"group_samples": 5, "commutativity_samples": 6})
    assert result.exit_code == 1, result.output
    assert "gram-invariance: FAIL" in result.output
    # Strict JSON has no NaN: the report and the mirror hold null in its place.
    assert measured["gram_deviation"]["value"] is None
    assert not measured["gram_deviation"]["passed"]
    assert measured["control_margin"]["passed"]
    mirror = _strict_json(tmp_path / "results" / "gram_invariance.json")
    assert [row["gram_deviation"] is None for row in mirror] == [False, True, False, False, False]
    assert "| gram_deviation | nan | 1.000000e-11 | **FAIL** |" in emit_report(tmp_path / "results")


def test_gram_invariance_builds_the_gram_matrix_of_its_points_once(tmp_path, monkeypatch):
    sizes = []
    monkeypatch.setattr(groups, "gram_matrix", lambda pts, spec: sizes.append(len(pts)) or gram_matrix(pts, spec))
    result, _ = _invoke(tmp_path, "gram-invariance", {
        "group_samples": 5, "point_count": 7, "commutativity_samples": 3,
        "extra_elements": [{"boost": [0.3, 0.0, 0.0]}]})
    assert result.exit_code == 0, result.output
    # The points once, then each of the 5 stacked samples; the extra element alone; the 6-point control.
    assert sizes == [7] * 6 + [7, 7] + [6, 6]
    assert len(_strict_json(tmp_path / "results" / "gram_invariance.json")) == 6


def test_json_mirror_writes_each_non_finite_value_as_null(tmp_path):
    path = tmp_path / "mirror.json"
    experiments.write_json_mirror(path, ["i", "x"], [[0, math.nan], [1, math.inf],
                                                     [2, -math.inf], [3, 1.5]])
    assert _strict_json(path) == [{"i": 0, "x": None}, {"i": 1, "x": None},
                                  {"i": 2, "x": None}, {"i": 3, "x": 1.5}]


# JSON mirrors are written in one pass, with the bytes of json.dumps.

def _mirror_the_old_way(header, rows) -> bytes:
    """json.dumps of the records, with each non-finite value round-tripped to null."""
    records = [{h: (v if isinstance(v, (int, str)) else float(v)) for h, v in zip(header, row)}
               for row in rows]
    try:
        text = json.dumps(records, sort_keys=True, indent=1, allow_nan=False)
    except ValueError:
        text = json.dumps(json.loads(json.dumps(records), parse_constant=lambda _: None),
                          sort_keys=True, indent=1)
    return (text + "\n").encode("utf-8")


_headers = st.sampled_from(['"quoted"', "back\\slash", "caf\u00e9", "\u2028\ttab", "x", ""]) | st.text(max_size=6)
_finite_floats = st.floats(allow_nan=False, allow_infinity=False)
_cells = st.one_of(st.integers(-2 ** 70, 2 ** 70), st.booleans(), st.booleans().map(np.bool_),
                   _finite_floats, _finite_floats.map(np.float64), st.integers(-2 ** 40, 2 ** 40).map(np.int64),
                   st.text(max_size=8) | _headers)
_non_finite = st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf)])


@st.composite
def _tables(draw, cells):
    header = draw(st.lists(_headers, max_size=5))
    width = len(header)
    return header, draw(st.lists(st.lists(cells, min_size=width, max_size=width), max_size=4))


@settings(max_examples=300, deadline=None)
@given(st.one_of(_tables(_cells), _tables(_cells | _non_finite)))
def test_json_mirror_has_the_bytes_of_json_dumps(tmp_path_factory, table):
    header, rows = table
    path = tmp_path_factory.mktemp("mirror") / "table.json"
    experiments.write_json_mirror(path, header, rows)
    assert path.read_bytes() == _mirror_the_old_way(header, rows)


def test_json_mirror_rejects_a_ragged_row(tmp_path):
    with pytest.raises(ValueError, match="a table row needs 2 values, not 3"):
        experiments.write_json_mirror(tmp_path / "mirror.json", ["i", "x"], [[0, 1.0], [1, 2.0, 3.0]])
    with pytest.raises(ValueError, match="a table row needs 2 values, not 1"):  # after a null too
        experiments.write_json_mirror(tmp_path / "mirror.json", ["i", "x"], [[0, math.nan], [1]])


def test_a_nan_distance_fails_circle_topology(tmp_path, monkeypatch):
    # Call 1 is the wraparound distance; call 4 is the third separation.
    monkeypatch.setattr(experiments, "chordal_distance",
                        _nan_on_call(experiments.chordal_distance, 4))
    result, measured = _invoke(tmp_path, "circle-topology", {"truncation": 200})
    assert result.exit_code == 1, result.output
    assert "circle-topology: FAIL" in result.output
    # The NaN distance fails against both of its neighbours.
    assert measured["monotonicity_violations"]["value"] == 2.0
    assert measured["wraparound_distance"]["passed"]


def test_run_experiment_rejects_a_runner_that_misses_a_measurement(tmp_path, monkeypatch):
    def partial_run(parameters, rng, tally):
        tally.worst("wraparound_distance", 0.0)
        tally.count("monotonicity_violations", False)
        return {}, None
    experiment = dataclasses.replace(EXPERIMENTS["circle-topology"], run=partial_run)
    monkeypatch.setitem(EXPERIMENTS, "circle-topology", experiment)
    cfg = ExperimentConfig.build("circle-topology", out_dir=tmp_path / "results")
    with pytest.raises(RuntimeError, match="coth_deviation"):
        run_experiment(cfg)
    assert not (tmp_path / "results").exists()


def _slice_dynamics_outputs(out_dir):
    """Every file of a default slice-dynamics run, the report without its wall time."""
    run_experiment(ExperimentConfig.build("slice-dynamics", out_dir=out_dir, dump_elements=True))
    files = {path.name: path.read_text(encoding="utf-8") for path in out_dir.iterdir()}
    report = json.loads(files.pop("slice-dynamics_report.json"))
    del report["wall_time_seconds"]
    return files, report


def test_slice_dynamics_makes_a_few_pair_engine_passes(tmp_path, monkeypatch):
    # One batch for the velocity pairs, one for the superposition, one for the
    # Galileo norms and one target norm; a loop of slice inner products makes 144.
    calls, batch = [], algebra._batch

    def counted(pairs, spec):
        calls.append(len(pairs))
        return batch(pairs, spec)
    monkeypatch.setattr(algebra, "_batch", counted)
    batched = _slice_dynamics_outputs(tmp_path / "batched")
    assert len(calls) <= 4, calls

    def loop(pairs, metrics=SLICE_METRICS):
        return np.array([[slice_inner_product(s1, s2, m) for m in metrics] for s1, s2 in pairs],
                        dtype=complex).reshape(len(pairs), len(metrics))
    monkeypatch.setattr(experiments, "slice_inner_products", loop)
    calls.clear()
    assert _slice_dynamics_outputs(tmp_path / "looped") == batched
    assert len(calls) > 100


# gram-invariance's group-law samples: stacked, with the tally of the
# per-sample loop below.

def _rotation(axis, angle):
    """Rodrigues, one axis at a time, in scalar arithmetic."""
    k = axis / np.linalg.norm(axis)
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def _random_poincare(rng):
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-6:
        axis = rng.normal(size=3)
    angle, rap = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0)
    direction = rng.normal(size=3)
    v = math.tanh(rap) * (direction / np.linalg.norm(direction))
    b2 = float(v @ v)
    boost, gamma = np.eye(4), 1.0 / math.sqrt(1.0 - b2)
    boost[:3, :3] += (gamma - 1.0) * np.outer(v, v) / b2
    boost[:3, 3] = boost[3, :3] = -gamma * v
    boost[3, 3] = gamma
    rotation = np.eye(4)
    rotation[:3, :3] = _rotation(axis, angle)
    return groups.PoincareElement(rotation @ boost, rng.normal(size=4))


def _random_galileo(rng):
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-6:
        axis = rng.normal(size=3)
    return groups.GalileoElement(_rotation(axis, rng.uniform(0.0, 2.0 * math.pi)), rng.normal(scale=0.7, size=3),
                                 rng.normal(scale=1.0, size=3), rng.normal(scale=0.8))


def _per_sample_group_law(rng, samples, tally):
    """One element at a time: each g and h built by the scalar formulas above, checked and composed alone."""
    def gap(g, pts):
        image = act_on_element(extend_to_span(g, pts), embed_delta(pts[0]))
        return float(np.max(np.abs(image.deltas[0].base - apply_point(g, pts[0]))))

    diffeo = DiffeoMap.from_strings(["0.9 * u1 + 0.1 * sin(u2)", "0.9 * u2 + 0.1 * cos(u1)"],
                                    [(-1.0, 1.0), (-1.0, 1.0)])
    per_kind = samples // 3
    for _ in range(per_kind):
        g = _random_poincare(rng)
        a = rng.normal(scale=0.8, size=4)
        pts = np.vstack([a, a + rng.normal(scale=1.0, size=4)])
        tally.worst("commutativity_deviation", gap(g, pts))
        h = _random_poincare(rng)
        tally.worst("composition_deviation", np.max(np.abs(
            apply_point(g @ h, pts) - apply_point(g, apply_point(h, pts)))))
    for _ in range(per_kind):
        g = _random_galileo(rng)
        a = rng.normal(scale=0.8, size=4)
        tally.worst("commutativity_deviation", gap(g, a[None, :]))
        h = _random_galileo(rng)
        tally.worst("composition_deviation", np.max(np.abs(
            apply_point(g @ h, a) - apply_point(g, apply_point(h, a)))))
    for _ in range(samples - 2 * per_kind):
        a = rng.uniform(-0.95, 0.95, size=2)
        tally.worst("commutativity_deviation", gap(diffeo, a[None, :]))


@pytest.mark.parametrize("seed, samples", [(s, 1000) for s in range(12)]
                         + [(0, n) for n in (3, 4, 5, 1001)] + [(5, 4), (9, 1001)])
def test_stacked_group_law_keeps_the_per_sample_tally(seed, samples):
    stacked, alone = Tally(), Tally()
    rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
    experiments._commutativity_and_composition(rng, samples, stacked)
    _per_sample_group_law(replay, samples, alone)
    assert list(stacked.values) == ["commutativity_deviation", "composition_deviation"]
    assert stacked.values == alone.values  # == on both values
    assert np.array_equal(rng.normal(size=8), replay.normal(size=8))  # the same draws


def test_commutation_gaps_tally_the_largest_gap_over_all_samples():
    rng = np.random.default_rng(4)
    G = groups._galileo_stack([groups._galileo_draws(rng) for _ in range(5)])
    P = rng.normal(size=(1, 5, 4))
    images = apply_point(G, P[0])
    for row, col, shift in ((3, 2, 0.25), (4, 0, -1.5), (1, 3, math.nan)):
        shifted = images.copy()
        shifted[row, col] += shift
        tally = Tally()
        experiments._commutation_gaps(G, P, shifted, tally)
        assert list(tally.values) == ["commutativity_deviation"]
        want = abs(images[row, col] - shifted[row, col])  # the one gap; NaN for the NaN image
        assert np.array_equal(tally.values["commutativity_deviation"], want, equal_nan=True)


def test_stacked_group_law_checks_each_element_and_sample_once(monkeypatch):
    checked, spans, acts = {}, [], []

    def counting(cls):
        check = cls.__post_init__

        def post_init(self):
            checked[cls.__name__] = checked.get(cls.__name__, 0) + len(self.matrix.reshape(-1, 4, 4))
            check(self)
        return post_init

    for cls in (groups.PoincareElement, groups.GalileoElement):
        monkeypatch.setattr(cls, "__post_init__", counting(cls))
    monkeypatch.setattr(experiments, "extend_to_span", lambda g, p: spans.append(g) or extend_to_span(g, p))
    monkeypatch.setattr(experiments, "act_on_element", lambda op, e: acts.append(op) or act_on_element(op, e))
    experiments._commutativity_and_composition(np.random.default_rng(0), 1001, Tally())
    # g, h and g @ h of each of the 333 samples per kind, each checked once.
    assert checked == {"PoincareElement": 3 * 333, "GalileoElement": 3 * 333}
    # One span-operator stack per kind, and one stacked action per kind.
    assert [type(g).__name__ for g in spans] == ["PoincareElement", "GalileoElement", "DiffeoMap"]
    assert [len(g.matrix) for g in spans[:2]] == [333, 333]
    assert [(len(op.sources), op.size) for op in acts] == [(333, 2), (333, 1), (335, 1)]


# oracle-check's divergence-boundary and parity elements: built from one
# checked stack of terms each, with the terms of the per-element loops below.

def _boundary_loop(rng, count):
    """One element at a time, each Gaussian checked on its own."""
    elements = []
    for i in range(count):
        a = rng.uniform(2.2, 6.0) if i % 2 == 0 else rng.uniform(0.3, 2.0)
        a = complex(a, rng.uniform(-0.5, 0.5))
        elements.append(SpaceElement.gaussian([[a]], lin=[rng.normal(scale=0.3)]))
    return elements


def _parity_loop(rng, samples):
    """Each sample's even and odd element, built term by term with ``+`` and ``-``."""
    def element(odd):
        sig = Signature(0, 1)
        e = SpaceElement.zero(1)
        for _ in range(rng.integers(1, 3)):
            a = rng.uniform(2.4, 5.0) + 1j * rng.uniform(-0.8, 0.8)
            b = (rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
                 + 1j * rng.normal(scale=0.5))
            coeff = rng.normal() + 1j * rng.normal()
            term = SpaceElement.gaussian([[a]], lin=[b], coeff=coeff)
            mirrored = term.reflected(sig)
            e = e + (term - mirrored if odd else term + mirrored)
        return e
    return [element(odd) for _ in range(samples) for odd in (False, True)]


def _term_bits(elements):
    return [(t.coeff, t.quad.tobytes(), t.lin.tobytes(), t.poly, np.array(t.coeff).tobytes())
            for e in elements for t in e.gaussians]


@pytest.mark.parametrize("seed, samples", [(s, n) for s in range(12) for n in (1, 4, 200)])
def test_stacked_oracle_elements_keep_the_per_element_terms(seed, samples):
    rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
    boundary, parity = experiments._boundary_elements(rng, 50), experiments._parity_elements(rng, samples)
    boundary_ref, parity_ref = _boundary_loop(replay, 50), _parity_loop(replay, samples)
    assert [e.dim for e in boundary + parity] == [1] * (50 + 2 * samples)
    assert [len(e.gaussians) for e in parity] == [len(e.gaussians) for e in parity_ref]
    # == on every coefficient, form, linear part and power, and the same bits.
    for stacked, alone in ((boundary, boundary_ref), (parity, parity_ref)):
        for t, r in zip((t for e in stacked for t in e.gaussians), (r for e in alone for r in e.gaussians)):
            assert t.coeff == r.coeff and np.array_equal(t.quad, r.quad)
            assert np.array_equal(t.lin, r.lin) and t.poly == r.poly
        assert _term_bits(stacked) == _term_bits(alone)
    assert rng.bit_generator.state == replay.bit_generator.state  # the same draws


def test_oracle_check_checks_each_section_as_one_stack(monkeypatch):
    stacks, singles, convergent, parity = [], [], [], []
    check, draw, build = (elements._check_gaussians, experiments._random_convergent_element,
                          experiments._parity_elements)

    def counted(coeff, *args):
        (stacks if np.ndim(coeff) else singles).append(np.shape(coeff))
        return check(coeff, *args)

    def drawn(rng, dim):
        e = draw(rng, dim)
        convergent.append(len(e.gaussians))
        return e
    monkeypatch.setattr(elements, "_check_gaussians", counted)
    monkeypatch.setattr(experiments, "_random_convergent_element", drawn)
    monkeypatch.setattr(experiments, "_parity_elements", lambda rng, n: parity.extend(build(rng, n)) or parity)
    cfg = ExperimentConfig.build("oracle-check", {"pair_count": 2, "boundary_cases": 7, "parity_samples": 30})
    experiments.run_oracle_check(cfg.parameters, np.random.default_rng(3), Tally())
    # One stack per section, of the drawn terms without their mirror images; only
    # the convergent pairs and the two toy references are single terms.
    assert len(parity) == 60
    assert stacks == [(7,), (sum(len(e.gaussians) for e in parity) // 2,)]
    assert len(singles) == sum(convergent) + 2
