import json

import numpy as np
import pytest
from click.testing import CliRunner

from kreingeo.cli import main
from kreingeo.experiments import ExperimentConfig, run_experiment
from kreingeo.groups import PoincareElement


@pytest.fixture
def runner():
    return CliRunner()


def fast_norm_config(tmp_path, **extra):
    record = {
        "experiment": "norm-convergence",
        "seed": 3,
        "parameters": {"scales": [1.0, 2.0], "dims": [1], "quad_radius": 8.0},
    }
    record.update(extra)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    return path


def test_norm_convergence_passes(runner, tmp_path):
    cfg = fast_norm_config(tmp_path)
    out = tmp_path / "results"
    result = runner.invoke(main, ["norm-convergence", "--config", str(cfg),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "PASS" in result.output
    assert (out / "norm_convergence.csv").exists()
    assert (out / "norm_convergence.json").exists()
    assert (out / "norm-convergence_report.json").exists()


def test_csv_output_deterministic(runner, tmp_path):
    cfg = fast_norm_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert runner.invoke(main, ["norm-convergence", "--config", str(cfg),
                                "--out", str(out1)]).exit_code == 0
    assert runner.invoke(main, ["norm-convergence", "--config", str(cfg),
                                "--out", str(out2)]).exit_code == 0
    csv1 = (out1 / "norm_convergence.csv").read_bytes()
    csv2 = (out2 / "norm_convergence.csv").read_bytes()
    assert csv1 == csv2


def test_impossible_tolerance_gives_exit_one(runner, tmp_path):
    cfg = fast_norm_config(tmp_path)
    result = runner.invoke(main, ["norm-convergence", "--config", str(cfg),
                                  "--out", str(tmp_path / "r"),
                                  "--tolerance", "closed_form_deviation=0"])
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_bad_config_gives_exit_two(runner, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    result = runner.invoke(main, ["norm-convergence", "--config", str(path)])
    assert result.exit_code == 2


def test_unknown_config_key_rejected(runner, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "norm-convergence", "bogus": 1}),
                    encoding="utf-8")
    result = runner.invoke(main, ["norm-convergence", "--config", str(path)])
    assert result.exit_code == 2


def test_unknown_parameter_rejected(runner, tmp_path):
    cfg = fast_norm_config(tmp_path, parameters={"no_such_knob": 1})
    result = runner.invoke(main, ["norm-convergence", "--config", str(cfg)])
    assert result.exit_code == 2


def test_wrong_experiment_name_in_config(runner, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "circle-topology"}), encoding="utf-8")
    result = runner.invoke(main, ["norm-convergence", "--config", str(path)])
    assert result.exit_code == 2


def test_bad_tolerance_syntax(runner, tmp_path):
    cfg = fast_norm_config(tmp_path)
    result = runner.invoke(main, ["norm-convergence", "--config", str(cfg),
                                  "--tolerance", "oops"])
    assert result.exit_code == 2


def test_dump_elements_flag(runner, tmp_path):
    cfg = fast_norm_config(tmp_path)
    out = tmp_path / "results"
    result = runner.invoke(main, ["norm-convergence", "--config", str(cfg),
                                  "--out", str(out), "--dump-elements"])
    assert result.exit_code == 0
    payload = json.loads((out / "norm_convergence_elements.json").read_text())
    assert "unit_l2_gaussian_dim1" in payload
    assert payload["unit_l2_gaussian_dim1"]["gaussians"][0]["lin"] == [[0.0, 0.0]]


def test_report_without_results_exits_two(runner, tmp_path):
    result = runner.invoke(main, ["report", "--results", str(tmp_path / "empty")])
    assert result.exit_code == 2
    assert "no results found" in result.output


def test_report_single_pass(runner, tmp_path):
    cfg = fast_norm_config(tmp_path)
    out = tmp_path / "results"
    runner.invoke(main, ["norm-convergence", "--config", str(cfg), "--out", str(out)])
    result = runner.invoke(main, ["report", "--results", str(out)])
    assert result.exit_code == 0
    assert "overall PASS" in result.output
    assert "norm-convergence" in result.output


def test_report_mixed_results(runner, tmp_path):
    out = tmp_path / "results"
    cfg = fast_norm_config(tmp_path)
    runner.invoke(main, ["norm-convergence", "--config", str(cfg), "--out", str(out)])
    runner.invoke(main, ["norm-convergence", "--config", str(cfg), "--out", str(out),
                         "--tolerance", "closed_form_deviation=0"])
    result = runner.invoke(main, ["report", "--results", str(out)])
    assert "overall FAIL" in result.output
    assert "**FAIL**" in result.output


def test_report_corrupt_file_named(runner, tmp_path):
    out = tmp_path / "results"
    out.mkdir()
    bad = out / "broken_report.json"
    bad.write_text("{", encoding="utf-8")
    result = runner.invoke(main, ["report", "--results", str(out)])
    assert result.exit_code == 2
    assert "broken_report.json" in result.output


def test_report_to_file(runner, tmp_path):
    cfg = fast_norm_config(tmp_path)
    out = tmp_path / "results"
    runner.invoke(main, ["norm-convergence", "--config", str(cfg), "--out", str(out)])
    target = tmp_path / "summary.md"
    result = runner.invoke(main, ["report", "--results", str(out),
                                  "--out", str(target)])
    assert result.exit_code == 0
    assert target.read_text().startswith("# Experiment report")


def test_out_dir_envvar(runner, tmp_path, monkeypatch):
    cfg = fast_norm_config(tmp_path)
    out = tmp_path / "from_env"
    monkeypatch.setenv("KREINGEO_OUT", str(out))
    result = runner.invoke(main, ["norm-convergence", "--config", str(cfg)])
    assert result.exit_code == 0
    assert (out / "norm_convergence.csv").exists()


def test_slice_dynamics_config_keys(runner, tmp_path):
    record = {
        "experiment": "slice-dynamics",
        "parameters": {
            "tau_grid": [0.2, 1.0, 3],
            "packet": {"a0": 1.0, "q0": 0.0, "p0": 0.5},
            "hamiltonian": {"kind": "harmonic", "mass": 1.0, "frequency": 1.0},
            "oscillator": {"q0": 0.4, "p0": 0.0},
            "metrics": ["H_eta", "H_tilde", "H_T"],
            "galileo_samples": 2,
        },
    }
    path = tmp_path / "sd.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    out = tmp_path / "results"
    result = runner.invoke(main, ["slice-dynamics", "--config", str(path),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    header = (out / "slice_dynamics.csv").read_text().splitlines()[0]
    assert header == "family,tau,orthogonality_H_eta,orthogonality_H_tilde,orthogonality_H_T"


def test_gram_invariance_extra_elements(runner, tmp_path):
    record = {
        "experiment": "gram-invariance",
        "parameters": {
            "group_samples": 5,
            "commutativity_samples": 6,
            "extra_elements": [
                {"boost": [0.6, 0.0, 0.0]},
                {"rotation": {"axis": [0, 0, 1], "angle": 0.7},
                 "translation": [1.0, 0.0, 0.0, 0.5]},
            ],
        },
    }
    path = tmp_path / "gi.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    out = tmp_path / "results"
    result = runner.invoke(main, ["gram-invariance", "--config", str(path),
                                  "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = (out / "gram_invariance.csv").read_text().splitlines()
    assert len(rows) == 1 + 5 + 2  # header + random samples + configured elements


@pytest.mark.parametrize("experiment, parameters", [
    ("gram-invariance", {"extra_elements": [{"bogus": 1}]}),
    ("slice-dynamics", {"tau_grid": [0.1, 2, "x"]}),
    ("norm-convergence", {"scales": ["x"]}),
    ("norm-convergence", {"dims": [1.5]}),
    ("gram-invariance", {"point_count": "3"}),
    ("norm-convergence", {"quad_radius": True}),
    ("slice-dynamics", {"packet": {"a0": 0.8, "bogus": 1}}),
    ("norm-convergence", {"quad_radius": float("nan")}),
])
def test_malformed_structured_parameter_gives_exit_two(runner, tmp_path, experiment, parameters):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"parameters": parameters}), encoding="utf-8")
    result = runner.invoke(main, [experiment, "--config", str(path),
                                  "--out", str(tmp_path / "results")])
    assert result.exit_code == 2
    assert "config error:" in result.output
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("experiment, parameters", [
    ("circle-topology", {"separation_count": 0}),
    ("circle-topology", {"truncation": 0}),
    ("metric-recovery", {"manifolds": ["sphere2", "nope"]}),
    ("metric-recovery", {"manifolds": ["circle_sobolev"]}),
    ("slice-dynamics", {"metrics": ["H_eta", "nope"]}),
    ("slice-dynamics", {"hamiltonian": {"kind": "free"}}),
    ("metric-recovery", {"ratio_steps": [0.01]}),
    ("metric-recovery", {"ratio_steps": [0.04, 0.02, 0.01]}),
    ("gram-invariance", {"point_count": 0}),
    ("norm-convergence", {"dims": [1, 0]}),
    ("oracle-check", {"quad_nodes_1d": 1}),
    ("oracle-check", {"quad_nodes_2d": 1}),
    ("oracle-check", {"quad_radius": -1.0}),
    ("norm-convergence", {"quad_radius": 0.0}),
    ("oracle-check", {"pair_count": 0}),
    ("slice-dynamics", {"galileo_samples": 0}),
    ("metric-recovery", {"points_per_manifold": 0}),
    ("oracle-check", {"boundary_cases": 0}),
    ("oracle-check", {"parity_samples": 0}),
    ("gram-invariance", {"group_samples": 0}),
    ("gram-invariance", {"commutativity_samples": 0}),
    ("norm-convergence", {"scales": []}),
    ("norm-convergence", {"dims": []}),
    ("metric-recovery", {"manifolds": []}),
    ("oracle-check", {"quad_nodes_1d": 2}),
    ("oracle-check", {"quad_nodes_2d": 2}),
    ("slice-dynamics", {"metrics": []}),
    ("norm-convergence", {"scales": [0.0]}),
    ("gram-invariance", {"commutativity_samples": 2}),
])
def test_out_of_range_parameter_gives_exit_two(runner, tmp_path, experiment, parameters):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"parameters": parameters}), encoding="utf-8")
    result = runner.invoke(main, [experiment, "--config", str(path),
                                  "--out", str(tmp_path / "results")])
    assert result.exit_code == 2
    assert "config error: parameters." in result.output
    assert not (tmp_path / "results").exists()


def test_range_checked_defaults_are_plain_values():
    cfg = ExperimentConfig.build("metric-recovery", parameters={"manifolds": ["sphere2"]})
    assert cfg.parameters["manifolds"] == ["sphere2"]
    assert cfg.parameters["ratio_steps"] == [2e-2, 1e-2]
    cfg = ExperimentConfig.build("slice-dynamics", parameters={"hamiltonian": {"mass": 2}})
    assert cfg.parameters["hamiltonian"]["kind"] == "harmonic"
    assert cfg.parameters["metrics"] == ["H_eta", "H_tilde", "H_T"]


def test_partial_record_parameter_takes_missing_keys_from_defaults():
    cfg = ExperimentConfig.build("slice-dynamics", parameters={"hamiltonian": {"mass": 2}})
    assert cfg.parameters["hamiltonian"] == {"kind": "harmonic", "mass": 2.0, "frequency": 1.3}


def test_build_decodes_parameters_to_their_default_types():
    cfg = ExperimentConfig.build("norm-convergence", parameters={"quad_radius": 8, "dims": [2.0]})
    assert type(cfg.parameters["quad_radius"]) is float and cfg.parameters["quad_radius"] == 8.0
    assert type(cfg.parameters["dims"][0]) is int
    cfg = ExperimentConfig.build("slice-dynamics", parameters={"tau_grid": [0, 1, 3]})
    assert isinstance(cfg.parameters["tau_grid"], np.ndarray)
    assert np.array_equal(cfg.parameters["tau_grid"], [0.0, 0.5, 1.0])
    cfg = ExperimentConfig.build("gram-invariance", parameters={
        "extra_elements": [{"boost": [0.6, 0, 0]}, {"translation": [1, 0, 0, 0]}]})
    assert all(isinstance(g, PoincareElement) for g in cfg.parameters["extra_elements"])
    with pytest.raises(ValueError, match=r"extra_elements: \[1\] is a GalileoElement"):
        ExperimentConfig.build("gram-invariance", parameters={
            "extra_elements": [{"boost": [0.6, 0, 0]}, {"galileo": {"v": [1, 0, 0]}}]})


@pytest.mark.parametrize("record", [
    {"galileo": {"v": [1, 0, 0]}},
    {"diffeo": {"maps": ["0.9*u1"], "domain": [[-1, 1]]}},
])
def test_gram_invariance_takes_poincare_extra_elements_only(runner, tmp_path, record):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"parameters": {"extra_elements": [{"boost": [0.6, 0, 0]}, record]}}),
                    encoding="utf-8")
    result = runner.invoke(main, ["gram-invariance", "--config", str(path),
                                  "--out", str(tmp_path / "results")])
    assert result.exit_code == 2
    assert "config error: parameters.extra_elements: [1] is a " in result.output
    assert "not a Poincare element" in result.output
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("overrides", [
    {"seed": 2.7}, {"seed": True}, {"seed": "3"},
    {"tolerances": {"coth_deviation": "1e-3"}},
    {"tolerances": {"coth_deviation": float("inf")}},
])
def test_build_rejects_a_seed_or_tolerance_of_the_wrong_shape(overrides):
    with pytest.raises(ValueError, match="seed|tolerances"):
        ExperimentConfig.build("circle-topology", **overrides)


def test_experiment_config_build_rejects_unknowns():
    with pytest.raises(ValueError):
        ExperimentConfig.build("norm-convergence", tolerances={"bogus": 1.0})
    with pytest.raises(ValueError):
        ExperimentConfig.build("no-such-experiment")


def test_circle_topology_runs_fast(tmp_path):
    cfg = ExperimentConfig.build(
        "circle-topology", seed=0, out_dir=tmp_path,
        parameters={"coth_truncation": 400000})
    report = run_experiment(cfg)
    assert report.passed
    assert (tmp_path / "circle_topology.csv").exists()


@pytest.mark.parametrize("record, message", [
    ({"rotation": {"axis": [0, 0, 1], "angle": 1, "foo": 2}}, "unknown rotation keys: ['foo']"),
    ({"rotation": {"axis": [0, 0, 1]}}, "missing rotation keys: ['angle']"),
    ({"rotation": {"angle": 1}}, "missing rotation keys: ['axis']"),
    ({"rotation": {"axis": [0, 1], "angle": 1}}, "rotation axis must be a 3-vector"),
])
def test_a_malformed_rotation_record_gives_exit_two(runner, tmp_path, record, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"parameters": {"extra_elements": [record]}}), encoding="utf-8")
    result = runner.invoke(main, ["gram-invariance", "--config", str(path),
                                  "--out", str(tmp_path / "results")])
    assert result.exit_code == 2
    assert f"config error: parameters.extra_elements: {message}" in result.output
    assert not (tmp_path / "results").exists()
