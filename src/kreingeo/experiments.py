"""Reproducible experiment runners behind the command-line interface.

Each experiment consumes an :class:`ExperimentConfig`, runs a deterministic
computation governed solely by the seed and parameters, writes a CSV data
file (plus a JSON mirror) for plotting, and returns an
:class:`ExperimentReport` whose measurements all carry explicit tolerances.
A measurement passes when its value is less than or equal to its
tolerance, so deviations are reported as magnitudes and boolean checks as
violation counts with tolerance zero.
"""

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import combined_form_min_eigenvalue, inner_product, norm_squared
from .catalog import builtin
from .dynamics import (PerturbedPath, TimeSlicedElement, coherent_state, free_packet,
                       galileo_on_slice, path_velocity, pde_residual_fd,
                       schrodinger_residual, slice_inner_product, slice_norm_squared,
                       spatial_spec)
from .elements import GaussianTerm, SpaceElement
from .errors import DivergentNormError, KernelSpaceError, ReportError
from .geometry import (PulledBackKernel, chordal_distance, embed_delta,
                       induced_metric)
from .groups import (AffineMap, DiffeoMap, PoincareElement, act_on_element,
                     apply_point, check_gram_invariance, extend_to_span,
                     parse_group_element, random_galileo, random_poincare)
from .kernels import (KernelSpec, Signature, sobolev_coth_reference,
                      sobolev_kernel_value)
from .quadrature import QuadratureGrid, nodes_for_scale, quadrature_inner_product

EXPERIMENT_NAMES = (
    "norm-convergence",
    "metric-recovery",
    "gram-invariance",
    "slice-dynamics",
    "circle-topology",
    "oracle-check",
)


@dataclass
class Measurement:
    """One named value checked against a tolerance (pass iff value <= tol)."""

    name: str
    value: float
    tolerance: float

    def __post_init__(self):
        self.value = float(self.value)
        self.tolerance = float(self.tolerance)

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.tolerance)

    def as_dict(self) -> dict:
        return {"name": self.name, "value": self.value,
                "tolerance": self.tolerance, "passed": self.passed}


@dataclass
class ExperimentReport:
    name: str
    seed: int
    measurements: list[Measurement]
    wall_time: float
    version: str = __version__
    csv_files: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(m.passed for m in self.measurements)

    def as_dict(self) -> dict:
        return {
            "experiment": self.name,
            "seed": self.seed,
            "passed": self.passed,
            "measurements": [m.as_dict() for m in self.measurements],
            "wall_time_seconds": self.wall_time,
            "version": self.version,
            "csv_files": self.csv_files,
        }


DEFAULT_PARAMETERS: dict[str, dict] = {
    "norm-convergence": {
        "scales": [1.0, 2.0, 5.0, 10.0, 20.0],
        "dims": [1, 3],
        "quad_radius": 8.0,
    },
    "metric-recovery": {
        "manifolds": ["euclidean3", "minkowski31", "sphere2", "flat_torus2", "de_sitter2"],
        "points_per_manifold": 25,
        "step": 1e-4,
        "ratio_steps": [2e-2, 1e-2],
    },
    "gram-invariance": {
        "group_samples": 100,
        "point_count": 10,
        "max_rapidity": 2.0,
        "point_scale": 0.5,
        "commutativity_samples": 1000,
        "extra_elements": [],
    },
    "slice-dynamics": {
        "tau_grid": [0.1, 2.0, 10],
        "packet": {"a0": 0.8, "q0": 0.3, "p0": 1.2},
        "hamiltonian": {"kind": "harmonic", "mass": 1.0, "frequency": 1.3},
        "oscillator": {"q0": 0.7, "p0": -0.5},
        "metrics": ["H_eta", "H_tilde", "H_T"],
        "perturbation": 0.01,
        "galileo_samples": 10,
    },
    "circle-topology": {
        "truncation": 2000,
        "coth_truncation": 400000,
        "separation_count": 12,
    },
    "oracle-check": {
        "pair_count": 20,
        "boundary_cases": 50,
        "parity_samples": 200,
        "quad_nodes_1d": 96,
        "quad_nodes_2d": 48,
        "quad_radius": 8.0,
    },
}

DEFAULT_TOLERANCES: dict[str, dict[str, float]] = {
    "norm-convergence": {
        "closed_form_deviation": 1e-10,
        "quadrature_relative_deviation": 1e-6,
        "monotonicity_violations": 0.0,
    },
    "metric-recovery": {
        "metric_relative_deviation": 1e-6,
        "signature_violations": 0.0,
        "step_halving_ratio_error": 1.0,
    },
    "gram-invariance": {
        "gram_deviation": 1e-11,
        "control_margin": 0.0,
        "commutativity_deviation": 0.0,
        "composition_deviation": 1e-12,
    },
    "slice-dynamics": {
        "residual_true": 1e-10,
        "residual_control_margin": 0.0,
        "fd_oracle_residual": 1e-6,
        "orthogonality": 1e-8,
        "superposition_deviation": 1e-12,
        "galileo_norm_deviation": 1e-12,
    },
    "circle-topology": {
        "wraparound_distance": 1e-10,
        "monotonicity_violations": 0.0,
        "coth_deviation": 1e-6,
    },
    "oracle-check": {
        "oracle_relative_deviation": 1e-6,
        "divergence_mismatches": 0.0,
        "parity_sign_violations": 0.0,
        "parity_cross_term": 1e-12,
        "toy_value_deviation": 1e-9,
    },
}


@dataclass
class ExperimentConfig:
    name: str
    parameters: dict
    tolerances: dict[str, float]
    seed: int = 0
    out_dir: Path = Path("results")
    dump_elements: bool = False

    @classmethod
    def build(cls, name: str, parameters: dict | None = None,
              tolerances: dict | None = None, seed: int = 0,
              out_dir="results", dump_elements: bool = False) -> "ExperimentConfig":
        if name not in EXPERIMENT_NAMES:
            raise ValueError(f"unknown experiment {name!r}")
        params = dict(DEFAULT_PARAMETERS[name])
        for key, value in (parameters or {}).items():
            if key not in params:
                raise ValueError(f"unknown parameter {key!r} for experiment {name}")
            params[key] = value
        tols = dict(DEFAULT_TOLERANCES[name])
        for key, value in (tolerances or {}).items():
            if key not in tols:
                raise ValueError(f"unknown tolerance {key!r} for experiment {name}")
            tols[key] = float(value)
        _check_structured_parameters(name, params)
        return cls(name, params, tols, int(seed), Path(out_dir), dump_elements)


def _check_structured_parameters(name: str, params: dict) -> None:
    """Decode the parameters that runners parse, so a malformed one is a
    config error before the run rather than a failure partway through it."""
    if name not in _STRUCTURED_PARAMETERS:
        return
    key, parse = _STRUCTURED_PARAMETERS[name]
    try:
        parse(params[key])
    except (TypeError, ValueError, KeyError, KernelSpaceError) as ex:
        raise ValueError(f"parameter {key!r}: {ex}") from ex


def _tau_grid(value) -> np.ndarray:
    """Slice times from a ``[lo, hi, count]`` parameter."""
    lo, hi, count = value
    if int(count) < 1:
        raise ValueError("tau_grid needs a count of at least 1")
    return np.linspace(float(lo), float(hi), int(count))


_STRUCTURED_PARAMETERS = {
    "gram-invariance": ("extra_elements", lambda records: [parse_group_element(r) for r in records]),
    "slice-dynamics": ("tau_grid", _tau_grid),
}


def load_config_file(path, name: str) -> dict:
    """Read and validate the JSON config for one experiment run."""
    text = Path(path).read_text(encoding="utf-8")
    record = json.loads(text)
    if not isinstance(record, dict):
        raise ValueError("config must be a JSON object")
    allowed = {"experiment", "seed", "parameters", "tolerances", "output"}
    unknown = set(record) - allowed
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if "experiment" in record and record["experiment"] != name:
        raise ValueError(
            f"config is for experiment {record['experiment']!r}, not {name!r}")
    return record


# ---------------------------------------------------------------------------
# deterministic output helpers

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json_mirror(path: Path, header: list[str], rows: list[list]) -> None:
    records = [{h: (v if isinstance(v, (int, str)) else float(v))
                for h, v in zip(header, row)} for row in rows]
    path.write_text(json.dumps(records, sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")


def _emit(cfg: ExperimentConfig, stem: str, header: list[str],
          rows: list[list]) -> list[str]:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = cfg.out_dir / f"{stem}.csv"
    write_csv(csv_path, header, rows)
    write_json_mirror(cfg.out_dir / f"{stem}.json", header, rows)
    return [csv_path.name]


def _dump_elements(cfg: ExperimentConfig, stem: str, elements: dict[str, SpaceElement]):
    if not cfg.dump_elements:
        return
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    payload = {name: el.to_dict() for name, el in elements.items()}
    (cfg.out_dir / f"{stem}_elements.json").write_text(
        json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def write_report(cfg: ExperimentConfig, report: ExperimentReport) -> Path:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / f"{cfg.name}_report.json"
    path.write_text(json.dumps(report.as_dict(), sort_keys=True, indent=1) + "\n",
                    encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# experiments

def run_norm_convergence(cfg: ExperimentConfig) -> ExperimentReport:
    """Norm of the unit-L2 Gaussian under the normalized kernel vs scale."""
    t0 = time.perf_counter()
    p = cfg.parameters
    scales = [float(L) for L in p["scales"]]
    dims = [int(d) for d in p["dims"]]
    radius = float(p["quad_radius"])

    rows = []
    closed_dev = 0.0
    quad_dev = 0.0
    monotonicity = 0
    elements = {}
    for d in dims:
        f = SpaceElement.gaussian(np.eye(d), coeff=math.pi ** (-0.25 * d))
        elements[f"unit_l2_gaussian_dim{d}"] = f
        previous = None
        for L in scales:
            spec = KernelSpec.gaussian(d, 0, scale=L, normalized=True)
            expected = (1.0 + 1.0 / (2.0 * L * L)) ** (-0.5 * d)
            measured = norm_squared(f, spec)
            grid = QuadratureGrid(nodes_for_scale(L), radius)
            quad = quadrature_inner_product(f, f, spec, grid).real
            closed_dev = max(closed_dev, abs(measured - expected))
            quad_dev = max(quad_dev, abs(quad - expected) / expected)
            if previous is not None and measured <= previous:
                monotonicity += 1
            if measured >= 1.0:
                monotonicity += 1
            previous = measured
            rows.append([d, L, measured, expected, quad,
                         abs(measured - expected), abs(quad - expected) / expected])

    csvs = _emit(cfg, "norm_convergence",
                 ["dim", "scale", "norm_squared", "closed_form", "quadrature",
                  "closed_deviation", "quadrature_relative_deviation"], rows)
    _dump_elements(cfg, "norm_convergence", elements)
    t = cfg.tolerances
    measurements = [
        Measurement("closed_form_deviation", closed_dev, t["closed_form_deviation"]),
        Measurement("quadrature_relative_deviation", quad_dev, t["quadrature_relative_deviation"]),
        Measurement("monotonicity_violations", float(monotonicity), t["monotonicity_violations"]),
    ]
    return ExperimentReport(cfg.name, cfg.seed, measurements,
                            time.perf_counter() - t0, csv_files=csvs)


def _interior_points(entry, count: int, rng: np.random.Generator,
                     margin_steps: float) -> np.ndarray:
    lo = np.array([d[0] for d in entry.embedding.domain])
    hi = np.array([d[1] for d in entry.embedding.domain])
    pad = np.maximum(margin_steps, 0.02 * (hi - lo))
    return rng.uniform(lo + pad, hi - pad, size=(count, len(lo)))


def run_metric_recovery(cfg: ExperimentConfig) -> ExperimentReport:
    """Induced metric from kernel derivatives vs the analytic pullback."""
    t0 = time.perf_counter()
    p = cfg.parameters
    rng = np.random.default_rng(cfg.seed)
    step = float(p["step"])

    rows = []
    tensor_rows = []
    worst = 0.0
    signature_violations = 0
    for name in p["manifolds"]:
        entry = builtin(name)
        pk = PulledBackKernel(entry.embedding, entry.spec)
        pts = _interior_points(entry, int(p["points_per_manifold"]), rng, 2.5 * step)
        expected_signature = None
        for u in pts:
            got = induced_metric(pk, u, step=step)
            want = entry.analytic_metric_at(u)
            scale = max(1.0, float(np.max(np.abs(want.components))))
            dev = float(np.max(np.abs(got.components - want.components))) / scale
            worst = max(worst, dev)
            sig = got.eigenvalue_signature()
            if expected_signature is None:
                expected_signature = want.eigenvalue_signature()
            if sig != expected_signature:
                signature_violations += 1
            rows.append([name, *(float(x) for x in u),
                         *([""] * (4 - len(u))), dev])
            coords = [float(x) for x in got.point]
            comps = [float(x) for x in got.components.reshape(-1)]
            tensor_rows.append([name, *coords, *([""] * (4 - len(coords))),
                                *comps, *([""] * (16 - len(comps)))])

    # Step-halving convergence on the sphere: the finite-difference error
    # of the 4-point mixed stencil is O(step^2), so halving the step should
    # shrink it by about 4.
    entry = builtin("sphere2")
    pk = PulledBackKernel(entry.embedding, entry.spec)
    u0 = np.array([math.pi / 4.0, 0.7])
    want = entry.analytic_metric_at(u0).components
    h1, h2 = (float(h) for h in p["ratio_steps"])
    err1 = float(np.max(np.abs(induced_metric(pk, u0, step=h1).components - want)))
    err2 = float(np.max(np.abs(induced_metric(pk, u0, step=h2).components - want)))
    ratio = err1 / err2 if err2 > 0 else float("inf")

    csvs = _emit(cfg, "metric_recovery",
                 ["manifold", "u1", "u2", "u3", "u4", "relative_deviation"], rows)
    # Recovered tensors: point coordinates then row-major components.
    tensor_header = ["manifold"] + [f"u{i}" for i in range(1, 5)] + [
        f"g{i}{j}" for i in range(1, 5) for j in range(1, 5)]
    csvs += _emit(cfg, "metric_tensors", tensor_header, tensor_rows)
    t = cfg.tolerances
    measurements = [
        Measurement("metric_relative_deviation", worst, t["metric_relative_deviation"]),
        Measurement("signature_violations", float(signature_violations),
                    t["signature_violations"]),
        Measurement("step_halving_ratio_error", abs(ratio - 4.0),
                    t["step_halving_ratio_error"]),
    ]
    return ExperimentReport(cfg.name, cfg.seed, measurements,
                            time.perf_counter() - t0, csv_files=csvs)


def _commutativity_and_composition(rng: np.random.Generator, samples: int):
    """Span-operator round trips and group-law consistency."""
    diffeo = DiffeoMap.from_strings(
        ["0.9 * u1 + 0.1 * sin(u2)", "0.9 * u2 + 0.1 * cos(u1)"],
        [(-1.0, 1.0), (-1.0, 1.0)],
    )
    commutativity = 0.0
    composition = 0.0
    per_kind = samples // 3
    # Poincare and Galileo elements act on 4-vectors, the diffeo on its box.
    for i in range(per_kind):
        g = random_poincare(rng)
        a = rng.normal(scale=0.8, size=4)
        pts = np.vstack([a, a + rng.normal(scale=1.0, size=4)])
        op = extend_to_span(g, pts)
        image = act_on_element(op, embed_delta(a))
        direct = embed_delta(apply_point(g, a))
        commutativity = max(commutativity, float(np.max(np.abs(
            image.deltas[0].base - direct.deltas[0].base))))
        h = random_poincare(rng)
        composed = extend_to_span(g @ h, pts)
        sequential = extend_to_span(g, np.array([apply_point(h, q) for q in pts]))
        composition = max(composition, float(np.max(np.abs(
            composed.targets - sequential.targets))))
    for i in range(per_kind):
        g = random_galileo(rng)
        a = rng.normal(scale=0.8, size=4)
        op = extend_to_span(g, a[None, :])
        image = act_on_element(op, embed_delta(a))
        direct = embed_delta(apply_point(g, a))
        commutativity = max(commutativity, float(np.max(np.abs(
            image.deltas[0].base - direct.deltas[0].base))))
        h = random_galileo(rng)
        composed = apply_point(g @ h, a)
        sequential = apply_point(g, apply_point(h, a))
        composition = max(composition, float(np.max(np.abs(composed - sequential))))
    for i in range(samples - 2 * per_kind):
        a = rng.uniform(-0.95, 0.95, size=2)
        op = extend_to_span(diffeo, a[None, :])
        image = act_on_element(op, embed_delta(a))
        direct = embed_delta(apply_point(diffeo, a))
        commutativity = max(commutativity, float(np.max(np.abs(
            image.deltas[0].base - direct.deltas[0].base))))
    return commutativity, composition


def run_gram_invariance(cfg: ExperimentConfig) -> ExperimentReport:
    """Invariance of the indefinite Gram matrix under the space-time group."""
    t0 = time.perf_counter()
    p = cfg.parameters
    rng = np.random.default_rng(cfg.seed)
    spec = KernelSpec.gaussian(3, 1)

    points = rng.normal(scale=float(p["point_scale"]),
                        size=(int(p["point_count"]), 4))
    rows = []
    worst = 0.0
    for i in range(int(p["group_samples"])):
        g = random_poincare(rng, max_rapidity=float(p["max_rapidity"]))
        dev = check_gram_invariance(g, points, spec)
        worst = max(worst, dev)
        rows.append([i, g.rapidity(), dev])
    # Config-supplied elements (boost/rotation/translation/galileo records)
    # are checked alongside the random sample.
    for j, record in enumerate(p["extra_elements"]):
        g = parse_group_element(record)
        if isinstance(g, PoincareElement):
            dev = check_gram_invariance(g, points, spec)
            worst = max(worst, dev)
            rows.append([int(p["group_samples"]) + j, g.rapidity(), dev])

    # Negative control: an anisotropic scaling is not an isometry of the
    # positive-definite kernel and must move the Gram matrix visibly.
    control_spec = KernelSpec.gaussian(4, 0)
    control_points = np.vstack([np.zeros(4), np.eye(4)[0], points[:4]])
    scaling = AffineMap(np.diag([2.0, 1.0, 1.0, 1.0]), np.zeros(4))
    control_dev = check_gram_invariance(scaling, control_points, control_spec)

    commutativity, composition = _commutativity_and_composition(
        rng, int(p["commutativity_samples"]))

    csvs = _emit(cfg, "gram_invariance",
                 ["sample", "rapidity", "gram_deviation"], rows)
    t = cfg.tolerances
    measurements = [
        Measurement("gram_deviation", worst, t["gram_deviation"]),
        Measurement("control_margin", 0.1 - control_dev, t["control_margin"]),
        Measurement("commutativity_deviation", commutativity,
                    t["commutativity_deviation"]),
        Measurement("composition_deviation", composition, t["composition_deviation"]),
    ]
    return ExperimentReport(cfg.name, cfg.seed, measurements,
                            time.perf_counter() - t0, csv_files=csvs)


def run_slice_dynamics(cfg: ExperimentConfig) -> ExperimentReport:
    """Schroedinger recovery, velocity orthogonality and slice identities."""
    t0 = time.perf_counter()
    p = cfg.parameters
    rng = np.random.default_rng(cfg.seed)
    taus = _tau_grid(p["tau_grid"])
    metrics = tuple(p["metrics"])
    pk = p["packet"]
    po = p["oscillator"]
    hspec = p["hamiltonian"]
    if hspec.get("kind", "harmonic") != "harmonic":
        raise ValueError("the oscillator family needs a harmonic hamiltonian config")
    paths = [
        free_packet(float(pk["a0"]), float(pk["q0"]), float(pk["p0"])),
        coherent_state(float(po["q0"]), float(po["p0"]),
                       mass=float(hspec.get("mass", 1.0)),
                       frequency=float(hspec.get("frequency", 1.0))),
    ]

    rows = []
    residual_true = 0.0
    residual_control = math.inf
    orthogonality = 0.0
    superposition = 0.0
    for path in paths:
        h = path.hamiltonian()
        residual_true = max(residual_true, schrodinger_residual(path, h, taus))
        perturbed = PerturbedPath(path, float(p["perturbation"]))
        residual_control = min(residual_control,
                               schrodinger_residual(perturbed, h, taus))
        for tau in taus:
            c1, c2 = path_velocity(path, tau)
            norms1 = [abs(slice_norm_squared(c1, m)) ** 0.5 for m in metrics]
            norms2 = [abs(slice_norm_squared(c2, m)) ** 0.5 for m in metrics]
            rel = [abs(slice_inner_product(c1, c2, m)) / (n1 * n2)
                   for m, n1, n2 in zip(metrics, norms1, norms2)]
            orthogonality = max(orthogonality, max(rel))
            rows.append([path.kind, float(tau), *rel])

    # Superposition identity at a shared slice time.
    tau = float(taus[len(taus) // 2])
    psi1 = paths[0].psi(tau)
    psi2 = paths[1].psi(tau)
    spat = spatial_spec(1)
    combined = TimeSlicedElement.order_zero(psi1, tau) + TimeSlicedElement.order_zero(psi2, tau)
    target = norm_squared(psi1 + psi2, spat)
    for metric in metrics:
        superposition = max(superposition,
                            abs(slice_norm_squared(combined, metric) - target))

    # Galileo transport of 3-dimensional slices preserves the spatial norm.
    packet3 = free_packet(0.9, [0.1, -0.2, 0.3], [0.5, 0.0, 0.2], space_dim=3)
    slice3 = packet3.slice_element(1.0)
    base_norm = norm_squared(slice3.jets[0][0], spatial_spec(3))
    galileo_dev = 0.0
    for _ in range(int(p["galileo_samples"])):
        g = random_galileo(rng)
        moved = galileo_on_slice(g, slice3)
        galileo_dev = max(galileo_dev, abs(
            norm_squared(moved.jets[0][0], spatial_spec(3)) - base_norm))

    fd_oracle = max(pde_residual_fd(paths[0], paths[0].hamiltonian()),
                    pde_residual_fd(paths[1], paths[1].hamiltonian()))

    csvs = _emit(cfg, "slice_dynamics",
                 ["family", "tau", *(f"orthogonality_{m}" for m in metrics)], rows)
    _dump_elements(cfg, "slice_dynamics",
                   {"free_packet_slice": paths[0].psi(tau),
                    "coherent_state_slice": paths[1].psi(tau)})
    t = cfg.tolerances
    measurements = [
        Measurement("residual_true", residual_true, t["residual_true"]),
        Measurement("residual_control_margin", 1e-2 - residual_control,
                    t["residual_control_margin"]),
        Measurement("fd_oracle_residual", fd_oracle, t["fd_oracle_residual"]),
        Measurement("orthogonality", orthogonality, t["orthogonality"]),
        Measurement("superposition_deviation", superposition,
                    t["superposition_deviation"]),
        Measurement("galileo_norm_deviation", galileo_dev,
                    t["galileo_norm_deviation"]),
    ]
    return ExperimentReport(cfg.name, cfg.seed, measurements,
                            time.perf_counter() - t0, csv_files=csvs)


def run_circle_topology(cfg: ExperimentConfig) -> ExperimentReport:
    """Circle recovery from the periodic Sobolev kernel."""
    t0 = time.perf_counter()
    p = cfg.parameters
    spec = KernelSpec.periodic_sobolev(int(p["truncation"]))

    wrap = chordal_distance([0.0], [2.0 * math.pi], spec)

    count = int(p["separation_count"])
    seps = np.linspace(math.pi / count, math.pi, count)
    distances = [chordal_distance([0.0], [float(s)], spec) for s in seps]
    monotonicity = 0
    if distances[0] <= 0.0:
        monotonicity += 1
    for a, b in zip(distances, distances[1:]):
        if b <= a:
            monotonicity += 1

    # The truncated sum converges to the closed form like 1/(pi N); the
    # cross-check therefore runs at a cutoff large enough for 1e-6.
    k0 = sobolev_kernel_value(0.0, int(p["coth_truncation"]))
    coth_dev = abs(k0 - sobolev_coth_reference())

    rows = [[float(s), d, sobolev_kernel_value(float(s), int(p["truncation"]))]
            for s, d in zip(seps, distances)]
    csvs = _emit(cfg, "circle_topology",
                 ["separation", "chordal_distance", "kernel_value"], rows)
    t = cfg.tolerances
    measurements = [
        Measurement("wraparound_distance", wrap, t["wraparound_distance"]),
        Measurement("monotonicity_violations", float(monotonicity),
                    t["monotonicity_violations"]),
        Measurement("coth_deviation", coth_dev, t["coth_deviation"]),
    ]
    return ExperimentReport(cfg.name, cfg.seed, measurements,
                            time.perf_counter() - t0, csv_files=csvs)


def _random_convergent_element(rng: np.random.Generator, dim: int) -> SpaceElement:
    """A mild random Gaussian mixture whose pair integrals converge."""
    terms = []
    for _ in range(rng.integers(1, 3)):
        diag = rng.uniform(0.9, 2.4, size=dim)
        quad = np.diag(diag).astype(complex)
        if dim > 1:
            off = rng.uniform(-0.2, 0.2) * (1.0 + 0.3j)
            quad[0, 1] = quad[1, 0] = off
        quad += 1j * np.diag(rng.uniform(-0.4, 0.4, size=dim))
        lin = rng.normal(scale=0.4, size=dim) + 1j * rng.normal(scale=0.4, size=dim)
        coeff = rng.normal() + 1j * rng.normal()
        poly = tuple(int(k) for k in rng.integers(0, 2, size=dim))
        terms.append(GaussianTerm(coeff, quad, lin, poly))
    return SpaceElement(dim, tuple(terms))


def _random_parity_element(rng: np.random.Generator, odd: bool) -> SpaceElement:
    """Random even or odd element of the one-dimensional time toy."""
    sig = Signature(0, 1)
    element = SpaceElement.zero(1)
    for _ in range(rng.integers(1, 3)):
        a = rng.uniform(2.4, 5.0) + 1j * rng.uniform(-0.8, 0.8)
        b = (rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
             + 1j * rng.normal(scale=0.5))
        coeff = rng.normal() + 1j * rng.normal()
        term = SpaceElement.gaussian([[a]], lin=[b], coeff=coeff)
        mirrored = term.reflected(sig)
        element = element + (term - mirrored if odd else term + mirrored)
    return element


def run_oracle_check(cfg: ExperimentConfig) -> ExperimentReport:
    """Quadrature vs closed form, divergence trigger, and Krein sign structure."""
    t0 = time.perf_counter()
    p = cfg.parameters
    rng = np.random.default_rng(cfg.seed)
    rows = []

    # Closed form vs quadrature on random convergent pairs in dims 1 and 2.
    oracle_dev = 0.0
    pair_count = int(p["pair_count"])
    radius = float(p["quad_radius"])
    dumped = {}
    for i in range(pair_count):
        dim = 1 if i < (pair_count + 1) // 2 else 2
        spec = KernelSpec.gaussian(dim, 0)
        nodes = int(p["quad_nodes_1d"]) if dim == 1 else int(p["quad_nodes_2d"])
        while True:
            e1 = _random_convergent_element(rng, dim)
            e2 = _random_convergent_element(rng, dim)
            closed = inner_product(e1, e2, spec)
            scale = math.sqrt(norm_squared(e1, spec) * norm_squared(e2, spec))
            if abs(closed) > 0.01 * scale:
                break
        quad = quadrature_inner_product(e1, e2, spec, QuadratureGrid(nodes, radius))
        rel = abs(closed - quad) / abs(closed)
        oracle_dev = max(oracle_dev, rel)
        rows.append(["oracle", i, rel])
        if i < 2:
            dumped[f"oracle_pair_{i}_left"] = e1
            dumped[f"oracle_pair_{i}_right"] = e2

    # DivergentNorm fires exactly when the combined form loses definiteness.
    toy = KernelSpec.gaussian(0, 1)
    mismatches = 0
    cases = int(p["boundary_cases"])
    for i in range(cases):
        if i % 2 == 0:
            a = rng.uniform(2.2, 6.0)  # min eigenvalue a - 2 > 0: convergent
        else:
            a = rng.uniform(0.3, 2.0)  # min eigenvalue a - 2 <= 0: divergent
        a = complex(a, rng.uniform(-0.5, 0.5))
        e = SpaceElement.gaussian([[a]], lin=[rng.normal(scale=0.3)])
        predicted_divergent = combined_form_min_eigenvalue(e, e, toy) <= 1e-10
        try:
            norm_squared(e, toy)
            raised = False
        except DivergentNormError:
            raised = True
        if raised != predicted_divergent:
            mismatches += 1
        rows.append(["divergence", i, float(raised != predicted_divergent)])

    # Krein sign structure of the time toy, plus the two reference values.
    sign_violations = 0
    cross = 0.0
    samples = int(p["parity_samples"])
    for i in range(samples):
        even = _random_parity_element(rng, odd=False)
        odd = _random_parity_element(rng, odd=True)
        if norm_squared(even, toy) <= 0.0:
            sign_violations += 1
        if norm_squared(odd, toy) >= 0.0:
            sign_violations += 1
        pairing = abs(inner_product(even, odd, toy))
        scale = math.sqrt(abs(norm_squared(even, toy)) * abs(norm_squared(odd, toy)))
        cross = max(cross, pairing / max(scale, 1e-30))
    rows.append(["parity", samples, float(sign_violations)])

    even_toy = SpaceElement.gaussian([[4.0]])
    odd_toy = SpaceElement.gaussian([[4.0]], poly=(1,))
    toy_dev = max(abs(norm_squared(even_toy, toy) - math.pi / math.sqrt(2.0)),
                  abs(norm_squared(odd_toy, toy) + math.pi / (8.0 * math.sqrt(2.0))))

    csvs = _emit(cfg, "oracle_check", ["section", "case", "value"], rows)
    _dump_elements(cfg, "oracle_check", dumped)
    t = cfg.tolerances
    measurements = [
        Measurement("oracle_relative_deviation", oracle_dev,
                    t["oracle_relative_deviation"]),
        Measurement("divergence_mismatches", float(mismatches),
                    t["divergence_mismatches"]),
        Measurement("parity_sign_violations", float(sign_violations),
                    t["parity_sign_violations"]),
        Measurement("parity_cross_term", cross, t["parity_cross_term"]),
        Measurement("toy_value_deviation", toy_dev, t["toy_value_deviation"]),
    ]
    return ExperimentReport(cfg.name, cfg.seed, measurements,
                            time.perf_counter() - t0, csv_files=csvs)


RUNNERS = {
    "norm-convergence": run_norm_convergence,
    "metric-recovery": run_metric_recovery,
    "gram-invariance": run_gram_invariance,
    "slice-dynamics": run_slice_dynamics,
    "circle-topology": run_circle_topology,
    "oracle-check": run_oracle_check,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    report = RUNNERS[cfg.name](cfg)
    write_report(cfg, report)
    return report


# ---------------------------------------------------------------------------
# report aggregation

def emit_report(results_dir) -> str:
    """Markdown summary of every report file found in a results directory."""
    results_dir = Path(results_dir)
    paths = sorted(results_dir.glob("*_report.json"))
    if not paths:
        raise ReportError(f"no results found in {results_dir}")
    sections = []
    overall = True
    for path in paths:
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
            name = record["experiment"]
            measurements = record["measurements"]
            passed = bool(record["passed"])
        except (json.JSONDecodeError, KeyError, TypeError) as ex:
            raise ReportError(f"corrupt report file {path}: {ex}") from None
        overall = overall and passed
        lines = [
            f"## {name} - {'PASS' if passed else 'FAIL'}",
            "",
            f"seed {record.get('seed', '?')}, version {record.get('version', '?')}, "
            f"wall time {record.get('wall_time_seconds', 0.0):.2f} s",
            "",
            "| measurement | value | tolerance | status |",
            "| --- | --- | --- | --- |",
        ]
        for m in measurements:
            status = "ok" if m["passed"] else "**FAIL**"
            lines.append(f"| {m['name']} | {m['value']:.6e} | {m['tolerance']:.6e} | {status} |")
        sections.append("\n".join(lines))
    header = [
        f"# Experiment report - overall {'PASS' if overall else 'FAIL'}",
        "",
        f"{len(paths)} experiment(s) aggregated from {results_dir}.",
        "",
    ]
    return "\n".join(header) + "\n\n".join(sections) + "\n"
