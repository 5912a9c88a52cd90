"""Reproducible experiment runners behind the command-line interface.

``EXPERIMENTS`` holds one record per experiment.  :func:`run_experiment`
runs one from an :class:`ExperimentConfig`: a deterministic computation
governed solely by the seed and parameters, whose tables it writes as CSV
data files (plus JSON mirrors) for plotting, and whose
:class:`ExperimentReport` has measurements that all carry explicit tolerances.
A runner hands each per-case value to a :class:`Tally`, so a measurement is
its worst per-case value (a deviation) or its count of failed cases (with
tolerance zero).  It passes when its value is at most its tolerance: a NaN fails.
"""

import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import combined_form_min_eigenvalue, inner_product, inner_products, norm_squared, real_norm_squared
from .catalog import builtin
from .dynamics import (SLICE_METRICS, PerturbedPath, TimeSlicedElement, coherent_state, free_packet,
                       galileo_on_slice, path_velocity, pde_residual_fd,
                       schrodinger_residual, slice_inner_products, spatial_spec)
from .elements import GaussianTerm, SpaceElement, gaussian_terms
from .errors import DivergentNormError, KernelSpaceError, ReportError
from .geometry import (PulledBackKernel, chordal_distance, embed_delta,
                       induced_metric)
from .groups import (AffineMap, DiffeoMap, PoincareElement, _galileo_draws, _galileo_stack,
                     _poincare_draws, _poincare_stack, act_on_element, apply_point,
                     check_gram_invariance, extend_to_span, parse_group_element)
from .kernels import (KernelSpec, Signature, sobolev_coth_reference,
                      sobolev_kernel_value)
from .polygauss import PD_TOLERANCE
from .quadrature import QuadratureGrid, nodes_for_scale, quadrature_inner_product

@dataclass
class Measurement:
    """One named value checked against a tolerance (pass iff value <= tol, so NaN fails)."""

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
        """Defaults of experiment ``name`` with each override checked against
        its default's shape (:func:`_conform`) and ``_DECODERS`` applied."""
        if name not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {name!r}")
        experiment = EXPERIMENTS[name]
        params = _conform({} if parameters is None else parameters, experiment.parameters,
                          "parameters")
        for key, decode in _DECODERS.items():
            if key in params:
                try:
                    params[key] = decode(params[key])
                except (TypeError, ValueError, KeyError, KernelSpaceError) as ex:
                    raise ValueError(f"parameters.{key}: {ex}") from ex
        tols = _conform({} if tolerances is None else tolerances, experiment.tolerances,
                        "tolerances")
        return cls(name, params, tols, _conform(seed, 0, "seed"), Path(out_dir), dump_elements)


def _conform(value, default, where: str):
    """``value`` checked against the JSON shape of ``default`` and decoded to it.

    A number default takes a finite number (not a boolean), an integer
    default a whole number, a string a string, a list a list whose items
    each match the default's first item, and a record a record without
    unknown keys, its missing keys taking their default values.
    A :class:`Limited` default also takes only the values its rule admits.
    """
    if isinstance(default, Limited):
        value = _conform(value, default.default, where)
        if not default.admits(value):
            raise ValueError(f"{where}: expected {default.rule}, got {value!r}")
        return value
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ValueError(f"{where}: expected a record, got {value!r}")
        unknown = sorted(set(value) - set(default))
        if unknown:
            raise ValueError(f"{where}: unknown keys {unknown}")
        return {key: _conform(value[key], d, f"{where}.{key}") if key in value else _plain(d)
                for key, d in default.items()}
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ValueError(f"{where}: expected a list, got {value!r}")
        if not default:
            return list(value)
        return [_conform(v, default[0], f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ValueError(f"{where}: expected a string, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"{where}: expected a finite number, got {value!r}")
    if isinstance(default, int):
        if value != int(value):
            raise ValueError(f"{where}: expected a whole number, got {value!r}")
        return int(value)
    return float(value)


class Limited:
    """A default parameter value and the rule for the values it admits."""

    # A plain class: making a dataclass costs most of a millisecond per import.
    __slots__ = ("default", "admits", "rule")

    def __init__(self, default, admits: Callable[[object], bool], rule: str):
        self.default, self.admits, self.rule = default, admits, rule


def _at_least(low: int, default: int) -> Limited:
    return Limited(default, lambda v: v >= low, f"at least {low}")


def _nonempty(default) -> Limited:
    return Limited(default, lambda v: len(v) >= 1, "a nonempty list")


def _positive(default: float) -> Limited:
    return Limited(default, lambda v: v > 0, "a number above 0")


def _names_from(names, default) -> Limited:
    """A name, or a list of names, each from ``names``."""
    names = tuple(names)
    if isinstance(default, str):
        return Limited(default, lambda v: v in names, f"one of {list(names)}")
    return Limited(default, lambda v: set(v) <= set(names), f"names from {list(names)}")


def _plain(default):
    """The default values of a parameter schema, without their rules."""
    if isinstance(default, Limited):
        return _plain(default.default)
    if isinstance(default, dict):
        return {key: _plain(d) for key, d in default.items()}
    if isinstance(default, list):
        return [_plain(d) for d in default]
    return default


def _tau_grid(value) -> np.ndarray:
    """Slice times from a ``[lo, hi, count]`` parameter."""
    lo, hi, count = value
    if count != int(count) or count < 1:
        raise ValueError("tau_grid needs a whole count of at least 1")
    return np.linspace(lo, hi, int(count))


def _poincare_elements(records) -> list[PoincareElement]:
    """Poincare elements from a list of group-element records."""
    elements = [parse_group_element(r) for r in records]
    for i, g in enumerate(elements):
        if not isinstance(g, PoincareElement):
            raise ValueError(f"[{i}] is a {type(g).__name__}, not a Poincare element")
    return elements


# Parsers for the parameters that runners read as objects, keyed by name.
_DECODERS = {"tau_grid": _tau_grid, "extra_elements": _poincare_elements}


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
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _json_value(v) -> str:
    """A mirror value as JSON text: strings and ints as themselves, bools as
    true or false, anything else as a float, null if it is not finite."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if isinstance(v, int):
        return ("true" if v else "false") if isinstance(v, bool) else int.__repr__(v)
    v = float(v)
    return float.__repr__(v) if math.isfinite(v) else "null"


def write_json_mirror(path: Path, header: list[str], rows: list[list]) -> None:
    """Each row as one record {header: value}: the text of ``json.dumps(records,
    sort_keys=True, indent=1)``, written in one pass, with each NaN or infinity as null."""
    column = {h: i for i, h in enumerate(header)}  # a repeated name keeps its last column, as a dict does
    names = sorted(column)
    keys, columns = [f"  {encode_basestring_ascii(h)}: " for h in names], [column[h] for h in names]
    records = []
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"a table row needs {len(header)} values, not {len(row)}")
        texts = [_json_value(row[i]) for i in columns]
        records.append(" {\n" + ",\n".join(map(str.__add__, keys, texts)) + "\n }" if keys else " {}")
    path.write_text(("[\n" + ",\n".join(records) + "\n]" if records else "[]") + "\n", encoding="utf-8")


def _write_json(path: Path, value) -> None:
    """Strict JSON with sorted keys: each NaN or infinity is written as null."""
    try:
        text = json.dumps(value, sort_keys=True, indent=1, allow_nan=False)
    except ValueError:  # a non-finite float: a round trip turns each into None
        return _write_json(path, json.loads(json.dumps(value), parse_constant=lambda _: None))
    path.write_text(text + "\n", encoding="utf-8")


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
    _write_json(cfg.out_dir / f"{stem}_elements.json",
                {name: el.to_dict() for name, el in elements.items()})


def write_report(cfg: ExperimentConfig, report: ExperimentReport) -> Path:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / f"{cfg.name}_report.json"
    _write_json(path, report.as_dict())
    return path


# ---------------------------------------------------------------------------
# experiments

class Tally:
    """The measured value of each name, reduced from its per-case values.

    ``worst`` keeps the largest value recorded under a name, and keeps a NaN
    once one is recorded; ``count`` adds up the failed cases.  A runner hands
    every case of every measurement to one tally.
    """

    def __init__(self):
        self.values: dict[str, float] = {}

    def worst(self, name: str, value) -> None:
        value = float(value)
        if name not in self.values or value > self.values[name] or math.isnan(value):
            self.values[name] = value

    def count(self, name: str, failed) -> None:
        self.values[name] = self.values.get(name, 0) + bool(failed)


def run_norm_convergence(p: dict, rng: np.random.Generator, tally: Tally):
    """Norm of the unit-L2 Gaussian under the normalized kernel vs scale."""
    rows = []
    elements = {}
    for d in p["dims"]:
        f = SpaceElement.gaussian(np.eye(d), coeff=math.pi ** (-0.25 * d))
        elements[f"unit_l2_gaussian_dim{d}"] = f
        previous = None
        for L in p["scales"]:
            spec = KernelSpec.gaussian(d, 0, scale=L, normalized=True)
            expected = (1.0 + 1.0 / (2.0 * L * L)) ** (-0.5 * d)
            measured = norm_squared(f, spec)
            grid = QuadratureGrid(nodes_for_scale(L), p["quad_radius"])
            quad = quadrature_inner_product(f, f, spec, grid).real
            closed_dev, quad_dev = abs(measured - expected), abs(quad - expected) / expected
            tally.worst("closed_form_deviation", closed_dev)
            tally.worst("quadrature_relative_deviation", quad_dev)
            if previous is not None:
                tally.count("monotonicity_violations", not measured > previous)
            tally.count("monotonicity_violations", not measured < 1.0)
            previous = measured
            rows.append([d, L, measured, expected, quad, closed_dev, quad_dev])

    header = ["dim", "scale", "norm_squared", "closed_form", "quadrature",
              "closed_deviation", "quadrature_relative_deviation"]
    return {"norm_convergence": (header, rows)}, elements


def _interior_points(entry, count: int, rng: np.random.Generator,
                     margin_steps: float) -> np.ndarray:
    lo = np.array([d[0] for d in entry.embedding.domain])
    hi = np.array([d[1] for d in entry.embedding.domain])
    pad = np.maximum(margin_steps, 0.02 * (hi - lo))
    return rng.uniform(lo + pad, hi - pad, size=(count, len(lo)))


def run_metric_recovery(p: dict, rng: np.random.Generator, tally: Tally):
    """Induced metric from kernel derivatives vs the analytic pullback."""
    rows = []
    tensor_rows = []
    for name in p["manifolds"]:
        entry = builtin(name)
        pk = PulledBackKernel(entry.embedding, entry.spec)
        pts = _interior_points(entry, p["points_per_manifold"], rng, 2.5 * p["step"])
        expected_signature = entry.analytic_metric_at(pts[0]).eigenvalue_signature()
        for u in pts:
            got = induced_metric(pk, u, step=p["step"])
            want = entry.analytic_metric_at(u)
            scale = max(1.0, float(np.max(np.abs(want.components))))
            dev = float(np.max(np.abs(got.components - want.components))) / scale
            tally.worst("metric_relative_deviation", dev)
            tally.count("signature_violations", got.eigenvalue_signature() != expected_signature)
            rows.append([name, *(float(x) for x in u), *([""] * (4 - len(u))), dev])
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
    err1, err2 = (float(np.max(np.abs(induced_metric(pk, u0, step=h).components - want)))
                  for h in p["ratio_steps"])
    ratio = err1 / err2 if err2 > 0 else float("inf")
    tally.worst("step_halving_ratio_error", abs(ratio - 4.0))

    # Recovered tensors: point coordinates then row-major components.
    tensor_header = ["manifold"] + [f"u{i}" for i in range(1, 5)] + [
        f"g{i}{j}" for i in range(1, 5) for j in range(1, 5)]
    tables = {"metric_recovery": (["manifold", "u1", "u2", "u3", "u4", "relative_deviation"], rows),
              "metric_tensors": (tensor_header, tensor_rows)}
    return tables, None


def _commutation_gaps(g, points: np.ndarray, images: np.ndarray, tally: Tally) -> None:
    """Image of the delta at ``points[0, i]`` under span operator i against ``images[i]``; points (n, k, m).

    ``g`` is a stack of k maps, operator i extending map i, or one map for all k operators; one action moves all k.
    """
    moved = act_on_element(extend_to_span(g, points), embed_delta(points[0]))
    tally.worst("commutativity_deviation", np.max(np.abs(np.array([e.deltas[0].base for e in moved]) - images)))


def _commutativity_and_composition(rng: np.random.Generator, samples: int, tally: Tally):
    """Span-operator round trips and group-law consistency: each sample draws g, its
    points and h in turn, then each kind's g's and h's are built and checked as two stacks."""
    diffeo = DiffeoMap.from_strings(["0.9 * u1 + 0.1 * sin(u2)", "0.9 * u2 + 0.1 * cos(u1)"],
                                    [(-1.0, 1.0), (-1.0, 1.0)])
    per_kind = samples // 3
    # Poincare elements act on point pairs, Galileo elements on single points, the diffeo on its box.
    for draw, stack, count in ((_poincare_draws, _poincare_stack, 2), (_galileo_draws, _galileo_stack, 1)):
        drawn = []
        for _ in range(per_kind):
            g, a = draw(rng), rng.normal(scale=0.8, size=4)
            pts = [a] + [a + rng.normal(scale=1.0, size=4) for _ in range(count - 1)]
            drawn.append((g, pts, draw(rng)))
        gs, pts, hs = zip(*drawn)
        G, H, P = stack(gs), stack(hs), np.array(pts).swapaxes(0, 1)
        _commutation_gaps(G, P, apply_point(G, P[0]), tally)
        tally.worst("composition_deviation", np.max(np.abs(
            apply_point(G @ H, P) - apply_point(G, apply_point(H, P)))))
    A = np.array([rng.uniform(-0.95, 0.95, size=2) for _ in range(samples - 2 * per_kind)])
    _commutation_gaps(diffeo, A[None], apply_point(diffeo, A), tally)


def run_gram_invariance(p: dict, rng: np.random.Generator, tally: Tally):
    """Invariance of the indefinite Gram matrix under the space-time group."""
    spec = KernelSpec.gaussian(3, 1)
    points = rng.normal(scale=p["point_scale"], size=(p["point_count"], 4))
    # The random sample, built and checked as one stack, then the configured Poincare elements.
    sample = _poincare_stack([_poincare_draws(rng, p["max_rapidity"]) for _ in range(p["group_samples"])])
    extra = p["extra_elements"]
    rapidities = sample.rapidity().tolist() + [g.rapidity() for g in extra]
    devs = check_gram_invariance(sample, points, spec).tolist() + [check_gram_invariance(g, points, spec)
                                                                  for g in extra]
    rows = []
    for i, (rapidity, dev) in enumerate(zip(rapidities, devs)):
        tally.worst("gram_deviation", dev)
        rows.append([i, rapidity, dev])

    # Negative control: an anisotropic scaling is not an isometry of the
    # positive-definite kernel and must move the Gram matrix visibly.
    control_spec = KernelSpec.gaussian(4, 0)
    control_points = np.vstack([np.zeros(4), np.eye(4)[0], points[:4]])
    scaling = AffineMap(np.diag([2.0, 1.0, 1.0, 1.0]), np.zeros(4))
    tally.worst("control_margin",
                0.1 - check_gram_invariance(scaling, control_points, control_spec))

    _commutativity_and_composition(rng, p["commutativity_samples"], tally)
    return {"gram_invariance": (["sample", "rapidity", "gram_deviation"], rows)}, None


def run_slice_dynamics(p: dict, rng: np.random.Generator, tally: Tally):
    """Schroedinger recovery, velocity orthogonality and slice identities."""
    taus = p["tau_grid"]
    metrics = p["metrics"]
    pk, po, hspec = p["packet"], p["oscillator"], p["hamiltonian"]
    paths = [
        free_packet(pk["a0"], pk["q0"], pk["p0"]),
        coherent_state(po["q0"], po["p0"], mass=hspec["mass"], frequency=hspec["frequency"]),
    ]

    velocities = []
    for path in paths:
        h = path.hamiltonian()
        tally.worst("residual_true", schrodinger_residual(path, h, taus))
        perturbed = PerturbedPath(path, p["perturbation"])
        tally.worst("residual_control_margin", 1e-2 - schrodinger_residual(perturbed, h, taus))
        tally.worst("fd_oracle_residual", pde_residual_fd(path, h))
        velocities += [(path.kind, float(tau), *path_velocity(path, tau)) for tau in taus]

    # Each velocity's cross term and the two norms, under every metric, in one batch.
    values = slice_inner_products([pair for _, _, c1, c2 in velocities
                                   for pair in ((c1, c2), (c1, c1), (c2, c2))], metrics)
    rows = []
    for (kind, tau, *_), (cross, norms1, norms2) in zip(velocities, values.reshape(-1, 3, len(metrics))):
        scale1, scale2 = ([abs(real_norm_squared(n)) ** 0.5 for n in norms.tolist()] for norms in (norms1, norms2))
        rel = [abs(ip) / (a * b) for ip, a, b in zip(cross.tolist(), scale1, scale2)]
        for value in rel:
            tally.worst("orthogonality", value)
        rows.append([kind, tau, *rel])

    # Superposition identity at a shared slice time.
    tau = float(taus[len(taus) // 2])
    psi1, psi2 = (path.psi(tau) for path in paths)
    combined = TimeSlicedElement.order_zero(psi1, tau) + TimeSlicedElement.order_zero(psi2, tau)
    target = norm_squared(psi1 + psi2, spatial_spec(1))
    for value in slice_inner_products([(combined, combined)], metrics)[0].tolist():
        tally.worst("superposition_deviation", abs(real_norm_squared(value) - target))

    # Galileo transport of 3-dimensional slices preserves the spatial norm.
    packet3 = free_packet(0.9, [0.1, -0.2, 0.3], [0.5, 0.0, 0.2], space_dim=3)
    slice3 = packet3.slice_element(1.0)
    galileo = _galileo_stack([_galileo_draws(rng) for _ in range(p["galileo_samples"])])
    moved = [galileo_on_slice(g, slice3) for g in galileo]
    spatial = [s.jets[0][0] for s in (slice3, *moved)]
    base_norm, *norms = map(real_norm_squared, inner_products([(e, e) for e in spatial], spatial_spec(3)).tolist())
    for value in norms:
        tally.worst("galileo_norm_deviation", abs(value - base_norm))

    header = ["family", "tau", *(f"orthogonality_{m}" for m in metrics)]
    elements = {"free_packet_slice": psi1, "coherent_state_slice": psi2}
    return {"slice_dynamics": (header, rows)}, elements


def run_circle_topology(p: dict, rng: np.random.Generator, tally: Tally):
    """Circle recovery from the periodic Sobolev kernel."""
    spec = KernelSpec.periodic_sobolev(p["truncation"])

    tally.worst("wraparound_distance", chordal_distance([0.0], [2.0 * math.pi], spec))

    # Distances from 0 must rise strictly with the separation, from above 0.
    seps = np.linspace(math.pi / p["separation_count"], math.pi, p["separation_count"])
    distances = [chordal_distance([0.0], [float(s)], spec) for s in seps]
    for a, b in zip([0.0, *distances], distances):
        tally.count("monotonicity_violations", not b > a)

    # The truncated sum converges to the closed form like 1/(pi N); the
    # cross-check therefore runs at a cutoff large enough for 1e-6.
    k0 = sobolev_kernel_value(0.0, p["coth_truncation"])
    tally.worst("coth_deviation", abs(k0 - sobolev_coth_reference()))

    rows = [[float(s), d, sobolev_kernel_value(float(s), p["truncation"])]
            for s, d in zip(seps, distances)]
    header = ["separation", "chordal_distance", "kernel_value"]
    return {"circle_topology": (header, rows)}, None


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


def _boundary_elements(rng: np.random.Generator, count: int) -> list[SpaceElement]:
    """Gaussians of the time toy on both sides of the divergence boundary, checked as one stack.

    With the toy kernel the combined form's min eigenvalue is a - 2: > 0
    (convergent) for even i, <= 0 for odd i.
    """
    draws = []
    for i in range(count):
        a = rng.uniform(2.2, 6.0) if i % 2 == 0 else rng.uniform(0.3, 2.0)
        draws.append((complex(a, rng.uniform(-0.5, 0.5)), rng.normal(scale=0.3)))
    quads, lins = zip(*draws)
    terms = gaussian_terms(np.ones(count), np.reshape(quads, (-1, 1, 1)), np.reshape(lins, (-1, 1)))
    return [SpaceElement(1, (t,)) for t in terms]


def _parity_elements(rng: np.random.Generator, samples: int) -> list[SpaceElement]:
    """Each sample's random even and odd element of the one-dimensional time toy.

    All terms are drawn first, in the order of a term-by-term build, and
    checked as one stack.  Each element holds its terms t and their mirror
    images t(-x), negated in an odd element as subtraction would negate them.
    """
    counts, draws = [], []
    for _ in range(2 * samples):
        counts.append(rng.integers(1, 3))
        for _ in range(counts[-1]):
            a = rng.uniform(2.4, 5.0) + 1j * rng.uniform(-0.8, 0.8)
            b = (rng.uniform(0.2, 1.0) * (-1.0, 1.0)[rng.integers(0, 2)]
                 + 1j * rng.normal(scale=0.5))
            draws.append((a, b, rng.normal() + 1j * rng.normal()))
    quads, lins, coeffs = zip(*draws)
    terms = gaussian_terms(coeffs, np.reshape(quads, (-1, 1, 1)), np.reshape(lins, (-1, 1)))
    sig, elements, start = Signature(0, 1), [], 0
    for i, count in enumerate(counts):
        parts = []
        for t in terms[start:start + count]:
            mirrored = t.reflected(sig)
            parts += [t, mirrored.scaled(complex(-1.0)) if i % 2 else mirrored]
        elements.append(SpaceElement(1, tuple(parts)))
        start += count
    return elements


def run_oracle_check(p: dict, rng: np.random.Generator, tally: Tally):
    """Quadrature vs closed form, divergence trigger, and Krein sign structure."""
    rows = []

    # Closed form vs quadrature on random convergent pairs in dims 1 and 2.
    pair_count = p["pair_count"]
    dumped = {}
    for i in range(pair_count):
        dim = 1 if i < (pair_count + 1) // 2 else 2
        spec = KernelSpec.gaussian(dim, 0)
        nodes = p["quad_nodes_1d"] if dim == 1 else p["quad_nodes_2d"]
        while True:
            e1 = _random_convergent_element(rng, dim)
            e2 = _random_convergent_element(rng, dim)
            closed = inner_product(e1, e2, spec)
            scale = math.sqrt(norm_squared(e1, spec) * norm_squared(e2, spec))
            if abs(closed) > 0.01 * scale:
                break
        quad = quadrature_inner_product(e1, e2, spec, QuadratureGrid(nodes, p["quad_radius"]))
        rel = abs(closed - quad) / abs(closed)
        tally.worst("oracle_relative_deviation", rel)
        rows.append(["oracle", i, rel])
        if i < 2:
            dumped[f"oracle_pair_{i}_left"] = e1
            dumped[f"oracle_pair_{i}_right"] = e2

    # DivergentNorm fires exactly when the combined form loses definiteness.
    toy = KernelSpec.gaussian(0, 1)
    for i, e in enumerate(_boundary_elements(rng, p["boundary_cases"])):
        predicted_divergent = combined_form_min_eigenvalue(e, e, toy) <= PD_TOLERANCE
        try:
            norm_squared(e, toy)
            raised = False
        except DivergentNormError:
            raised = True
        tally.count("divergence_mismatches", raised != predicted_divergent)
        rows.append(["divergence", i, float(raised != predicted_divergent)])

    # Krein sign structure of the time toy, plus the two reference values.
    samples = p["parity_samples"]
    elements = _parity_elements(rng, samples)
    pairs = []
    for even, odd in zip(elements[0::2], elements[1::2]):
        pairs += [(even, even), (odd, odd), (even, odd)]
    values = inner_products(pairs, toy).tolist()
    for even_norm, odd_norm, cross in zip(values[0::3], values[1::3], values[2::3]):
        even_norm, odd_norm = real_norm_squared(even_norm), real_norm_squared(odd_norm)
        tally.count("parity_sign_violations", not even_norm > 0.0)
        tally.count("parity_sign_violations", not odd_norm < 0.0)
        scale = math.sqrt(abs(even_norm) * abs(odd_norm))
        tally.worst("parity_cross_term", abs(cross) / max(scale, 1e-30))
    rows.append(["parity", samples, float(tally.values["parity_sign_violations"])])

    for poly, value in (((), math.pi / math.sqrt(2.0)), ((1,), -math.pi / (8.0 * math.sqrt(2.0)))):
        toy_element = SpaceElement.gaussian([[4.0]], poly=poly)
        tally.worst("toy_value_deviation", abs(norm_squared(toy_element, toy) - value))
    return {"oracle_check": (["section", "case", "value"], rows)}, dumped


@dataclass(frozen=True)
class Experiment:
    """One experiment: its runner, CLI help and default configuration.

    ``run(parameters, rng, tally)`` hands each per-case value of every
    tolerance name to the :class:`Tally`, and returns the tables to write as
    ``{stem: (header, rows)}`` and the elements that ``--dump-elements``
    writes (None when it writes none).
    The defaults are the parameter schema that ``ExperimentConfig.build``
    checks overrides against; a default wrapped in :class:`Limited` also
    declares the values it admits.
    """

    run: Callable[[dict, np.random.Generator, Tally], tuple[dict, dict | None]]
    help: str
    parameters: dict
    tolerances: dict[str, float]


# The catalog manifolds with a Gaussian-family kernel and an analytic metric.
_METRIC_MANIFOLDS = ["euclidean3", "minkowski31", "sphere2", "flat_torus2", "de_sitter2"]

EXPERIMENTS = {
    "norm-convergence": Experiment(
        run_norm_convergence,
        "Norm of the unit-L2 Gaussian vs kernel scale, against the closed "
        "form and the quadrature oracle.",
        {"scales": _nonempty([_positive(1.0), 2.0, 5.0, 10.0, 20.0]),
         "dims": _nonempty([_at_least(1, 1), 3]),
         "quad_radius": _positive(8.0)},
        {"closed_form_deviation": 1e-10, "quadrature_relative_deviation": 1e-6,
         "monotonicity_violations": 0.0}),
    "metric-recovery": Experiment(
        run_metric_recovery,
        "Induced metric from kernel derivatives vs the analytic pullback "
        "on the manifold catalog.",
        {"manifolds": _nonempty(_names_from(_METRIC_MANIFOLDS, _METRIC_MANIFOLDS)),
         "points_per_manifold": _at_least(1, 25), "step": 1e-4,
         "ratio_steps": Limited([2e-2, 1e-2], lambda v: len(v) == 2, "a list of 2 steps")},
        {"metric_relative_deviation": 1e-6, "signature_violations": 0.0,
         "step_halving_ratio_error": 1.0}),
    "gram-invariance": Experiment(
        run_gram_invariance,
        "Invariance of the indefinite Gram matrix under random Poincare "
        "elements, with span-operator commutativity checks.",
        {"group_samples": _at_least(1, 100), "point_count": _at_least(1, 10),
         "max_rapidity": 2.0, "point_scale": 0.5,
         # A third of the commutativity samples goes to each group kind.
         "commutativity_samples": _at_least(3, 1000), "extra_elements": []},
        {"gram_deviation": 1e-11, "control_margin": 0.0, "commutativity_deviation": 0.0,
         "composition_deviation": 1e-12}),
    "slice-dynamics": Experiment(
        run_slice_dynamics,
        "Schroedinger recovery on time slices: residuals, velocity "
        "orthogonality, superposition and Galileo transport.",
        {"tau_grid": [0.1, 2.0, 10],
         "packet": {"a0": 0.8, "q0": 0.3, "p0": 1.2},
         # The oscillator family is the harmonic oscillator's coherent state.
         "hamiltonian": {"kind": _names_from(["harmonic"], "harmonic"), "mass": 1.0,
                         "frequency": 1.3},
         "oscillator": {"q0": 0.7, "p0": -0.5},
         "metrics": _nonempty(_names_from(SLICE_METRICS, list(SLICE_METRICS))),
         "perturbation": 0.01, "galileo_samples": _at_least(1, 10)},
        {"residual_true": 1e-10, "residual_control_margin": 0.0, "fd_oracle_residual": 1e-6,
         "orthogonality": 1e-8, "superposition_deviation": 1e-12,
         "galileo_norm_deviation": 1e-12}),
    "circle-topology": Experiment(
        run_circle_topology,
        "Circle recovery from the periodic Sobolev kernel: wraparound, "
        "monotone distances, coth cross-check.",
        {"truncation": _at_least(1, 2000), "coth_truncation": 400000,
         "separation_count": _at_least(1, 12)},
        {"wraparound_distance": 1e-10, "monotonicity_violations": 0.0,
         "coth_deviation": 1e-6}),
    "oracle-check": Experiment(
        run_oracle_check,
        "Closed form vs quadrature on random pairs, divergence trigger "
        "fidelity, and Krein sign structure.",
        {"pair_count": _at_least(1, 20), "boundary_cases": _at_least(1, 50),
         "parity_samples": _at_least(1, 200),
         "quad_nodes_1d": _at_least(3, 96), "quad_nodes_2d": _at_least(3, 48),
         "quad_radius": _positive(8.0)},
        {"oracle_relative_deviation": 1e-6, "divergence_mismatches": 0.0,
         "parity_sign_violations": 0.0, "parity_cross_term": 1e-12,
         "toy_value_deviation": 1e-9}),
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run one experiment from a seeded generator; write its tables, elements and report."""
    t0 = time.perf_counter()
    tally = Tally()
    tables, elements = EXPERIMENTS[cfg.name].run(
        cfg.parameters, np.random.default_rng(cfg.seed), tally)
    if set(tally.values) != set(cfg.tolerances):
        raise RuntimeError(f"{cfg.name} measured {sorted(tally.values)}, "
                           f"but its tolerances are {sorted(cfg.tolerances)}")
    csvs = []
    for stem, (header, rows) in tables.items():
        csvs += _emit(cfg, stem, header, rows)
    if elements is not None:
        _dump_elements(cfg, cfg.name.replace("-", "_"), elements)
    measurements = [Measurement(name, tally.values[name], tol)
                    for name, tol in cfg.tolerances.items()]
    report = ExperimentReport(cfg.name, cfg.seed, measurements,
                              time.perf_counter() - t0, csv_files=csvs)
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
            value = math.nan if m["value"] is None else m["value"]  # a NaN is written as null
            lines.append(f"| {m['name']} | {value:.6e} | {m['tolerance']:.6e} | {status} |")
        sections.append("\n".join(lines))
    header = [
        f"# Experiment report - overall {'PASS' if overall else 'FAIL'}",
        "",
        f"{len(paths)} experiment(s) aggregated from {results_dir}.",
        "",
    ]
    return "\n".join(header) + "\n\n".join(sections) + "\n"
