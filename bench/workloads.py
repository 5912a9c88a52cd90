"""The three workloads: seeded library cases plus default-config experiments.

A case is one public call into kreingeo and its check.  The seed draws
the numbers (coefficients, quadratic forms, points, group elements); the
shape of every case (dimension, term counts, jet orders, point counts) is
fixed by the tables below, so each seed asks for the same amount of work.
The references a check compares against are computed once, outside the
timed loop, mostly by the closed forms in ``reference``.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref

# Closed form against closed form: the library agrees with the reference
# to about 1e-15 of the summed pair magnitudes.
RTOL = 1e-10
# Quadrature against closed form, the tolerance of the oracle-check experiment.
QUAD_RTOL = 1e-6
# Induced metric by finite differences with step 1e-4, as in metric-recovery.
METRIC_RTOL = 1e-6
GRAM_INVARIANCE_TOL = 1e-11
SPAN_TOL = 1e-12


@dataclass
class Case:
    """One timed operation: ``check(call(), expected)`` with ``expected = reference()``."""

    kind: str
    call: Callable[[], Any]
    check: Callable[[Any, Any], bool]
    reference: Callable[[], Any] = lambda: None
    expected: Any = None


def _close(got, want, scale: float, rtol: float = RTOL) -> bool:
    return bool(abs(got - want) <= rtol * scale)


def _cnormal(rng, size=None):
    return rng.normal(size=size) + 1j * rng.normal(size=size)


# ---------------------------------------------------------------------------
# element generation

def _gauss_terms(rng, count: int, signs, poly_shift: int = 0) -> list:
    """Separable terms; negative-signature axes get Re(a) >= 2.5 so that pairs converge."""
    terms = []
    for j in range(count):
        a = np.where(signs > 0, rng.uniform(0.8, 2.0, len(signs)),
                     rng.uniform(2.5, 4.0, len(signs))) + 1j * rng.uniform(-0.4, 0.4, len(signs))
        b = 0.4 * _cnormal(rng, len(signs))
        k = tuple(int((i + j + poly_shift) % 3 == 0) for i in range(len(signs)))
        terms.append((complex(_cnormal(rng)), a, b, k))
    return terms


def _jet_orders(j: int, dim: int) -> tuple:
    patterns = [(0,), (1,), (2,), (1, 1) if dim > 1 else (1,)]
    orders = patterns[j % len(patterns)]
    return tuple(orders) + (0,) * (dim - len(orders))


def _jet_terms(rng, count: int, dim: int, zero_order: bool = False) -> list:
    return [(complex(_cnormal(rng)), rng.normal(scale=0.5, size=dim),
             (0,) * dim if zero_order else _jet_orders(j, dim)) for j in range(count)]


def _element(kg, dim: int, gauss=(), jets=(), off_diagonal=None):
    """Library element from reference terms, optionally with off-diagonal quadratic forms."""
    gaussians = []
    for j, (c, a, b, k) in enumerate(gauss):
        quad = np.diag(a)
        if off_diagonal is not None:
            quad = quad + off_diagonal[j]
        gaussians.append(kg.GaussianTerm(c, quad, b, k))
    deltas = [kg.DeltaJetTerm(c, base, orders) for c, base, orders in jets]
    return kg.SpaceElement(dim, tuple(gaussians), tuple(deltas))


def _off_diagonal(rng, count: int, dim: int) -> list:
    forms = []
    for _ in range(count):
        m = 0.1 * (rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim)))
        m = np.triu(m, 1)
        forms.append(m + m.T)
    return forms


# ---------------------------------------------------------------------------
# pair-algebra

PAIR_SIGNATURES = ((1, 0), (2, 0), (3, 0), (4, 0), (3, 1))
GG_SIZES = ((1, 1), (2, 3), (4, 4))
NORM_SIZES = (1, 5, 15)
JET_SIZES = ((1, 1), (2, 3))
DD_SIZES = ((1, 1), (5, 5))
PARITY_CASES = 4


def _mixture_case(kg, kind, spec, signs, left, right, norm=False) -> Case:
    (g1, j1), (g2, j2) = left, right
    dim = len(signs)
    e1 = _element(kg, dim, g1, j1)
    e2 = _element(kg, dim, g2, j2)
    if norm:
        call = lambda: kg.norm_squared(e1, spec)  # noqa: E731
    else:
        call = lambda: kg.inner_product(e1, e2, spec)  # noqa: E731
    return Case(kind, call,
                lambda got, want: _close(got, want[0], want[1]),
                lambda: ref.mixture_inner(g1, j1, g2, j2, signs))


def _term_pair_scale(kg, e1, e2, spec) -> float:
    """Sum of |(t1, t2)| over single-term pieces; the error scale of (e1, e2)."""
    def pieces(e):
        return ([kg.SpaceElement(e.dim, (t,)) for t in e.gaussians]
                + [kg.SpaceElement(e.dim, (), (t,)) for t in e.deltas])
    return sum(abs(kg.inner_product(a, b, spec)) for a in pieces(e1) for b in pieces(e2))


def _property_cases(kg, rng, spec, signs) -> list:
    """Conjugate symmetry and sesquilinearity on non-separable mixtures with jets."""
    dim = len(signs)

    def mixed(n_gauss, n_jets, zero_order=False):
        return _element(kg, dim, _gauss_terms(rng, n_gauss, signs), _jet_terms(rng, n_jets, dim, zero_order),
                        off_diagonal=_off_diagonal(rng, n_gauss, dim))

    f, g, h = mixed(3, 2), mixed(2, 1), mixed(2, 1, zero_order=True)
    alpha, beta = complex(_cnormal(rng)), complex(_cnormal(rng))
    combo = f * alpha + h * beta
    def scale():
        return (_term_pair_scale(kg, f, g, spec) * (1 + abs(alpha))
                + _term_pair_scale(kg, h, g, spec) * abs(beta))

    def symmetric(got, s):
        return _close(got[0], np.conj(got[1]), s)

    def sesquilinear(got, s):
        fg, hg, combo_g, f_ag = got
        return (_close(combo_g, alpha * fg + beta * hg, s)
                and _close(f_ag, np.conj(alpha) * fg, s))

    return [
        Case("conjugate-symmetry",
             lambda: (kg.inner_product(f, g, spec), kg.inner_product(g, f, spec)), symmetric, scale),
        Case("sesquilinearity",
             lambda: (kg.inner_product(f, g, spec), kg.inner_product(h, g, spec),
                      kg.inner_product(combo, g, spec), kg.inner_product(f, g * alpha, spec)),
             sesquilinear, scale),
    ]


def _parity_cases(kg, rng, count: int) -> list:
    """Krein parity on the time toy (signature (0, 1)): even > 0, odd < 0, even _|_ odd."""
    toy = kg.KernelSpec.gaussian(0, 1)
    signs = np.array([-1.0])
    cases = []
    for _ in range(count):
        base = []
        for _ in range(2):
            a = np.array([rng.uniform(2.4, 5.0) + 1j * rng.uniform(-0.8, 0.8)])
            b = np.array([rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0]) + 1j * rng.normal(scale=0.5)])
            base.append((complex(_cnormal(rng)), a, b, (0,)))
        mirrored = [(c, a, -b, k) for c, a, b, k in base]
        even_terms = base + mirrored
        odd_terms = base + [(-c, a, b, k) for c, a, b, k in mirrored]
        even = _element(kg, 1, even_terms)
        odd = _element(kg, 1, odd_terms)

        def signed(sign, terms):
            def check(got, want):
                return sign * got > 0 and _close(got, want[0], want[1])
            return check, (lambda: ref.mixture_inner(terms, [], terms, [], signs))

        check, expect = signed(1.0, even_terms)
        cases.append(Case("parity-even", lambda e=even: kg.norm_squared(e, toy), check, expect))
        check, expect = signed(-1.0, odd_terms)
        cases.append(Case("parity-odd", lambda e=odd: kg.norm_squared(e, toy), check, expect))
        cases.append(Case("parity-cross", lambda e=even, o=odd: kg.inner_product(e, o, toy),
                          lambda got, want: _close(got, 0.0, want[1]),
                          lambda t1=even_terms, t2=odd_terms: ref.mixture_inner(t1, [], t2, [], signs)))
    even_toy = kg.SpaceElement.gaussian([[4.0]])
    odd_toy = kg.SpaceElement.gaussian([[4.0]], poly=(1,))
    cases.append(Case("toy-values",
                      lambda: (kg.norm_squared(even_toy, toy), kg.norm_squared(odd_toy, toy)),
                      lambda got, _: (_close(got[0], ref.TOY_EVEN_NORM, 10.0)
                                      and _close(got[1], ref.TOY_ODD_NORM, 10.0))))
    return cases


def build_pair_algebra(kg, rng, tiny: bool) -> list:
    cases = []
    for pos, neg in PAIR_SIGNATURES[:2] if tiny else PAIR_SIGNATURES:
        spec = kg.KernelSpec.gaussian(pos, neg)
        signs = spec.signature.signs()
        dim = pos + neg
        for n1, n2 in GG_SIZES[:1] if tiny else GG_SIZES:
            cases.append(_mixture_case(kg, "gauss-gauss", spec, signs,
                                       (_gauss_terms(rng, n1, signs), []),
                                       (_gauss_terms(rng, n2, signs, 1), [])))
        for n in NORM_SIZES[:2] if tiny else NORM_SIZES:
            terms = _gauss_terms(rng, n, signs)
            cases.append(_mixture_case(kg, "norm", spec, signs, (terms, []), (terms, []), norm=True))
        for m, n in JET_SIZES[:1] if tiny else JET_SIZES:
            jets, gauss = _jet_terms(rng, m, dim), _gauss_terms(rng, n, signs)
            cases.append(_mixture_case(kg, "jet-gauss", spec, signs, ([], jets), (gauss, [])))
            cases.append(_mixture_case(kg, "gauss-jet", spec, signs, (gauss, []), ([], jets)))
        for m, n in DD_SIZES:
            cases.append(_mixture_case(kg, "delta-delta", spec, signs,
                                       ([], _jet_terms(rng, m, dim, zero_order=True)),
                                       ([], _jet_terms(rng, n, dim, zero_order=True))))
        cases += _property_cases(kg, rng, spec, signs)
    return cases + _parity_cases(kg, rng, 1 if tiny else PARITY_CASES)


# ---------------------------------------------------------------------------
# oracle

# Case counts put the median inside the band of 1-d quadrature cases and the
# 90th percentile inside the band of 2-d direct-grid cases.
QUAD_CASES = (  # (dimension, node count or None for the default grid, separable, count)
    (1, 96, True, 10),
    (2, 48, False, 3),
    (2, 48, True, 4),
    (3, None, True, 4),
)
NORM_CONVERGENCE_DIMS = (1, 2, 3)
NORM_CONVERGENCE_PER_DIM = 2
TOY_CASES = 3
QUAD_RADIUS = 8.0


def _quadrature_case(kg, rng, dim: int, nodes, separable: bool) -> Case:
    spec = kg.KernelSpec.gaussian(dim, 0)
    signs = spec.signature.signs()
    g1, g2 = _gauss_terms(rng, 2, signs), _gauss_terms(rng, 1 + dim % 2, signs, 1)
    off = None if separable else [_off_diagonal(rng, len(g), dim) for g in (g1, g2)]
    e1 = _element(kg, dim, g1, off_diagonal=off and off[0])
    e2 = _element(kg, dim, g2, off_diagonal=off and off[1])
    grid = kg.QuadratureGrid(nodes, QUAD_RADIUS) if nodes else None

    def call():
        return kg.quadrature_inner_product(e1, e2, spec, grid), kg.inner_product(e1, e2, spec)

    if separable:
        def expect():
            return ref.mixture_inner(g1, [], g2, [], signs)

        def check(got, want):
            return (_close(got[1], want[0], want[1])
                    and _close(got[0], got[1], want[1], QUAD_RTOL))
    else:
        def expect():
            # Cauchy-Schwarz bound of |(e1, e2)| under the positive kernel.
            return math.sqrt(kg.norm_squared(e1, spec) * kg.norm_squared(e2, spec))

        def check(got, scale):
            return _close(got[0], got[1], scale, QUAD_RTOL)

    kind = f"quadrature-{dim}d" + ("" if separable else "-coupled")
    return Case(kind, call, check, expect)


def _expect_divergent(kg, e, spec) -> bool:
    try:
        kg.norm_squared(e, spec)
    except kg.DivergentNormError:
        return True
    return False


def build_oracle(kg, rng, tiny: bool) -> list:
    cases = []
    for dim, nodes, separable, count in QUAD_CASES:
        for _ in range(1 if tiny else count):
            cases.append(_quadrature_case(kg, rng, dim, nodes, separable))
    for dim in NORM_CONVERGENCE_DIMS:
        f = kg.SpaceElement.gaussian(np.eye(dim), coeff=math.pi ** (-0.25 * dim))
        for _ in range(1 if tiny else NORM_CONVERGENCE_PER_DIM):
            scale = float(rng.uniform(0.5, 20.0))
            spec = kg.KernelSpec.gaussian(dim, 0, scale=scale, normalized=True)
            cases.append(Case("norm-convergence", lambda f=f, spec=spec: kg.norm_squared(f, spec),
                              lambda got, want: _close(got, want, 1.0),
                              lambda s=scale, d=dim: ref.normalized_gaussian_norm(s, d)))
    # Time toy, kernel exp(+t^2/2): a one-term norm converges iff Re(a) > 2.
    toy = kg.KernelSpec.gaussian(0, 1)
    signs = np.array([-1.0])
    for _ in range(1 if tiny else TOY_CASES):
        a = complex(rng.uniform(0.3, 1.9), rng.uniform(-0.5, 0.5))
        e = kg.SpaceElement.gaussian([[a]], lin=[rng.normal(scale=0.3)])
        cases.append(Case("divergent", lambda e=e: _expect_divergent(kg, e, toy),
                          lambda got, _: got is True))
        terms = [(1.0, np.array([complex(rng.uniform(2.2, 6.0), rng.uniform(-0.5, 0.5))]),
                  np.array([complex(rng.normal(scale=0.3))]), (0,))]
        cases.append(_mixture_case(kg, "toy-norm", toy, signs, (terms, []), (terms, []), norm=True))
    return cases


# ---------------------------------------------------------------------------
# kernel-geometry

# Case counts put the median inside the band of induced metrics on the 2-d
# manifolds and the 90th percentile inside the band of N=1000 Gram matrices.
GRAM_SIZES = (200, 500, 1000, 1000, 2000)
GRAM_SAMPLED_ENTRIES = 64
SOBOLEV_SIZE, SOBOLEV_TRUNCATION, SOBOLEV_CASES = 100, 2000, 2
INVARIANCE_SIZES = (10, 15, 20)
METRIC_POINTS = {"euclidean3": 2, "minkowski31": 2, "sphere2": 6, "flat_torus2": 6, "de_sitter2": 6}
SPAN_POINTS = 20


def _random_lorentz(rng, max_rapidity: float = 2.0):
    axis = rng.normal(size=3)
    direction = rng.normal(size=3)
    speed = math.tanh(rng.uniform(0.05, max_rapidity))
    return ref.lorentz(axis, rng.uniform(0.0, 2.0 * math.pi), speed * direction / np.linalg.norm(direction))


def _gram_case(kg, rng, n: int) -> Case:
    spec = kg.KernelSpec.gaussian(3, 1)
    signs = spec.signature.signs()
    pts = rng.normal(scale=0.5, size=(n, 4))
    idx = rng.integers(0, n, size=(GRAM_SAMPLED_ENTRIES, 2))
    idx[0] = (0, 0)

    def expect():
        return np.array([ref.kernel(pts[i], pts[j], signs) for i, j in idx])

    def check(got, want):
        sampled = got[idx[:, 0], idx[:, 1]]
        mirrored = got[idx[:, 1], idx[:, 0]]
        return (got.shape == (n, n)
                and bool(np.all(np.abs(sampled - want) <= RTOL * np.maximum(1.0, np.abs(want))))
                and bool(np.all(sampled == mirrored)))

    return Case("gram", lambda: kg.gram_matrix(pts, spec), check, expect)


def _sobolev_case(kg, rng, n: int, truncation: int) -> Case:
    spec = kg.KernelSpec.periodic_sobolev(truncation)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)

    def check(got, want):
        # The dropped tail of the series is below 1/(pi T) in absolute value.
        return got.shape == (n, n) and bool(np.max(np.abs(got - want)) <= 1.0 / (math.pi * truncation))

    return Case("sobolev-gram", lambda: kg.gram_matrix(theta[:, None], spec), check,
                lambda: ref.sobolev_kernel(theta[:, None] - theta[None, :]))


def _invariance_case(kg, rng, n: int) -> Case:
    spec = kg.KernelSpec.gaussian(3, 1)
    signs = spec.signature.signs()
    pts = rng.normal(scale=0.5, size=(n, 4))
    g = kg.PoincareElement(_random_lorentz(rng), rng.normal(size=4))

    def scale():
        return max(1.0, max(ref.kernel(p, q, signs) for p in pts for q in pts))

    return Case("gram-invariance", lambda: kg.check_gram_invariance(g, pts, spec),
                lambda got, s: 0.0 <= got <= GRAM_INVARIANCE_TOL * s, scale)


def _metric_case(kg, rng, entry) -> Case:
    pk = kg.PulledBackKernel(entry.embedding, entry.spec)
    lo = np.array([d[0] for d in entry.embedding.domain])
    hi = np.array([d[1] for d in entry.embedding.domain])
    u = rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo))

    def check(got, want):
        scale = max(1.0, float(np.max(np.abs(want))))
        return bool(np.max(np.abs(got.components - want)) <= METRIC_RTOL * scale)

    return Case("induced-metric", lambda: kg.induced_metric(pk, u), check,
                lambda: ref.pullback_metric(entry.name, u))


def _delta_span(kg, rng, pts):
    coeffs = _cnormal(rng, len(pts))
    return coeffs, kg.SpaceElement(pts.shape[1], (), tuple(
        kg.DeltaJetTerm(c, p) for c, p in zip(coeffs, pts)))


def _images_match(image, coeffs, targets) -> bool:
    bases = np.array([t.base for t in image.deltas])
    got = np.array([t.coeff for t in image.deltas])
    return (bases.shape == targets.shape
            and bool(np.max(np.abs(bases - targets)) <= SPAN_TOL * max(1.0, float(np.max(np.abs(targets)))))
            and bool(np.max(np.abs(got - coeffs)) <= SPAN_TOL * float(np.max(np.abs(coeffs)))))


def _span_cases(kg, rng, n: int, diffeo) -> list:
    """extend_to_span / act_on_element under Poincare, Galileo and diffeomorphism maps."""
    L, shift = _random_lorentz(rng), rng.normal(size=4)
    A, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    v, b, c = rng.normal(scale=0.7, size=3), rng.normal(size=3), float(rng.normal(scale=0.8))
    maps = (
        ("poincare", kg.PoincareElement(L, shift), rng.normal(scale=0.8, size=(n, 4)),
         lambda x: L @ x + shift),
        ("galileo", kg.GalileoElement(A, v, b, c), rng.normal(scale=0.8, size=(n, 4)),
         lambda x: ref.galileo_point(A, v, b, c, x)),
        ("diffeo", diffeo, rng.uniform(-0.95, 0.95, size=(n, 2)), ref.diffeo_point),
    )
    cases = []
    for name, g, pts, point_map in maps:
        coeffs, e = _delta_span(kg, rng, pts)

        def extend(g=g, pts=pts, e=e):
            op = kg.extend_to_span(g, pts)
            return op, kg.act_on_element(op, e)

        def expect(pts=pts, point_map=point_map):
            return np.array([point_map(p) for p in pts])

        def check_extend(got, targets, coeffs=coeffs):
            op, image = got
            return (bool(np.max(np.abs(op.targets - targets)) <= SPAN_TOL * max(1.0, float(np.max(np.abs(targets)))))
                    and _images_match(image, coeffs, targets))

        cases.append(Case(f"span-{name}", extend, check_extend, expect))
        cases.append(Case(f"act-{name}", lambda g=g, e=e: kg.act_on_element(g, e),
                          lambda got, targets, coeffs=coeffs: _images_match(got, coeffs, targets), expect))
    return cases


def build_kernel_geometry(kg, rng, tiny: bool) -> list:
    cases = [_gram_case(kg, rng, n // 20 if tiny else n) for n in GRAM_SIZES]
    cases += [_sobolev_case(kg, rng, 10 if tiny else SOBOLEV_SIZE, 200 if tiny else SOBOLEV_TRUNCATION)
              for _ in range(1 if tiny else SOBOLEV_CASES)]
    cases += [_invariance_case(kg, rng, n) for n in INVARIANCE_SIZES]
    for name, points in METRIC_POINTS.items():
        entry = kg.builtin(name)
        cases += [_metric_case(kg, rng, entry) for _ in range(1 if tiny else points)]
    diffeo = kg.DiffeoMap.from_strings(list(ref.DIFFEO_MAPS), [(-1.0, 1.0), (-1.0, 1.0)])
    cases += _span_cases(kg, rng, 4 if tiny else SPAN_POINTS, diffeo)
    return cases


# ---------------------------------------------------------------------------
# experiments

def _rows(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _check_norm_convergence(out: Path, cfg) -> bool:
    rows = _rows(out / "norm_convergence.csv")
    expected = len(cfg.parameters["scales"]) * len(cfg.parameters["dims"])
    return len(rows) == expected and all(
        abs(float(r["norm_squared"]) - ref.normalized_gaussian_norm(float(r["scale"]), int(r["dim"]))) <= 1e-10
        for r in rows)


def _check_circle_topology(out: Path, cfg) -> bool:
    rows = _rows(out / "circle_topology.csv")
    bound = 1.0 / (math.pi * int(cfg.parameters["truncation"]))
    return len(rows) == int(cfg.parameters["separation_count"]) and all(
        abs(float(r["kernel_value"]) - float(ref.sobolev_kernel(float(r["separation"])))) <= bound
        for r in rows)


EXPERIMENT_CHECKS: dict[str, Callable[[Path, Any], bool]] = {
    "norm-convergence": _check_norm_convergence,
    "circle-topology": _check_circle_topology,
}

# Parameter overrides for the self-check; the benchmark itself runs defaults.
TINY_PARAMETERS = {
    "oracle-check": {"pair_count": 2, "boundary_cases": 4, "parity_samples": 4},
    "norm-convergence": {"scales": [1.0, 2.0], "dims": [1]},
    "slice-dynamics": {"tau_grid": [0.1, 2.0, 3], "galileo_samples": 2},
    "gram-invariance": {"group_samples": 5, "commutativity_samples": 30},
    "metric-recovery": {"points_per_manifold": 2},
    "circle-topology": {},
}


@dataclass(frozen=True)
class Workload:
    name: str
    experiments: tuple[str, ...]
    rounds_per_pass: int  # case rounds run after each pass of the experiments
    build: Callable[[Any, np.random.Generator, bool], list]


WORKLOADS = {w.name: w for w in (
    Workload("oracle", ("oracle-check", "norm-convergence"), 2, build_oracle),
    Workload("pair-algebra", ("slice-dynamics",), 3, build_pair_algebra),
    Workload("kernel-geometry", ("gram-invariance", "metric-recovery", "circle-topology"), 1,
             build_kernel_geometry),
)}
