"""Time-sliced subspaces and recovery of Schroedinger dynamics.

Slice elements  sum_m psi_m(x) * delta^(m)(t - tau)  pair through any of the
three space-time metrics by differentiating the kernel's time factor at
coincidence:

    <psi1 d^(m1), psi2 d^(m2)> = (-1)^(m1+m2) kappa^(m1,m2)(tau, tau)
                                 * (psi1, psi2)_spatial,

where kappa is exp(+(t-s)^2/2) for the indefinite metric, exp(-(t-s)^2/2)
for the positive space-time metric, and exp(+(t+s-2 tau)^2/2), the
co-moving shift of the latter, for the H_T metric.  Each is exp(+-y^2/2) in
one variable y that vanishes at coincidence, and d^n/dy^n exp(+-y^2/2) at
y = 0 is (+-1)^(n/2) (n-1)!! for even n and 0 for odd n.  With n = m1 + m2
and d/ds = -d/dy for y = t - s, kappa^(m1,m2) is 0 for odd n and, for even n,

    H_eta:   (-1)^m2 (n-1)!!,   H_tilde: (-1)^(m2+n/2) (n-1)!!,   H_T: (n-1)!!,

at every slice time.  All three factors are critical at coincidence, which
is what makes the two components of the path velocity orthogonal.

The spatial value (psi1, psi2) does not depend on the metric, so a batch of
slice pairs (slice_inner_products; slice_inner_product is a batch of one) is
one spatial pass: each jet pair with even m1 + m2 is one pair of a single
algebra.inner_products call, and kappa is applied per metric.

Analytic solution families (free packets, harmonic coherent states) are
single complex-Gaussian terms with closed-form coefficient trajectories,
so slice elements, Hamiltonian applications and residuals stay exact.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import inner_products, real_norm_squared
from .elements import SpaceElement
from .groups import GalileoElement
from .kernels import KernelSpec

SLICE_METRICS = ("H_eta", "H_tilde", "H_T")

MAX_TIME_JET_ORDER = 2


def spatial_spec(space_dim: int) -> KernelSpec:
    """The positive spatial kernel shared by all slice inner products."""
    return KernelSpec.gaussian(space_dim, 0)


@dataclass(frozen=True)
class TimeSlicedElement:
    """sum_m psi_m(x) * delta^(m)(t - slice_time), spatial parts in the
    Gaussian-jet family."""

    slice_time: float
    jets: tuple[tuple[SpaceElement, int], ...]
    space_dim: int

    def __post_init__(self):
        object.__setattr__(self, "slice_time", float(self.slice_time))
        jets = tuple((psi, int(m)) for psi, m in self.jets)
        for psi, m in jets:
            if psi.dim != self.space_dim:
                raise ValueError("spatial parts must live on the spatial dimension")
            if not 0 <= m <= MAX_TIME_JET_ORDER:
                raise ValueError(f"time-jet order must lie in 0..{MAX_TIME_JET_ORDER}")
        object.__setattr__(self, "jets", jets)

    @classmethod
    def order_zero(cls, psi: SpaceElement, tau: float) -> "TimeSlicedElement":
        return cls(tau, ((psi, 0),), psi.dim)

    def __add__(self, other: "TimeSlicedElement") -> "TimeSlicedElement":
        if not isinstance(other, TimeSlicedElement):
            return NotImplemented
        _check_same_slice(self, other)
        return TimeSlicedElement(self.slice_time, self.jets + other.jets, self.space_dim)

    def __mul__(self, scalar) -> "TimeSlicedElement":
        return TimeSlicedElement(self.slice_time,
                                 tuple((psi * scalar, m) for psi, m in self.jets),
                                 self.space_dim)

    __rmul__ = __mul__

    def max_order(self) -> int:
        return max((m for _, m in self.jets), default=0)


def _check_same_slice(s1: TimeSlicedElement, s2: TimeSlicedElement):
    if s1.space_dim != s2.space_dim:
        raise ValueError("slice elements live over different spatial dimensions")
    if abs(s1.slice_time - s2.slice_time) > 1e-12:
        raise ValueError(
            f"slice times {s1.slice_time} and {s2.slice_time} differ; "
            "the elements belong to different subspaces")


def _check_metric(kind: str):
    if kind not in SLICE_METRICS:
        raise ValueError(f"unknown slice metric {kind!r}; choose from {SLICE_METRICS}")


def time_factor_derivative(kind: str, m1: int, m2: int, tau: float) -> float:
    """d^m1/dt d^m2/ds of the time factor at coincidence t = s = tau.

    The closed form of the module docstring; it does not depend on ``tau``.
    """
    _check_metric(kind)
    n = m1 + m2
    if n % 2:
        return 0.0
    flips = {"H_eta": m2, "H_tilde": m2 + n // 2, "H_T": 0}[kind]
    return float((-1) ** flips * math.prod(range(n - 1, 0, -2)))


def slice_inner_products(pairs, metrics=SLICE_METRICS) -> np.ndarray:
    """Inner products of same-slice pairs (s1, s2) under each of ``metrics``, shape (len(pairs), len(metrics)).

    Each pair of jets with a nonzero time factor (the same for every metric) is one spatial pair of a
    single inner_products call; each metric weighs it by (-1)^(m1+m2) kappa^(m1,m2) and sums in the
    order of a loop over the jets.  Metrics and slice times are checked before any pair integral.  The
    spatial kernel is that of the first pair's dimension, so inner_products rejects a spatial pair of another.
    """
    pairs, metrics = list(pairs), tuple(metrics)
    for metric in metrics:  # also when no slice has jets, so nothing is paired
        _check_metric(metric)
    spatial, weighted = [], []
    for s1, s2 in pairs:
        _check_same_slice(s1, s2)
        weighted.append([])
        for psi1, m1 in s1.jets:
            for psi2, m2 in s2.jets:
                kappas = [time_factor_derivative(m, m1, m2, s1.slice_time) for m in metrics]
                if any(kappas):
                    weighted[-1].append((len(spatial), (-1.0) ** (m1 + m2) * np.array(kappas)))
                    spatial.append((psi1, psi2))
    values = inner_products(spatial, spatial_spec(pairs[0][0].space_dim)) if spatial else []
    totals = np.zeros((len(pairs), len(metrics)), dtype=complex)
    for row, terms in zip(totals, weighted):
        for k, weights in terms:
            row += weights * values[k]
    return totals


def slice_inner_product(s1: TimeSlicedElement, s2: TimeSlicedElement,
                        metric: str = "H_eta") -> complex:
    """Inner product of two same-slice elements under a space-time metric.

    For order-zero jets every metric collapses to the spatial inner product
    at the slice time, since each time factor equals one at coincidence.
    """
    return complex(slice_inner_products([(s1, s2)], (metric,))[0, 0])


def slice_norm_squared(s: TimeSlicedElement, metric: str = "H_eta") -> float:
    return real_norm_squared(slice_inner_product(s, s, metric))


def orthogonality_check(c1: TimeSlicedElement, c2: TimeSlicedElement,
                        metrics=SLICE_METRICS) -> list[complex]:
    """Inner products of two slice elements under each requested metric."""
    return slice_inner_products([(c1, c2)], metrics)[0].tolist()


@dataclass(frozen=True)
class HamiltonianSpec:
    """h = -(1/2m) Laplacian + V with V at most quadratic (Gaussian closure)."""

    kind: str = "free"
    mass: float = 1.0
    frequency: float = 0.0
    offset: float = 0.0

    def __post_init__(self):
        if self.kind not in ("free", "harmonic"):
            raise ValueError("Hamiltonian kind must be 'free' or 'harmonic'")
        if not 0 < self.mass < math.inf:
            raise ValueError("mass must be positive and finite")
        if not 0 <= self.frequency < math.inf:
            raise ValueError("frequency must be nonnegative and finite")
        if self.kind == "free" and self.frequency != 0:
            raise ValueError("a free Hamiltonian has no frequency")

    def apply(self, psi: SpaceElement) -> SpaceElement:
        """h psi within the Gaussian-jet family, as one element of scaled siblings of psi's terms."""
        parts = [(psi.derivative(axis).derivative(axis), -0.5 / self.mass) for axis in range(psi.dim)]
        if self.kind == "harmonic" and self.frequency > 0.0:
            factor = 0.5 * self.mass * self.frequency ** 2
            parts += [(psi.mul_coord(axis).mul_coord(axis), factor) for axis in range(psi.dim)]
        if self.offset != 0.0:
            parts.append((psi, self.offset))
        return SpaceElement(psi.dim, tuple(t.scaled(complex(scalar)) for part, scalar in parts
                                           for t in part.gaussians))


@dataclass(frozen=True)
class EvolutionPath:
    """Closed-form Gaussian solution psi(x, t) with exact time jets.

    The wave function is exp(-a(t) |x|^2 / 2 + b(t).x + c(t)); the
    coefficient trajectories solve the Schroedinger equation for the
    matching Hamiltonian, so both psi and its time derivative are available
    as elements at any parameter value.
    """

    kind: str  # 'free' or 'coherent'
    mass: float
    frequency: float
    width: float
    center: np.ndarray
    momentum: np.ndarray
    space_dim: int

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        momentum = np.atleast_1d(np.asarray(self.momentum, dtype=float))
        if center.shape != (self.space_dim,) or momentum.shape != (self.space_dim,):
            raise ValueError("center and momentum must match the spatial dimension")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "momentum", momentum)

    # -- coefficient trajectories -------------------------------------------

    @functools.cached_property
    def _initial(self) -> tuple[float, np.ndarray, complex]:
        if self.kind == "free":
            a0 = 1.0 / (2.0 * self.width ** 2)
        else:
            a0 = self.mass * self.frequency
        b0 = a0 * self.center + 1j * self.momentum
        # Unit L2 norm at t = 0.
        re_b = b0.real
        c0 = -0.25 * self.space_dim * math.log(math.pi / a0) - (re_b @ re_b) / (2.0 * a0)
        return a0, b0, complex(c0)

    def coefficients(self, t: float) -> tuple[complex, np.ndarray, complex]:
        a0, b0, c0 = self._initial
        d = self.space_dim
        if self.kind == "free":
            D = 1.0 + 1j * a0 * t / self.mass
            a = a0 / D
            b = b0 / D
            c = c0 + (b0 @ b0) / (2.0 * a0) * (1.0 - 1.0 / D) - 0.5 * d * np.log(D)
        else:
            w = self.frequency
            phase = np.exp(-1j * w * t)
            a = complex(a0)
            b = b0 * phase
            c = c0 - (b0 @ b0) / (4.0 * self.mass * w) * (phase ** 2 - 1.0) \
                - 0.5j * d * w * t
        return complex(a), b, complex(c)

    def coefficient_rates(self, t: float) -> tuple[complex, np.ndarray, complex]:
        """Time derivatives (da/dt, db/dt, dc/dt) from the coefficient flow."""
        a, b, c = self.coefficients(t)
        m = self.mass
        if self.kind == "free":
            adot = -1j * a * a / m
            bdot = -1j * a * b / m
            cdot = 0.5j * ((b @ b) - self.space_dim * a) / m
        else:
            w = self.frequency
            adot = 0.0 + 0.0j
            bdot = -1j * w * b
            cdot = 0.5j * ((b @ b) - self.space_dim * self.mass * w) / m
        return complex(adot), bdot, complex(cdot)

    # -- elements --------------------------------------------------------------

    def psi(self, tau: float) -> SpaceElement:
        a, b, c = self.coefficients(tau)
        quad = a * np.eye(self.space_dim)
        return SpaceElement.gaussian(quad, lin=b, coeff=np.exp(c))

    def psi_t(self, tau: float) -> SpaceElement:
        """Exact time derivative (cdot + bdot.x - adot |x|^2 / 2) psi."""
        return self._jets(tau)[1]

    def _jets(self, tau: float) -> tuple[SpaceElement, SpaceElement]:
        """(psi, psi_t) at tau, psi_t made of siblings of psi's one term."""
        psi = self.psi(tau)
        adot, bdot, cdot = self.coefficient_rates(tau)
        terms = [cdot * psi]
        for axis in range(self.space_dim):
            x_psi = psi.mul_coord(axis)
            if bdot[axis] != 0:
                terms.append(bdot[axis] * x_psi)
            if adot != 0:
                terms.append((-0.5 * adot) * x_psi.mul_coord(axis))
        return psi, SpaceElement(psi.dim, tuple(t for e in terms for t in e.gaussians))

    def value(self, x, t) -> np.ndarray:
        """Pointwise psi(x, t); x is a scalar, vector, or array of points.

        t is a time or a 1-d array of times.  For an array the times are the
        leading axis, and each row equals the call at that one time: the
        coefficients are computed time by time and the exponent elementwise.
        """
        times = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        if self.space_dim == 1:
            pts = x.reshape(-1, 1)
            shape = x.shape
        else:
            pts = x.reshape(-1, self.space_dim)
            shape = x.shape[:-1]
        rows = [self.coefficients(float(s)) for s in times.reshape(-1)]
        a = np.array([-0.5 * row[0] for row in rows])[:, None]
        b = np.array([row[1] for row in rows]).reshape(-1, self.space_dim)
        c = np.array([row[2] for row in rows])[:, None]
        expo = a * np.sum(pts * pts, axis=1) + np.einsum("ni,ki->kn", pts, b) + c
        return np.exp(expo).reshape(times.shape + shape)

    def hamiltonian(self) -> HamiltonianSpec:
        if self.kind == "free":
            return HamiltonianSpec("free", self.mass)
        return HamiltonianSpec("harmonic", self.mass, self.frequency)

    def slice_element(self, tau: float) -> TimeSlicedElement:
        return TimeSlicedElement.order_zero(self.psi(tau), tau)


def free_packet(width: float, center=0.0, momentum=0.0, mass: float = 1.0,
                space_dim: int = 1) -> EvolutionPath:
    """Spreading Gaussian packet solving the free Schroedinger equation."""
    if width <= 0:
        raise ValueError("width must be positive")
    center = np.broadcast_to(np.atleast_1d(np.asarray(center, float)), (space_dim,))
    momentum = np.broadcast_to(np.atleast_1d(np.asarray(momentum, float)), (space_dim,))
    return EvolutionPath("free", mass, 0.0, float(width), center, momentum, space_dim)


def coherent_state(center=0.0, momentum=0.0, mass: float = 1.0,
                   frequency: float = 1.0, space_dim: int = 1) -> EvolutionPath:
    """Harmonic-oscillator coherent state (rigid Gaussian on a classical orbit)."""
    if frequency <= 0:
        raise ValueError("coherent states need a positive frequency")
    center = np.broadcast_to(np.atleast_1d(np.asarray(center, float)), (space_dim,))
    momentum = np.broadcast_to(np.atleast_1d(np.asarray(momentum, float)), (space_dim,))
    width = 1.0 / math.sqrt(2.0 * mass * frequency)
    return EvolutionPath("coherent", mass, frequency, width, center, momentum, space_dim)


@dataclass(frozen=True)
class PerturbedPath:
    """A deliberately off-shell deformation (1 + eps x1) psi of a solution."""

    base: EvolutionPath
    eps: float = 0.01

    def psi(self, tau: float) -> SpaceElement:
        return self._deform(self.base.psi(tau))

    def psi_t(self, tau: float) -> SpaceElement:
        return self._jets(tau)[1]

    def _jets(self, tau: float) -> tuple[SpaceElement, SpaceElement]:
        return tuple(map(self._deform, self.base._jets(tau)))

    def _deform(self, p: SpaceElement) -> SpaceElement:
        return p + self.eps * p.mul_coord(0)

    def value(self, x, t) -> np.ndarray:
        """Pointwise (1 + eps x1) psi(x, t), with times as in EvolutionPath.value."""
        x = np.asarray(x, dtype=float)
        x1 = x if self.space_dim == 1 else x[..., 0]
        return (1.0 + self.eps * x1) * self.base.value(x, t)

    @property
    def space_dim(self) -> int:
        return self.base.space_dim


def default_sample_grid(path, tau: float, points: int = 41) -> np.ndarray:
    """Spatial sample points covering the packet's support at time tau."""
    base = getattr(path, "base", path)
    spread = abs(tau) / (2.0 * base.width ** 2 * base.mass)
    width_t = base.width * math.sqrt(1.0 + spread * spread)
    center = base.center + base.momentum / base.mass * tau
    radius = 4.0 * width_t + float(np.max(np.abs(center)))
    if base.space_dim == 1:
        return np.linspace(-radius, radius, points)[:, None] + center
    axes = [np.linspace(-radius, radius, max(7, points // 6)) + c for c in center]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=-1)


def schrodinger_residual(path, h: HamiltonianSpec, taus, x_points=None) -> float:
    """Max of |d psi/dt + i h psi| over samples, relative to the local |psi|.

    Both sides come from the closed-form jets; a vanishing residual
    certifies that the sliced path solves the evolution equation with the
    given Hamiltonian.  At each tau, psi is built once and d psi/dt and
    h psi are made of siblings of its terms, so the residual's evaluation
    computes one exponential per form of psi.  An empty ``taus`` is a
    ValueError.
    """
    taus = np.atleast_1d(taus)
    if taus.size == 0:
        raise ValueError("taus must hold at least one time")
    worst = 0.0
    for tau in taus:
        tau = float(tau)
        pts = default_sample_grid(path, tau) if x_points is None else np.asarray(x_points)
        if pts.ndim == 1:
            pts = pts[:, None]
        psi, psi_t = path._jets(tau)
        res_vals = np.abs((psi_t + 1j * h.apply(psi)).evaluate(pts))
        psi_vals = np.abs(psi.evaluate(pts))
        floor = 1e-6 * float(psi_vals.max())
        worst = max(worst, float(np.max(res_vals / np.maximum(psi_vals, floor))))
    return worst


def pde_residual_fd(path, h: HamiltonianSpec, x_range=(-6.0, 6.0),
                    t_range=(0.0, 1.0), nx: int = 50, nt: int = 50,
                    step: float = 4e-4) -> float:
    """Independent oracle: finite-difference Schroedinger residual.

    Uses only pointwise values of psi on local stencils around an
    (x, t) grid; never touches the closed-form jets.  One spatial
    dimension.  The stencils are five ``path.value`` calls on the whole
    (nt, nx) grid, with the times as the leading axis.  ``nx`` and ``nt``
    must be at least 1.
    """
    base = getattr(path, "base", path)
    if base.space_dim != 1:
        raise ValueError("the finite-difference oracle is one-dimensional")
    for name, count in (("nx", nx), ("nt", nt)):
        if count < 1:
            raise ValueError(f"{name} must be at least 1, got {count}")
    xs = np.linspace(*x_range, nx)
    ts = np.linspace(*t_range, nt)
    psi0 = path.value(xs, ts)
    psi_t = (path.value(xs, ts + step) - path.value(xs, ts - step)) / (2.0 * step)
    psi_xx = (path.value(xs + step, ts) - 2.0 * psi0 + path.value(xs - step, ts)) / step ** 2
    potential = np.zeros_like(xs)
    if h.kind == "harmonic":
        potential = 0.5 * h.mass * h.frequency ** 2 * xs ** 2
    potential = potential + h.offset
    residual = 1j * psi_t + psi_xx / (2.0 * h.mass) - potential * psi0
    return float(np.max(np.abs(residual))) / float(np.max(np.abs(psi0)))


def path_velocity(path: EvolutionPath, tau: float) -> tuple[TimeSlicedElement, TimeSlicedElement]:
    """The two components of the slice-path velocity at parameter tau.

    Returns (-i h psi(., tau) as an order-0 jet, -psi(., tau) as an order-1
    jet).  The second is the distributional time-shift component: the
    derivative of the delta factor contributes the first-order jet with
    coefficient exactly -psi(., tau), while the value-level change of psi
    is what the Hamiltonian component carries on solutions.
    """
    tau = float(tau)
    psi = path.psi(tau)
    h = path.hamiltonian()
    within = TimeSlicedElement(tau, (((-1j) * h.apply(psi), 0),), path.space_dim)
    vertical = TimeSlicedElement(tau, ((-1.0 * psi, 1),), path.space_dim)
    return within, vertical


def path_derivative(path: EvolutionPath, tau: float) -> TimeSlicedElement:
    """d/dtau of the sliced path: psi_t(., tau) delta - psi(., tau) delta'."""
    tau = float(tau)
    psi, psi_t = path._jets(tau)
    return TimeSlicedElement(tau, ((psi_t, 0), (-1.0 * psi, 1)), path.space_dim)


def galileo_on_slice(g: GalileoElement, se: TimeSlicedElement) -> TimeSlicedElement:
    """Transport a slice element by a Galileo transformation.

    psi(x) delta(t - tau) maps to psi(A x + v t + b) delta(t + c - tau); the
    delta factor pins t to the new slice time tau - c, and the spatial part
    composes with the Euclidean isometry x -> A x + v (tau - c) + b, which
    preserves its spatial norm.
    """
    if se.space_dim != 3:
        raise ValueError("Galileo transformations act on three spatial dimensions")
    if se.max_order() > 0:
        raise ValueError("Galileo slice transport supports order-zero jets only")
    new_tau = se.slice_time - g.time_shift
    offset = g.velocity * new_tau + g.shift
    jets = tuple((psi.compose_affine(g.rotation, offset), 0) for psi, _ in se.jets)
    return TimeSlicedElement(new_tau, jets, se.space_dim)
