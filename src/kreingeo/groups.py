"""Space-time group elements and their linear extensions to delta spans.

Poincare and Galileo elements act affinely on coordinates (ordering
(x1, x2, x3, t), timelike coordinate last); expression-based
diffeomorphisms act on coordinate boxes.  Any point map extends uniquely
to the span of delta functionals over a finite point set by
delta_a -> delta_{g(a)}, and the extension commutes with the embedding by
construction.
"""

import math
from dataclasses import dataclass

import numpy as np

from .elements import DeltaJetTerm, SpaceElement
from .errors import NonAffineMapError
from .expressions import Expr, evaluate, max_var_index, parse_expression
from .geometry import require_immersion
from .kernels import GAUSSIAN, KernelSpec, gram_matrix, signed_square_distances

_ORTHO_TOL = 1e-12


def eta4() -> np.ndarray:
    return np.diag([1.0, 1.0, 1.0, -1.0])


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about a 3-axis."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm == 0:
        raise ValueError("rotation axis must be nonzero")
    k = axis / norm
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix @ x + offset on R^m."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        w = np.atleast_1d(np.asarray(self.offset, dtype=float))
        if M.ndim != 2 or M.shape[0] != M.shape[1] or w.shape != (M.shape[0],):
            raise ValueError("affine map needs a square matrix and a matching offset")
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "offset", w)

    @property
    def dim(self) -> int:
        return self.offset.shape[0]

    def apply(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (self.dim,):
            raise ValueError("point dimension mismatch")
        return self.matrix @ x + self.offset

    def compose(self, other: "AffineMap") -> "AffineMap":
        return AffineMap(self.matrix @ other.matrix,
                         self.matrix @ other.offset + self.offset)

    def inverse(self) -> "AffineMap":
        inv = np.linalg.inv(self.matrix)
        return AffineMap(inv, -inv @ self.offset)


@dataclass(frozen=True)
class PoincareElement:
    """Lorentz matrix plus space-time translation, coordinates (x, t)."""

    lorentz: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.lorentz, dtype=float)
        a = np.atleast_1d(np.asarray(self.translation, dtype=float))
        if L.shape != (4, 4) or a.shape != (4,):
            raise ValueError("Poincare element needs a 4x4 matrix and a 4-vector")
        eta = eta4()
        if np.max(np.abs(L.T @ eta @ L - eta)) > _ORTHO_TOL:
            raise ValueError("matrix does not preserve the flat space-time metric")
        object.__setattr__(self, "lorentz", L)
        object.__setattr__(self, "translation", a)

    @classmethod
    def identity(cls) -> "PoincareElement":
        return cls(np.eye(4), np.zeros(4))

    @classmethod
    def from_translation(cls, shift) -> "PoincareElement":
        return cls(np.eye(4), shift)

    @classmethod
    def rotation(cls, axis, angle: float) -> "PoincareElement":
        L = np.eye(4)
        L[:3, :3] = rotation_matrix(axis, angle)
        return cls(L, np.zeros(4))

    @classmethod
    def boost(cls, velocity) -> "PoincareElement":
        """Pure boost with |velocity| < 1 (units with c = 1)."""
        v = np.atleast_1d(np.asarray(velocity, dtype=float))
        if v.shape != (3,):
            raise ValueError("boost velocity must be a 3-vector")
        b2 = float(v @ v)
        if b2 >= 1.0:
            raise ValueError("boost speed must be below 1")
        L = np.eye(4)
        if b2 > 0.0:
            gamma = 1.0 / math.sqrt(1.0 - b2)
            L[:3, :3] += (gamma - 1.0) * np.outer(v, v) / b2
            L[:3, 3] = -gamma * v
            L[3, :3] = -gamma * v
            L[3, 3] = gamma
        return cls(L, np.zeros(4))

    @property
    def dim(self) -> int:
        return 4

    def apply(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (4,):
            raise ValueError("Poincare elements act on 4-vectors")
        return self.lorentz @ x + self.translation

    def compose(self, other: "PoincareElement") -> "PoincareElement":
        return PoincareElement(self.lorentz @ other.lorentz,
                               self.lorentz @ other.translation + self.translation)

    __matmul__ = compose

    def inverse(self) -> "PoincareElement":
        eta = eta4()
        inv = eta @ self.lorentz.T @ eta
        return PoincareElement(inv, -inv @ self.translation)

    def rapidity(self) -> float:
        """Boost rapidity read off the time-time component."""
        return math.acosh(max(float(self.lorentz[3, 3]), 1.0))

    def as_affine(self) -> AffineMap:
        return AffineMap(self.lorentz, self.translation)


@dataclass(frozen=True)
class GalileoElement:
    """(x, t) -> (A x + v t + b, t + c) with A orthogonal."""

    rotation: np.ndarray
    velocity: np.ndarray
    shift: np.ndarray
    time_shift: float = 0.0

    def __post_init__(self):
        A = np.asarray(self.rotation, dtype=float)
        v = np.atleast_1d(np.asarray(self.velocity, dtype=float))
        b = np.atleast_1d(np.asarray(self.shift, dtype=float))
        if A.shape != (3, 3) or v.shape != (3,) or b.shape != (3,):
            raise ValueError("Galileo element needs a 3x3 matrix and two 3-vectors")
        if np.max(np.abs(A.T @ A - np.eye(3))) > _ORTHO_TOL:
            raise ValueError("rotation part must be orthogonal")
        object.__setattr__(self, "rotation", A)
        object.__setattr__(self, "velocity", v)
        object.__setattr__(self, "shift", b)
        object.__setattr__(self, "time_shift", float(self.time_shift))

    @classmethod
    def identity(cls) -> "GalileoElement":
        return cls(np.eye(3), np.zeros(3), np.zeros(3), 0.0)

    @property
    def dim(self) -> int:
        return 4

    def apply(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (4,):
            raise ValueError("Galileo elements act on 4-vectors (x, t)")
        spatial = self.rotation @ x[:3] + self.velocity * x[3] + self.shift
        return np.append(spatial, x[3] + self.time_shift)

    def compose(self, other: "GalileoElement") -> "GalileoElement":
        return GalileoElement(
            self.rotation @ other.rotation,
            self.rotation @ other.velocity + self.velocity,
            self.rotation @ other.shift + self.velocity * other.time_shift + self.shift,
            self.time_shift + other.time_shift,
        )

    __matmul__ = compose

    def inverse(self) -> "GalileoElement":
        At = self.rotation.T
        return GalileoElement(
            At,
            -At @ self.velocity,
            At @ (self.velocity * self.time_shift - self.shift),
            -self.time_shift,
        )

    def as_affine(self) -> AffineMap:
        M = np.eye(4)
        M[:3, :3] = self.rotation
        M[:3, 3] = self.velocity
        return AffineMap(M, np.append(self.shift, self.time_shift))


@dataclass(frozen=True)
class DiffeoMap:
    """Expression-defined map of a coordinate box into itself."""

    exprs: tuple[Expr, ...]
    domain: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.exprs) != len(self.domain):
            raise ValueError("need one expression per coordinate")
        for e in self.exprs:
            if max_var_index(e) > len(self.domain):
                raise ValueError("expression uses a variable beyond the map dimension")
        self._validate_samples()

    @classmethod
    def from_strings(cls, maps: list[str], domain) -> "DiffeoMap":
        return cls(tuple(parse_expression(s) for s in maps),
                   tuple((float(lo), float(hi)) for lo, hi in domain))

    @property
    def dim(self) -> int:
        return len(self.domain)

    def _validate_samples(self):
        axes = [np.linspace(lo, hi, 4) for lo, hi in self.domain]
        mesh = np.meshgrid(*axes, indexing="ij")
        samples = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        for u in samples:
            image = self.apply(u, check_domain=False)
            if not all(lo - 1e-9 <= xi <= hi + 1e-9
                       for xi, (lo, hi) in zip(image, self.domain)):
                raise ValueError(
                    f"map sends the sample point {u.tolist()} outside the domain")
            require_immersion(self.jacobian_at(u), u)

    def apply(self, u, check_domain: bool = True) -> np.ndarray:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.shape != (self.dim,):
            raise ValueError("point dimension mismatch")
        if check_domain and not all(lo - 1e-9 <= ui <= hi + 1e-9
                                    for ui, (lo, hi) in zip(u, self.domain)):
            raise ValueError(f"point {u.tolist()} is outside the map domain")
        return np.array([float(evaluate(e, u)) for e in self.exprs])

    def jacobian_at(self, u, step: float = 1e-6) -> np.ndarray:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        J = np.empty((self.dim, self.dim))
        for j in range(self.dim):
            h = np.zeros(self.dim)
            h[j] = step
            J[:, j] = (self.apply(u + h, check_domain=False)
                       - self.apply(u - h, check_domain=False)) / (2.0 * step)
        return J


GroupElement = PoincareElement | GalileoElement | AffineMap | DiffeoMap


def apply_point(g: GroupElement, x) -> np.ndarray:
    """Action of a group element on a finite coordinate point."""
    if not isinstance(g, (PoincareElement, GalileoElement, AffineMap, DiffeoMap)):
        raise TypeError(f"cannot apply object of type {type(g).__name__} to points")
    x = np.asarray(x, dtype=float)
    if not all(map(math.isfinite, x.ravel().tolist())):
        raise ValueError(f"point {x.tolist()} is not finite")
    return g.apply(x)


@dataclass(frozen=True)
class DeltaSpanOperator:
    """Linear map defined on the span of deltas over a finite point set."""

    sources: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        src = np.asarray(self.sources, dtype=float)
        tgt = np.asarray(self.targets, dtype=float)
        if src.ndim == 1:
            src = src[:, None]
        if tgt.ndim == 1:
            tgt = tgt[:, None]
        if src.shape != tgt.shape or src.shape[0] < 1:
            raise ValueError("sources and targets must be matching nonempty point lists")
        if not (np.isfinite(src).all() and np.isfinite(tgt).all()):
            raise ValueError("sources and targets must be finite")
        sq = signed_square_distances(src.T, src.T, np.ones(src.shape[1]))
        diffs = np.sqrt(sq)
        np.fill_diagonal(diffs, np.inf)
        if diffs.min() <= 1e-12:
            raise ValueError("source points must be pairwise distinct")
        # Uniqueness of the extension rests on linear independence of the
        # basis deltas; checked through the conditioning of their Gram
        # matrix under the positive-definite unit Gaussian kernel.
        smallest = float(np.linalg.eigvalsh(np.exp(-0.5 * sq))[0])
        if smallest <= 1e-12:
            raise ValueError(
                f"source deltas are numerically linearly dependent "
                f"(Gram eigenvalue {smallest:.3e})")
        object.__setattr__(self, "sources", src)
        object.__setattr__(self, "targets", tgt)

    @property
    def size(self) -> int:
        return self.sources.shape[0]

    @property
    def dim(self) -> int:
        return self.sources.shape[1]

    def _match(self, base: np.ndarray) -> int:
        dist = np.linalg.norm(self.sources - base, axis=1)
        idx = int(np.argmin(dist))
        if dist[idx] > 1e-12:
            raise ValueError(f"delta at {base.tolist()} is outside the operator span")
        return idx

    def apply(self, e: SpaceElement) -> SpaceElement:
        if e.gaussians:
            raise ValueError("element is outside the delta span")
        deltas = []
        for t in e.deltas:
            if t.order != 0:
                raise ValueError("span operators act on zero-order deltas")
            idx = self._match(t.base)
            deltas.append(DeltaJetTerm(t.coeff, self.targets[idx], t.orders))
        return SpaceElement(e.dim, deltas=tuple(deltas))


def extend_to_span(g: GroupElement, points) -> DeltaSpanOperator:
    """Unique linear extension of the point action to the delta span."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    targets = np.array([apply_point(g, p) for p in pts])
    return DeltaSpanOperator(pts, targets)


def act_on_element(op, e: SpaceElement) -> SpaceElement:
    """Apply a span operator, an affine element, or a diffeomorphism.

    Affine group elements push elements forward by f -> f o g^{-1}; the
    Gaussian family is closed under this.  Non-affine diffeomorphisms act
    only on spans of zero-order deltas.
    """
    if isinstance(op, DeltaSpanOperator):
        return op.apply(e)
    if isinstance(op, (PoincareElement, GalileoElement, AffineMap)):
        aff = op if isinstance(op, AffineMap) else op.as_affine()
        return e.pushforward_affine(aff.matrix, aff.offset)
    if isinstance(op, DiffeoMap):
        if e.gaussians:
            raise NonAffineMapError(
                "non-affine maps do not preserve the Gaussian family; "
                "only delta spans transform")
        deltas = []
        for t in e.deltas:
            if t.order != 0:
                raise NonAffineMapError("non-affine maps act on zero-order deltas only")
            deltas.append(DeltaJetTerm(t.coeff, op.apply(t.base), t.orders))
        return SpaceElement(e.dim, deltas=tuple(deltas))
    raise TypeError(f"cannot act with object of type {type(op).__name__}")


def check_gram_invariance(g: GroupElement, points, spec: KernelSpec) -> float:
    """Max absolute change of the kernel Gram matrix under the point action."""
    if spec.family != GAUSSIAN:
        raise ValueError("Gram invariance checks use the gaussian family")
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[1] != spec.dim:
        raise ValueError("points do not match the kernel dimension")
    if getattr(g, "dim", None) != spec.dim:
        raise ValueError(
            f"incompatible pair: map acts on dimension {getattr(g, 'dim', '?')}, "
            f"kernel lives on dimension {spec.dim}")
    mapped = np.array([apply_point(g, p) for p in pts])
    before = gram_matrix(pts, spec)
    after = gram_matrix(mapped, spec)
    return float(np.max(np.abs(after - before)))


def transform_gram(op: DeltaSpanOperator, gram: np.ndarray, g: GroupElement,
                   spec: KernelSpec) -> np.ndarray:
    """Gram matrix of the transformed span, per the metric-operator law.

    For the indefinite space-time kernel and a Poincare element the output
    equals the input (the kernel depends only on the invariant interval);
    for positive-definite kernels it generally differs.
    """
    gram = np.asarray(gram, dtype=float)
    if gram.shape != (op.size, op.size):
        raise ValueError("Gram matrix shape does not match the operator span")
    if op.dim != spec.dim:
        raise ValueError("operator and kernel dimensions differ")
    expected = np.array([apply_point(g, p) for p in op.sources])
    if np.max(np.abs(expected - op.targets)) > 1e-9:
        raise ValueError("operator does not realize the given group element")
    return gram_matrix(op.targets, spec)


def parse_group_element(record: dict) -> GroupElement:
    """Build a group element from a config record.

    Recognized shapes::

        {"boost": [vx, vy, vz]}                      Lorentz boost
        {"rotation": {"axis": [...], "angle": a}}    spatial rotation
        {"translation": [x1, x2, x3, t]}             space-time shift
        {"galileo": {"axis": [...], "angle": a,      Galileo element
                     "v": [...], "b": [...], "c": t}}
        {"diffeo": {"maps": [expr, ...],             expression diffeomorphism
                    "domain": [[lo, hi], ...]}}

    Poincare keys combine (rotation first, then boost, then translation).
    """
    poincare_keys = {"boost", "rotation", "translation"}
    keys = set(record)
    if keys == {"galileo"}:
        spec = record["galileo"]
        unknown = set(spec) - {"axis", "angle", "v", "b", "c"}
        if unknown:
            raise ValueError(f"unknown galileo keys: {sorted(unknown)}")
        rotation = (rotation_matrix(spec["axis"], float(spec["angle"]))
                    if "axis" in spec else np.eye(3))
        return GalileoElement(rotation,
                              np.asarray(spec.get("v", [0, 0, 0]), dtype=float),
                              np.asarray(spec.get("b", [0, 0, 0]), dtype=float),
                              float(spec.get("c", 0.0)))
    if keys == {"diffeo"}:
        spec = record["diffeo"]
        unknown = set(spec) - {"maps", "domain"}
        if unknown:
            raise ValueError(f"unknown diffeo keys: {sorted(unknown)}")
        return DiffeoMap.from_strings(spec["maps"], spec["domain"])
    if keys and keys <= poincare_keys:
        element = PoincareElement.identity()
        if "rotation" in record:
            rot = record["rotation"]
            element = PoincareElement.rotation(rot["axis"], float(rot["angle"])) @ element
        if "boost" in record:
            element = PoincareElement.boost(record["boost"]) @ element
        if "translation" in record:
            shift = PoincareElement.from_translation(
                np.asarray(record["translation"], dtype=float))
            element = shift @ element
        return element
    raise ValueError(f"unrecognized group element config with keys {sorted(keys)}")


def random_poincare(rng: np.random.Generator, max_rapidity: float = 2.0,
                    translation_scale: float = 1.0) -> PoincareElement:
    """Random rotation * boost * translation with bounded rapidity."""
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-6:
        axis = rng.normal(size=3)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    rap = rng.uniform(0.0, max_rapidity)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    velocity = math.tanh(rap) * direction
    element = PoincareElement.rotation(axis, angle) @ PoincareElement.boost(velocity)
    return PoincareElement(element.lorentz, rng.normal(scale=translation_scale, size=4))


def random_galileo(rng: np.random.Generator) -> GalileoElement:
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-6:
        axis = rng.normal(size=3)
    return GalileoElement(
        rotation_matrix(axis, rng.uniform(0.0, 2.0 * math.pi)),
        rng.normal(scale=0.7, size=3),
        rng.normal(scale=1.0, size=3),
        float(rng.normal(scale=0.8)),
    )
