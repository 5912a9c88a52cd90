"""Space-time group elements and their linear extensions to delta spans.

Poincare and Galileo elements are affine maps of coordinates (ordering
(x1, x2, x3, t), timelike coordinate last); expression-based diffeomorphisms
act on coordinate boxes.  Maps act on a point (m,) or, in one call, on a
stack of points (n, m).  Any point map extends uniquely to the span of delta
functionals over a finite point set by delta_a -> delta_{g(a)}, and the
extension commutes with the embedding by construction.
"""

import math
from dataclasses import dataclass

import numpy as np

from .elements import DeltaJetTerm, SpaceElement
from .errors import NonAffineMapError
from .expressions import Expr, evaluate, max_var_index, parse_expression
from .geometry import central_difference_jacobian, require_immersion
from .kernels import GAUSSIAN, KernelSpec, gram_matrix

_ORTHO_TOL = 1e-12
_ETA4 = np.diag([1.0, 1.0, 1.0, -1.0])
_EYE3 = np.eye(3)
_ETA4.flags.writeable = _EYE3.flags.writeable = False


def rotation_matrix(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about a 3-axis."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm == 0:
        raise ValueError("rotation axis must be nonzero")
    if not (math.isfinite(norm) and math.isfinite(angle)):
        raise ValueError("rotation axis and angle must be finite")
    k = axis / norm
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return _EYE3 + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix @ x + offset on R^m.

    Subclasses only check structure; compose and inverse keep the left operand's class.
    """

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        w = np.atleast_1d(np.asarray(self.offset, dtype=float))
        if M.ndim != 2 or M.shape[0] != M.shape[1] or w.shape != (M.shape[0],):
            raise ValueError("affine map needs a square matrix and a matching offset")
        if not (np.isfinite(M).all() and np.isfinite(w).all()):
            raise ValueError("affine map needs a finite matrix and offset")
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "offset", w)

    @property
    def dim(self) -> int:
        return self.offset.shape[0]

    def apply(self, x) -> np.ndarray:
        """Image of a point (m,) or, row by row, of a stack (n, m): the same bits either way."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim > 2 or x.shape[-1] != self.dim:
            raise ValueError("point dimension mismatch")
        return np.einsum("ij,...j->...i", self.matrix, x) + self.offset

    def _like(self, matrix, offset) -> "AffineMap":
        """A map of this map's class, checked by that class's structure test."""
        g = object.__new__(type(self))
        AffineMap.__init__(g, matrix, offset)
        return g

    def compose(self, other: "AffineMap") -> "AffineMap":
        return self._like(self.matrix @ other.matrix, self.matrix @ other.offset + self.offset)

    __matmul__ = compose

    def inverse(self) -> "AffineMap":
        inv = np.linalg.inv(self.matrix)
        return self._like(inv, -inv @ self.offset)


def _boost_matrix(velocity) -> np.ndarray:
    """Lorentz matrix of the pure boost with velocity |v| < 1 (units with c = 1)."""
    v = np.atleast_1d(np.asarray(velocity, dtype=float))
    if v.shape != (3,):
        raise ValueError("boost velocity must be a 3-vector")
    b2 = float(v @ v)
    if not b2 < 1.0:
        raise ValueError("boost speed must be finite and below 1")
    L = np.eye(4)
    if b2 > 0.0:
        gamma = 1.0 / math.sqrt(1.0 - b2)
        L[:3, :3] += (gamma - 1.0) * np.outer(v, v) / b2
        L[:3, 3] = L[3, :3] = -gamma * v
        L[3, 3] = gamma
    return L


class PoincareElement(AffineMap):
    """Lorentz matrix plus space-time translation, coordinates (x, t)."""

    def __post_init__(self):
        super().__post_init__()
        L = self.matrix
        if L.shape != (4, 4):
            raise ValueError("Poincare element needs a 4x4 matrix and a 4-vector")
        if np.max(np.abs(L.T @ _ETA4 @ L - _ETA4)) > _ORTHO_TOL:
            raise ValueError("matrix does not preserve the flat space-time metric")

    @property
    def lorentz(self) -> np.ndarray:
        return self.matrix

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
        return cls(_boost_matrix(velocity), np.zeros(4))

    def rapidity(self) -> float:
        """Boost rapidity read off the time-time component."""
        return math.acosh(max(float(self.lorentz[3, 3]), 1.0))


class GalileoElement(AffineMap):
    """(x, t) -> (A x + v t + b, t + c), A orthogonal: matrix [[A, v], [0, 1]], offset (b, c)."""

    def __init__(self, rotation, velocity, shift, time_shift: float = 0.0):
        A = np.asarray(rotation, dtype=float)
        v = np.atleast_1d(np.asarray(velocity, dtype=float))
        b = np.atleast_1d(np.asarray(shift, dtype=float))
        if A.shape != (3, 3) or v.shape != (3,) or b.shape != (3,):
            raise ValueError("Galileo element needs a 3x3 matrix and two 3-vectors")
        M = np.eye(4)
        M[:3, :3] = A
        M[:3, 3] = v
        super().__init__(M, np.append(b, float(time_shift)))

    def __post_init__(self):
        super().__post_init__()
        M = self.matrix
        if M.shape != (4, 4) or M[3].tolist() != [0.0, 0.0, 0.0, 1.0]:
            raise ValueError("Galileo element needs the block matrix [[A, v], [0, 1]]")
        if np.max(np.abs(M[:3, :3].T @ M[:3, :3] - _EYE3)) > _ORTHO_TOL:
            raise ValueError("rotation part must be orthogonal")

    @classmethod
    def identity(cls) -> "GalileoElement":
        return cls(np.eye(3), np.zeros(3), np.zeros(3), 0.0)

    @property
    def rotation(self) -> np.ndarray:
        return self.matrix[:3, :3]

    @property
    def velocity(self) -> np.ndarray:
        return self.matrix[:3, 3]

    @property
    def shift(self) -> np.ndarray:
        return self.offset[:3]

    @property
    def time_shift(self) -> float:
        return float(self.offset[3])


@dataclass(frozen=True)
class DiffeoMap:
    """Expression-defined map of a coordinate box into itself."""

    exprs: tuple[Expr, ...]
    domain: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.exprs) != len(self.domain):
            raise ValueError("need one expression per coordinate")
        for lo, hi in self.domain:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError(f"domain interval [{lo}, {hi}] must be finite, "
                                 "with its upper bound above its lower bound")
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

    def _in_box(self, x) -> bool:
        return all(lo - 1e-9 <= xi <= hi + 1e-9 for xi, (lo, hi) in zip(x, self.domain))

    def _validate_samples(self):
        axes = [np.linspace(lo, hi, 4) for lo, hi in self.domain]
        mesh = np.meshgrid(*axes, indexing="ij")
        samples = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        for u in samples:
            if not self._in_box(self.apply(u, check_domain=False)):
                raise ValueError(
                    f"map sends the sample point {u.tolist()} outside the domain")
            require_immersion(self.jacobian_at(u), u)

    def apply(self, u, check_domain: bool = True) -> np.ndarray:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.shape != (self.dim,):
            raise ValueError("point dimension mismatch")
        if check_domain and not self._in_box(u):
            raise ValueError(f"point {u.tolist()} is outside the map domain")
        return np.array([float(evaluate(e, u)) for e in self.exprs])

    def jacobian_at(self, u) -> np.ndarray:
        return central_difference_jacobian(lambda x: self.apply(x, check_domain=False), u)


GroupElement = AffineMap | DiffeoMap


def apply_point(g: GroupElement, x) -> np.ndarray:
    """Action of a group element on a finite point (m,) or stack of points (n, m)."""
    if not isinstance(g, (AffineMap, DiffeoMap)):
        raise TypeError(f"cannot apply object of type {type(g).__name__} to points")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.isfinite(x).all():  # name the first point with a non-finite coordinate
        raise ValueError(f"point {x[~np.isfinite(x).all(axis=-1)][0].tolist()} is not finite")
    if isinstance(g, DiffeoMap) and x.ndim == 2:
        return np.array([g.apply(p) for p in x]).reshape(x.shape)
    return g.apply(x)


def _move_deltas(e: SpaceElement, move, error: type[Exception], who: str) -> SpaceElement:
    """delta_a -> delta_{move(a)} on a span of zero-order deltas; ``who`` names the map."""
    if e.gaussians:
        raise error(f"{who} do not act on Gaussian terms; only delta spans transform")
    deltas = []
    for t in e.deltas:
        if t.order != 0:
            raise error(f"{who} act on zero-order deltas only")
        deltas.append(DeltaJetTerm(t.coeff, move(t.base), t.orders))
    return SpaceElement(e.dim, deltas=tuple(deltas))


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
        if src.shape[0] > 1:  # one delta is its own basis: its Gram matrix is [[1]]
            sq = np.square(src[:, None, :] - src[None, :, :]).sum(axis=-1)
            if np.sqrt(sq[~np.eye(len(sq), dtype=bool)]).min() <= 1e-12:
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
        return _move_deltas(e, lambda base: self.targets[self._match(base)],
                            ValueError, "span operators")


def extend_to_span(g: GroupElement, points) -> DeltaSpanOperator:
    """Unique linear extension of the point action to the delta span."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    return DeltaSpanOperator(pts, apply_point(g, pts))


def act_on_element(op, e: SpaceElement) -> SpaceElement:
    """Apply a span operator, an affine element, or a diffeomorphism.

    Affine group elements push elements forward by f -> f o g^{-1}; the
    Gaussian family is closed under this.  Non-affine diffeomorphisms act
    only on spans of zero-order deltas.
    """
    if isinstance(op, DeltaSpanOperator):
        return op.apply(e)
    if isinstance(op, AffineMap):
        return e.pushforward_affine(op.matrix, op.offset)
    if isinstance(op, DiffeoMap):
        return _move_deltas(e, op.apply, NonAffineMapError, "non-affine maps")
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
    before = gram_matrix(pts, spec)
    after = gram_matrix(apply_point(g, pts), spec)
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
    expected = apply_point(g, op.sources)
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
        return GalileoElement(rotation, spec.get("v", np.zeros(3)), spec.get("b", np.zeros(3)),
                              spec.get("c", 0.0))
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
            element = PoincareElement.from_translation(record["translation"]) @ element
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
    rotation = np.eye(4)
    rotation[:3, :3] = rotation_matrix(axis, angle)
    return PoincareElement(rotation @ _boost_matrix(velocity),
                           rng.normal(scale=translation_scale, size=4))


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
