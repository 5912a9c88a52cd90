"""Space-time group elements and their linear extensions to delta spans.

Poincare and Galileo elements are affine maps of coordinates (ordering
(x1, x2, x3, t), timelike coordinate last); expression-based diffeomorphisms
act on coordinate boxes.  Maps act on a point (m,) or, in one call, on a
stack of points (n, m); a diffeomorphism evaluates each expression once on
the coordinate columns.  An affine map may be a stack of k maps, built,
checked and composed in one pass, each with the bits of its element alone.
Any point map extends uniquely to the span of delta functionals over a finite
point set by delta_a -> delta_{g(a)}, commuting with the embedding.  A span
operator may be a stack of k operators over point sets (k, n, m), checked in
one pass; ``extend_to_span`` builds one from points (n, k, m) with one map
call, and ``ops[i]`` is operator i, not checked again.
"""

import math
from dataclasses import dataclass

import numpy as np

from .elements import SpaceElement, _reject, _unchecked_delta
from .errors import NonAffineMapError
from .expressions import Expr, evaluate, max_var_index, parse_expression
from .geometry import central_difference_jacobian, require_immersion
from .kernels import GAUSSIAN, KernelSpec, gram_matrix

_ORTHO_TOL = 1e-12
_ETA4 = np.diag([1.0, 1.0, 1.0, -1.0])
_EYE3 = np.eye(3)
_ETA4.flags.writeable = _EYE3.flags.writeable = False


def _dots(v: np.ndarray) -> np.ndarray:
    """v . v over the last axis, each row with the bits of its own dot product."""
    return (v[..., None, :] @ v[..., :, None])[..., 0, 0]


def _points(points) -> np.ndarray:
    """Points as rows (n, m); a flat list is n points on a line."""
    pts = np.asarray(points, dtype=float)
    return pts[:, None] if pts.ndim == 1 else pts


def rotation_matrix(axis, angle) -> np.ndarray:
    """Rodrigues rotation about a 3-axis; axes (..., 3) and angles (...) give a stack."""
    axis, angle = np.asarray(axis, dtype=float), np.asarray(angle, dtype=float)
    if axis.shape[-1:] != (3,):
        raise ValueError("rotation axis must be a 3-vector")
    norm = np.sqrt(_dots(axis))
    _reject(norm == 0, "rotation axis must be nonzero")
    _reject(~(np.isfinite(norm) & np.isfinite(angle)), "rotation axis and angle must be finite")
    k = axis / norm[..., None]
    K = np.zeros(norm.shape + (3, 3))
    K[..., 0, 1], K[..., 0, 2], K[..., 1, 2] = -k[..., 2], k[..., 1], -k[..., 0]
    K[..., 1, 0], K[..., 2, 0], K[..., 2, 1] = k[..., 2], -k[..., 1], k[..., 0]
    sin, cos = (np.array([f(a) for a in angle.ravel().tolist()]).reshape(angle.shape + (1, 1))
                for f in (math.sin, math.cos))  # math's: numpy's may differ in the last bit
    return _EYE3 + sin * K + (1.0 - cos) * (K @ K)


@dataclass(frozen=True)
class AffineMap:
    """x -> matrix @ x + offset on R^m, or a stack of such maps: matrix (..., m, m), offset (..., m).

    Subclasses only check structure, once per stack; compose and inverse keep the left operand's class.
    """

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        w = np.atleast_1d(np.asarray(self.offset, dtype=float))
        if M.ndim < 2 or M.shape[-1] != M.shape[-2] or w.shape != M.shape[:-1]:
            raise ValueError("affine map needs a square matrix and a matching offset")
        _reject(~(np.isfinite(M).all(axis=(-2, -1)) & np.isfinite(w).all(axis=-1)),
                "affine map needs a finite matrix and offset")
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "offset", w)

    @property
    def dim(self) -> int:
        return self.offset.shape[-1]

    def apply(self, x) -> np.ndarray:
        """Image of a point (m,) or, row by row, of a stack (n, m); a stack of k maps takes (k, m) or (n, k, m)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim > self.matrix.ndim or x.shape[-1] != self.dim:
            raise ValueError("point dimension mismatch")
        return np.einsum("...ij,...j->...i", self.matrix, x) + self.offset

    def __getitem__(self, i) -> "AffineMap":
        """Element i of a stack, checked with the stack and not again; a stack iterates over them."""
        if self.matrix.ndim < 3:
            raise TypeError("only a stack of affine maps has elements")
        g = object.__new__(type(self))
        g.__dict__.update(matrix=self.matrix[i], offset=self.offset[i])
        return g

    def _like(self, matrix, offset) -> "AffineMap":
        """A map of this map's class, checked by that class's structure test."""
        g = object.__new__(type(self))
        AffineMap.__init__(g, matrix, offset)
        return g

    def compose(self, other: "AffineMap") -> "AffineMap":
        return self._like(self.matrix @ other.matrix,
                          (self.matrix @ other.offset[..., None])[..., 0] + self.offset)

    __matmul__ = compose

    def inverse(self) -> "AffineMap":
        inv = np.linalg.inv(self.matrix)
        return self._like(inv, (-inv @ self.offset[..., None])[..., 0])


def _boost_matrix(velocity) -> np.ndarray:
    """Lorentz matrices of the pure boosts with velocities (..., 3), |v| < 1 (units with c = 1)."""
    v = np.asarray(velocity, dtype=float)
    if v.ndim < 1 or v.shape[-1] != 3:
        raise ValueError("boost velocity must be a 3-vector")
    b2 = _dots(v)[..., None]
    _reject(~(b2[..., 0] < 1.0), "boost speed must be finite and below 1")
    moving, gamma = b2 > 0.0, 1.0 / np.sqrt(1.0 - b2)  # a boost at rest is the identity
    L = np.empty(v.shape[:-1] + (4, 4))
    L[..., :3, :3] = _EYE3 + (gamma[..., None] - 1.0) * (v[..., :, None] * v[..., None, :]) / np.where(
        moving, b2, 1.0)[..., None]
    L[..., :3, 3] = L[..., 3, :3] = np.where(moving, -gamma * v, 0.0)
    L[..., 3, 3] = gamma[..., 0]
    return L


class PoincareElement(AffineMap):
    """Lorentz matrix plus space-time translation, coordinates (x, t)."""

    def __post_init__(self):
        super().__post_init__()
        if (L := self.matrix).shape[-2:] != (4, 4):
            raise ValueError("Poincare element needs a 4x4 matrix and a 4-vector")
        _reject(np.abs(np.swapaxes(L, -1, -2) @ _ETA4 @ L - _ETA4).max(axis=(-2, -1)) > _ORTHO_TOL,
                "matrix does not preserve the flat space-time metric")

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
    def rotation(cls, axis, angle) -> "PoincareElement":
        return cls(L := _spatial_lorentz(rotation_matrix(axis, angle)), np.zeros(L.shape[:-1]))

    @classmethod
    def boost(cls, velocity) -> "PoincareElement":
        """Pure boost with |velocity| < 1 (units with c = 1)."""
        return cls(L := _boost_matrix(velocity), np.zeros(L.shape[:-1]))

    def rapidity(self) -> float:
        """Boost rapidity read off the time-time component."""
        return math.acosh(max(float(self.lorentz[3, 3]), 1.0))


def _spatial_lorentz(rotation: np.ndarray) -> np.ndarray:
    """Lorentz matrices (..., 4, 4) of spatial rotations (..., 3, 3)."""
    L = np.zeros(rotation.shape[:-2] + (4, 4))
    L[..., :3, :3], L[..., 3, 3] = rotation, 1.0
    return L


class GalileoElement(AffineMap):
    """(x, t) -> (A x + v t + b, t + c), A orthogonal: matrix [[A, v], [0, 1]], offset (b, c)."""

    def __init__(self, rotation, velocity, shift, time_shift=0.0):
        A, v, b, c = (np.asarray(x, dtype=float) for x in (rotation, velocity, shift, time_shift))
        if A.shape[-2:] != (3, 3) or not v.shape == b.shape == A.shape[:-1] or c.shape != A.shape[:-2]:
            raise ValueError("Galileo element needs a 3x3 matrix and two 3-vectors")
        M = np.zeros(A.shape[:-2] + (4, 4))
        M[..., :3, :3], M[..., :3, 3], M[..., 3, 3] = A, v, 1.0
        super().__init__(M, np.concatenate([b, c[..., None]], axis=-1))

    def __post_init__(self):
        super().__post_init__()
        # 4x4 by construction: __init__ builds it, and compose and inverse keep it.
        _reject((self.matrix[..., 3, :] != [0.0, 0.0, 0.0, 1.0]).any(axis=-1),
                "Galileo element needs the block matrix [[A, v], [0, 1]]")
        A = self.rotation
        _reject(np.abs(np.swapaxes(A, -1, -2) @ A - _EYE3).max(axis=(-2, -1)) > _ORTHO_TOL,
                "rotation part must be orthogonal")

    @classmethod
    def identity(cls) -> "GalileoElement":
        return cls(np.eye(3), np.zeros(3), np.zeros(3), 0.0)

    @property
    def rotation(self) -> np.ndarray:
        return self.matrix[..., :3, :3]

    @property
    def velocity(self) -> np.ndarray:
        return self.matrix[..., :3, 3]

    @property
    def shift(self) -> np.ndarray:
        return self.offset[..., :3]

    @property
    def time_shift(self):
        return self.offset[..., 3]


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

    def _outside(self, x: np.ndarray) -> np.ndarray:
        """Whether each point (..., m) lies outside the domain box widened by 1e-9."""
        lo, hi = np.array(self.domain).T
        return ~((lo - 1e-9 <= x) & (x <= hi + 1e-9)).all(axis=-1)

    def _validate_samples(self):
        """The 4^m grid of the box: each image inside it and each Jacobian of full rank, in grid order."""
        axes = [np.linspace(lo, hi, 4) for lo, hi in self.domain]
        samples = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, self.dim)
        outside = self._outside(self.apply(samples, check_domain=False))
        first = int(np.argmax(outside)) if outside.any() else len(samples)
        require_immersion(self.jacobian_at(samples[:first]), samples[:first])
        if first < len(samples):
            raise ValueError(f"map sends the sample point {samples[first].tolist()} outside the domain")

    def apply(self, u, check_domain: bool = True) -> np.ndarray:
        """Image of a point (m,) or a stack (n, m): one evaluation of each expression on the columns."""
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.ndim > 2 or u.shape[-1] != self.dim:
            raise ValueError("point dimension mismatch")
        if check_domain and (outside := self._outside(u)).any():
            raise ValueError(f"point {u[outside][0].tolist()} is outside the map domain")
        columns = tuple(np.ascontiguousarray(u.T))  # contiguous, so each ufunc runs the loop a lone point does
        return np.stack([np.broadcast_to(evaluate(e, columns), u.shape[:-1]) for e in self.exprs], axis=-1)

    def jacobian_at(self, u) -> np.ndarray:
        """Jacobian (m, m) at a point (m,), or (n, m, m) at a stack (n, m), by central differences."""
        return central_difference_jacobian(lambda x: self.apply(x, check_domain=False), u)


GroupElement = AffineMap | DiffeoMap


def apply_point(g: GroupElement, x) -> np.ndarray:
    """Action of a group element on a finite point (m,) or stack of points (n, m)."""
    if not isinstance(g, (AffineMap, DiffeoMap)):
        raise TypeError(f"cannot apply object of type {type(g).__name__} to points")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.isfinite(x).all():  # name the first point with a non-finite coordinate
        raise ValueError(f"point {x[~np.isfinite(x).all(axis=-1)][0].tolist()} is not finite")
    return g.apply(x)


def _move_deltas(e: SpaceElement, move, error: type[Exception], who: str) -> SpaceElement:
    """delta_a -> delta_{move(a)} on zero-order deltas; ``move`` maps all bases (n, m), ``who`` names the map.

    Each moved term keeps the checked coefficient and orders of its source, and
    its base is a row of the images, checked for finiteness together.
    """
    if e.gaussians:
        raise error(f"{who} do not act on Gaussian terms; only delta spans transform")
    if any(t.order != 0 for t in e.deltas):
        raise error(f"{who} act on zero-order deltas only")
    bases = np.array([t.base for t in e.deltas]).reshape(-1, e.dim)
    moved = move(bases)
    if not np.isfinite(moved).all():
        raise ValueError(f"image of the delta at {bases[~np.isfinite(moved).all(axis=-1)][0].tolist()} "
                         "is not finite")
    return SpaceElement(e.dim, deltas=tuple(_unchecked_delta(t.coeff, b, t.orders) for t, b in zip(e.deltas, moved)))


def _is_stack(g) -> bool:
    return isinstance(g, AffineMap) and g.matrix.ndim > 2


def _require_single(g, who: str) -> None:
    """Reject a stack of k maps, whose point stacks would pair point i with map i."""
    if _is_stack(g):
        raise ValueError(f"{who} takes one group element, not a stack of {len(g.matrix)}")


@dataclass(frozen=True)
class DeltaSpanOperator:
    """Linear map on the span of deltas over a finite point set (n, m), or a stack of k such maps (k, n, m).

    Every check runs once over a stack, and a failing stack names its first
    bad operator as "(stack index i)", with the first rule that operator
    fails; ``ops[i]`` is operator i, not checked again.
    """

    sources: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        src, tgt = _points(self.sources), _points(self.targets)
        if src.shape != tgt.shape or src.ndim > 3 or src.shape[-2] < 1:
            raise ValueError("sources and targets must be matching nonempty point lists")
        finite = np.isfinite(src).all(axis=(-2, -1)) & np.isfinite(tgt).all(axis=(-2, -1))
        distinct = independent = np.ones_like(finite)
        if (n := src.shape[-2]) > 1:  # one delta is its own basis: its Gram matrix is [[1]]
            basis = src if finite.all() else np.where(finite[..., None, None], src, 0.0)  # spans fail on finiteness
            sq = np.square(basis[..., :, None, :] - basis[..., None, :, :]).sum(axis=-1)
            distinct = np.sqrt(sq[..., ~np.eye(n, dtype=bool)]).min(axis=-1) > 1e-12
            # Uniqueness of the extension rests on linear independence of the
            # basis deltas; checked through the conditioning of their Gram
            # matrix under the positive-definite unit Gaussian kernel.
            smallest = np.linalg.eigvalsh(np.exp(-0.5 * sq))[..., 0]
            independent = smallest > 1e-12
        if not (good := finite & distinct & independent).all():  # the first bad operator, by its first failed rule
            first = np.argmin(good.reshape(-1))
            only = np.arange(good.size).reshape(good.shape) == first
            _reject(~finite & only, "sources and targets must be finite")
            _reject(~distinct & only, "source points must be pairwise distinct")
            _reject(~independent & only, f"source deltas are numerically linearly dependent "
                                         f"(Gram eigenvalue {float(smallest.reshape(-1)[first]):.3e})")
        object.__setattr__(self, "sources", src)
        object.__setattr__(self, "targets", tgt)

    @property
    def size(self) -> int:
        return self.sources.shape[-2]

    @property
    def dim(self) -> int:
        return self.sources.shape[-1]

    def __getitem__(self, i) -> "DeltaSpanOperator":
        """Operator i of a stack, checked with the stack and not again; a stack iterates over them."""
        if self.sources.ndim < 3:
            raise TypeError("only a stack of span operators has elements")
        op = object.__new__(DeltaSpanOperator)
        op.__dict__.update(sources=self.sources[i], targets=self.targets[i])
        return op

    def _match(self, bases: np.ndarray) -> np.ndarray:
        """Targets of the sources within 1e-12 of the bases (n, m), all matched at once."""
        dist = np.sqrt(np.square(bases[:, None, :] - self.sources).sum(axis=-1))
        outside = dist.min(axis=1) > 1e-12
        if outside.any():
            raise ValueError(f"delta at {bases[np.argmax(outside)].tolist()} is outside the operator span")
        return self.targets[dist.argmin(axis=1)]

    def apply(self, e: SpaceElement) -> SpaceElement:
        if self.sources.ndim > 2:
            raise TypeError("a stack of span operators acts through its elements")
        return _move_deltas(e, self._match, ValueError, "span operators")


def extend_to_span(g: GroupElement, points) -> DeltaSpanOperator:
    """Unique linear extension of the point action to the delta span.

    Points (n, m) give one operator.  Points (n, k, m), the convention of
    ``apply_point``, give a stack of k operators from one map call: under a
    stack of k maps, operator i is map i's on the points [:, i]; under one
    map, every operator is that map's.
    """
    pts = _points(points)
    if pts.ndim < 3:
        _require_single(g, "extend_to_span over points (n, m)")
        return DeltaSpanOperator(pts, apply_point(g, pts))
    if not _is_stack(g):  # one map takes a point (m,) or a stack (n, m), not (n, k, m)
        images = apply_point(g, pts.reshape(-1, pts.shape[-1])).reshape(pts.shape)
    elif g.matrix.shape[:-2] == pts.shape[1:2]:
        images = apply_point(g, pts)
    else:
        raise ValueError(f"a stack of {len(g.matrix)} maps extends over points (n, {len(g.matrix)}, m), "
                         f"not {pts.shape}")
    return DeltaSpanOperator(pts.swapaxes(0, 1), images.swapaxes(0, 1))


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
        return _move_deltas(e, lambda bases: apply_point(op, bases), NonAffineMapError, "non-affine maps")
    raise TypeError(f"cannot act with object of type {type(op).__name__}")


def check_gram_invariance(g: GroupElement, points, spec: KernelSpec) -> float:
    """Max absolute change of the kernel Gram matrix under the point action."""
    if spec.family != GAUSSIAN:
        raise ValueError("Gram invariance checks use the gaussian family")
    _require_single(g, "check_gram_invariance")
    pts = _points(points)
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
    _require_single(g, "transform_gram")
    if op.sources.ndim > 2:
        raise ValueError("transform_gram takes one span operator, not a stack")
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
    keys = set(record)
    if keys == {"galileo"}:
        spec = record["galileo"]
        _check_keys(spec, "galileo", {"axis", "angle", "v", "b", "c"},
                    {"axis", "angle"} if {"axis", "angle"} & set(spec) else set())
        rotation = rotation_matrix(spec["axis"], float(spec["angle"])) if "axis" in spec else np.eye(3)
        return GalileoElement(rotation, spec.get("v", np.zeros(3)), spec.get("b", np.zeros(3)),
                              spec.get("c", 0.0))
    if keys == {"diffeo"}:
        spec = record["diffeo"]
        _check_keys(spec, "diffeo", {"maps", "domain"}, {"maps", "domain"})
        return DiffeoMap.from_strings(spec["maps"], spec["domain"])
    if keys and keys <= {"boost", "rotation", "translation"}:
        element = PoincareElement.identity()
        if "rotation" in record:
            _check_keys(rot := record["rotation"], "rotation", {"axis", "angle"}, {"axis", "angle"})
            element = PoincareElement.rotation(rot["axis"], float(rot["angle"])) @ element
        if "boost" in record:
            element = PoincareElement.boost(record["boost"]) @ element
        if "translation" in record:
            element = PoincareElement.from_translation(record["translation"]) @ element
        return element
    raise ValueError(f"unrecognized group element config with keys {sorted(keys)}")


def _check_keys(spec: dict, kind: str, known: set, required: set) -> None:
    """Reject a record with a key outside ``known`` or without one of ``required``."""
    for keys, what in ((set(spec) - known, "unknown"), (required - set(spec), "missing")):
        if keys:
            raise ValueError(f"{what} {kind} keys: {sorted(keys)}")


def _draw_axis(rng: np.random.Generator) -> np.ndarray:
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-6:
        axis = rng.normal(size=3)
    return axis


def _poincare_draws(rng, max_rapidity: float = 2.0, translation_scale: float = 1.0) -> tuple:
    """One random Poincare element's draws, in order: axis, angle, rapidity, direction, shift."""
    return (_draw_axis(rng), rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, max_rapidity),
            rng.normal(size=3), rng.normal(scale=translation_scale, size=4))


def _poincare_stack(draws) -> PoincareElement:
    """The stack of rotation * boost * translation elements, one per draw of ``_poincare_draws``."""
    axes, angles, rapidities, directions, shifts = map(np.array, zip(*draws))
    speeds = np.array([math.tanh(r) for r in rapidities.tolist()])[:, None]  # np.tanh differs
    velocities = speeds * (directions / np.sqrt(_dots(directions))[:, None])
    return PoincareElement(_spatial_lorentz(rotation_matrix(axes, angles)) @ _boost_matrix(velocities),
                           shifts)


def _galileo_draws(rng) -> tuple:
    """One random Galileo element's draws, in order: axis, angle, velocity, shift, time shift."""
    return (_draw_axis(rng), rng.uniform(0.0, 2.0 * math.pi), rng.normal(scale=0.7, size=3),
            rng.normal(scale=1.0, size=3), rng.normal(scale=0.8))


def _galileo_stack(draws) -> GalileoElement:
    """The stack of Galileo elements, one per draw of ``_galileo_draws``."""
    axes, angles, velocities, shifts, time_shifts = map(np.array, zip(*draws))
    return GalileoElement(rotation_matrix(axes, angles), velocities, shifts, time_shifts)


def random_poincare(rng: np.random.Generator, max_rapidity: float = 2.0,
                    translation_scale: float = 1.0) -> PoincareElement:
    """Random rotation * boost * translation with bounded rapidity."""
    return _poincare_stack([_poincare_draws(rng, max_rapidity, translation_scale)])[0]


def random_galileo(rng: np.random.Generator) -> GalileoElement:
    return _galileo_stack([_galileo_draws(rng)])[0]
