"""Representable elements: complex Gaussian mixtures plus delta jets.

A :class:`SpaceElement` is a finite linear combination of

* Gaussian terms  c * z^poly * exp(-1/2 z^T A z + b.z)  with Re(A) positive
  definite (so each term is absolutely integrable), and
* delta-jet terms c * d^alpha delta(z - a)  with total derivative order
  capped at :data:`JET_ORDER_CAP`.

The monomial factor z^poly keeps the family closed under coordinate
multiplication, differentiation and Hamiltonian application; inner products
remain closed-form Gaussian moment integrals.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .kernels import Signature
from .polygauss import mul_linear

JET_ORDER_CAP = 2

_SYM_TOL = 1e-12


def _as_complex_matrix(m, p: int) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    if a.shape != (p, p):
        raise ValueError(f"quadratic form must be {p}x{p}")
    size = float(np.max(np.abs(a)))
    if not math.isfinite(size):
        raise ValueError("quadratic form must be finite")
    scale = max(1.0, size)
    if np.max(np.abs(a - a.T)) > _SYM_TOL * scale:
        raise ValueError("quadratic form must be symmetric")
    return 0.5 * (a + a.T)


@dataclass(frozen=True, eq=False)
class GaussianTerm:
    """One term  coeff * z^poly * exp(-1/2 z^T quad z + lin.z)."""

    coeff: complex
    quad: np.ndarray
    lin: np.ndarray
    poly: tuple[int, ...] = ()

    def __post_init__(self):
        coeff = complex(self.coeff)
        lin = np.atleast_1d(np.asarray(self.lin, dtype=complex))
        p = lin.shape[0]
        quad = _as_complex_matrix(self.quad, p)
        if not (cmath.isfinite(coeff) and np.isfinite(lin).all()):
            raise ValueError("Gaussian term coefficient and linear part must be finite")
        poly = tuple(int(k) for k in self.poly) if self.poly else (0,) * p
        if len(poly) != p:
            raise ValueError("monomial powers must match the dimension")
        if any(k < 0 for k in poly):
            raise ValueError("monomial powers must be nonnegative")
        if np.linalg.eigvalsh(quad.real)[0] <= 0.0:
            raise ValueError("real part of the quadratic form must be positive definite")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "poly", poly)

    @property
    def dim(self) -> int:
        return self.lin.shape[0]

    def _sibling(self, coeff: complex, poly=None, quad=None, lin=None) -> "GaussianTerm":
        """A term on this term's validated form, or on its conjugate or reflection.

        Only the new coefficient is checked, for finiteness; ``poly``,
        ``quad`` and ``lin`` default to this term's own.
        """
        coeff = complex(coeff)
        if not cmath.isfinite(coeff):
            raise ValueError("Gaussian term coefficient must be finite")
        twin = object.__new__(GaussianTerm)
        object.__setattr__(twin, "coeff", coeff)
        object.__setattr__(twin, "quad", self.quad if quad is None else quad)
        object.__setattr__(twin, "lin", self.lin if lin is None else lin)
        object.__setattr__(twin, "poly", self.poly if poly is None else poly)
        return twin

    def scaled(self, factor: complex) -> "GaussianTerm":
        return self._sibling(self.coeff * factor)

    def reflected(self, signature: Signature) -> "GaussianTerm":
        """Composition with the reflection of all negative-signature coordinates."""
        r = signature.signs()
        sign = (-1.0) ** sum(k for k, s in zip(self.poly, r) if s < 0)
        return self._sibling(self.coeff * sign, quad=self.quad * np.outer(r, r), lin=self.lin * r)


@dataclass(frozen=True, eq=False)
class DeltaJetTerm:
    """One term  coeff * d^orders delta(z - base)."""

    coeff: complex
    base: np.ndarray
    orders: tuple[int, ...] = ()

    def __post_init__(self):
        base = np.atleast_1d(np.asarray(self.base, dtype=float))
        p = base.shape[0]
        orders = tuple(int(k) for k in self.orders) if self.orders else (0,) * p
        if len(orders) != p:
            raise ValueError("derivative orders must match the dimension")
        if any(k < 0 for k in orders):
            raise ValueError("derivative orders must be nonnegative")
        if sum(orders) > JET_ORDER_CAP:
            raise ValueError(f"total jet order exceeds the cap of {JET_ORDER_CAP}")
        if not np.all(np.isfinite(base)):
            raise ValueError("base point must be finite")
        coeff = complex(self.coeff)
        if not cmath.isfinite(coeff):
            raise ValueError("delta-jet coefficient must be finite")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "orders", orders)

    @property
    def dim(self) -> int:
        return self.base.shape[0]

    @property
    def order(self) -> int:
        return sum(self.orders)

    def scaled(self, factor: complex) -> "DeltaJetTerm":
        return DeltaJetTerm(self.coeff * factor, self.base, self.orders)


@dataclass(frozen=True, eq=False)
class SpaceElement:
    """Finite linear combination of Gaussian terms and delta jets in R^dim."""

    dim: int
    gaussians: tuple[GaussianTerm, ...] = ()
    deltas: tuple[DeltaJetTerm, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gaussians", tuple(self.gaussians))
        object.__setattr__(self, "deltas", tuple(self.deltas))
        for t in self.gaussians:
            if t.dim != self.dim:
                raise ValueError("all terms must share the ambient dimension")
        for t in self.deltas:
            if t.dim != self.dim:
                raise ValueError("all terms must share the ambient dimension")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "SpaceElement":
        return cls(dim)

    @classmethod
    def delta(cls, base, coeff: complex = 1.0, orders=None) -> "SpaceElement":
        base = np.atleast_1d(np.asarray(base, dtype=float))
        term = DeltaJetTerm(coeff, base, tuple(orders) if orders is not None else ())
        return cls(base.shape[0], deltas=(term,))

    @classmethod
    def gaussian(cls, quad, lin=None, coeff: complex = 1.0, poly=None) -> "SpaceElement":
        quad = np.asarray(quad, dtype=complex)
        if quad.ndim == 0:
            quad = quad.reshape(1, 1)
        p = quad.shape[0]
        lin = np.zeros(p) if lin is None else lin
        term = GaussianTerm(coeff, quad, lin, tuple(poly) if poly is not None else ())
        return cls(p, gaussians=(term,))

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "SpaceElement") -> "SpaceElement":
        if not isinstance(other, SpaceElement):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("cannot add elements of different dimensions")
        return SpaceElement(self.dim, self.gaussians + other.gaussians,
                            self.deltas + other.deltas)

    def __sub__(self, other: "SpaceElement") -> "SpaceElement":
        return self + (-other)

    def __neg__(self) -> "SpaceElement":
        return self * (-1.0)

    def __mul__(self, scalar) -> "SpaceElement":
        scalar = complex(scalar)
        return SpaceElement(self.dim,
                            tuple(t.scaled(scalar) for t in self.gaussians),
                            tuple(t.scaled(scalar) for t in self.deltas))

    __rmul__ = __mul__

    @property
    def is_zero(self) -> bool:
        return not self.gaussians and not self.deltas

    def _require_gaussian_only(self, what: str):
        if self.deltas:
            raise ValueError(f"{what} is defined only for Gaussian-term elements")

    # -- pointwise and calculus operations ------------------------------------

    def evaluate(self, points) -> np.ndarray:
        """Values at an (N, dim) array of points (Gaussian terms only)."""
        self._require_gaussian_only("pointwise evaluation")
        pts = np.asarray(points, dtype=float)
        squeeze = False
        if pts.ndim == 1:
            pts = pts[:, None] if self.dim == 1 else pts[None, :]
            squeeze = self.dim > 1
        if pts.shape[-1] != self.dim:
            raise ValueError("point dimension mismatch")
        out = np.zeros(pts.shape[0], dtype=complex)
        for t in self.gaussians:
            expo = -0.5 * np.einsum("ni,ij,nj->n", pts, t.quad, pts) + pts @ t.lin
            mono = np.ones(pts.shape[0], dtype=complex)
            for i, k in enumerate(t.poly):
                if k:
                    mono = mono * pts[:, i] ** k
            out += t.coeff * mono * np.exp(expo)
        return out[0] if squeeze else out

    def derivative(self, axis: int) -> "SpaceElement":
        """Partial derivative along one coordinate (Gaussian terms only)."""
        self._require_gaussian_only("differentiation")
        if not 0 <= axis < self.dim:
            raise ValueError("axis out of range")
        return self._map_polys(lambda t: mul_linear({t.poly: t.coeff}, -t.quad[axis],
                                                    t.lin[axis], axis))

    def mul_coord(self, axis: int) -> "SpaceElement":
        """Multiplication by the coordinate function z_axis (Gaussian terms only)."""
        self._require_gaussian_only("coordinate multiplication")
        if not 0 <= axis < self.dim:
            raise ValueError("axis out of range")
        row = np.eye(self.dim)[axis]
        return self._map_polys(lambda t: mul_linear({t.poly: t.coeff}, row))

    def _map_polys(self, step) -> "SpaceElement":
        """Each Gaussian term t replaced by the terms of the polynomial ``step(t)``."""
        return SpaceElement(self.dim, tuple(t._sibling(c, g) for t in self.gaussians
                                            for g, c in step(t).items()))

    def reflected(self, signature: Signature) -> "SpaceElement":
        """Composition with the reflection of negative-signature coordinates."""
        if signature.dim != self.dim:
            raise ValueError("signature dimension mismatch")
        r = signature.signs()
        gaussians = tuple(t.reflected(signature) for t in self.gaussians)
        deltas = []
        for t in self.deltas:
            sign = (-1.0) ** sum(k for k, s in zip(t.orders, r) if s < 0)
            deltas.append(DeltaJetTerm(t.coeff * sign, t.base * r, t.orders))
        return SpaceElement(self.dim, gaussians, tuple(deltas))

    # -- affine maps -----------------------------------------------------------

    def compose_affine(self, matrix, offset) -> "SpaceElement":
        """Substitution z -> M z + w: returns the element u -> self(M u + w)."""
        self._require_gaussian_only("affine composition")
        M = np.asarray(matrix, dtype=float)
        w = np.atleast_1d(np.asarray(offset, dtype=float))
        if M.shape != (self.dim, self.dim) or w.shape != (self.dim,):
            raise ValueError("affine map shape mismatch")
        terms = []
        for t in self.gaussians:
            coeff = t.coeff * np.exp(-0.5 * (w @ t.quad @ w) + t.lin @ w)
            form = GaussianTerm(coeff, M.T @ t.quad @ M, M.T @ (t.lin - t.quad @ w))
            # Expand the monomial prod_i (row_i.u + w_i)^k_i into monomials in u.
            poly = {form.poly: coeff}
            for i, k in enumerate(t.poly):
                for _ in range(k):
                    poly = mul_linear(poly, M[i], w[i])
            terms.extend(form._sibling(c, mono) for mono, c in poly.items() if c != 0)
        return SpaceElement(self.dim, tuple(terms))

    def pushforward_affine(self, matrix, offset) -> "SpaceElement":
        """The map f -> f o g^{-1} for the affine map g(z) = M z + w.

        Gaussian terms transform by substitution with g^{-1}; delta jets map
        to jets at the image point, with the |det M| factor of the
        distributional change of variables and derivative directions carried
        through the chain rule.
        """
        M = np.asarray(matrix, dtype=float)
        w = np.atleast_1d(np.asarray(offset, dtype=float))
        if M.shape != (self.dim, self.dim) or w.shape != (self.dim,):
            raise ValueError("affine map shape mismatch")
        det = np.linalg.det(M)
        if abs(det) < 1e-14:
            raise ValueError("affine map must be invertible")
        Minv = np.linalg.inv(M)
        gauss_part = SpaceElement(self.dim, self.gaussians).compose_affine(Minv, -Minv @ w)
        deltas = []
        for t in self.deltas:
            target = M @ t.base + w
            for orders, c in _transform_jet(t.orders, M).items():
                deltas.append(DeltaJetTerm(t.coeff * abs(det) * c, target, orders))
        return SpaceElement(self.dim, gauss_part.gaussians, tuple(deltas))

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready record with complex numbers as [re, im] pairs."""
        return {
            "dim": self.dim,
            "gaussians": [
                {
                    "coeff": [t.coeff.real, t.coeff.imag],
                    "quad": [[[v.real, v.imag] for v in row] for row in t.quad],
                    "lin": [[v.real, v.imag] for v in t.lin],
                    "poly": list(t.poly),
                }
                for t in self.gaussians
            ],
            "deltas": [
                {
                    "coeff": [t.coeff.real, t.coeff.imag],
                    "base": [float(v) for v in t.base],
                    "orders": list(t.orders),
                }
                for t in self.deltas
            ],
        }

    @classmethod
    def from_dict(cls, record: dict) -> "SpaceElement":
        dim = int(record["dim"])

        def c(pair):
            return complex(pair[0], pair[1])

        gaussians = tuple(
            GaussianTerm(
                c(g["coeff"]),
                np.array([[c(v) for v in row] for row in g["quad"]]),
                np.array([c(v) for v in g["lin"]]),
                tuple(g["poly"]),
            )
            for g in record.get("gaussians", [])
        )
        deltas = tuple(
            DeltaJetTerm(c(d["coeff"]), np.array(d["base"]), tuple(d["orders"]))
            for d in record.get("deltas", [])
        )
        return cls(dim, gaussians, deltas)


def _transform_jet(orders: tuple[int, ...], M: np.ndarray) -> dict:
    """Rewrite d^orders in source coordinates as jets in image coordinates.

    Under zeta = M^{-1}(z - w) one has d/d zeta_i = sum_r M_ri d/d z_r, so a
    multi-index derivative expands into a combination of image derivatives of
    the same total order.
    """
    result = {(0,) * len(orders): 1.0}
    for i, k in enumerate(orders):
        for _ in range(k):
            result = mul_linear(result, M[:, i])
    return result
