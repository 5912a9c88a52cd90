"""Closed-form calculus for polynomial-times-Gaussian integrands.

Everything the element algebra computes reduces to manipulating functions
of the form

    F(z) = [sum_g c_g z^g] * exp(-1/2 z^T P z + q.z + r),   z in C^n,

with P complex symmetric.  Differentiation and partial substitution stay
inside the family; full integration over R^n has a closed form whenever
Re(P) is positive definite.  The integral branch of det(P)^(1/2) is the
product of the principal square roots of the pivots of unpivoted
elimination, all of which have positive real part when Re(P) is positive
definite.  Convergence is decided by a Cholesky factorization of the
symmetrized real part; eigenvalues are computed only to report a divergent
form.

The integral's factors and monomial moments are computed for a whole stack
of forms at once, so the element algebra integrates all pairs of an inner
product, of every term kind, in a few passes.  A derivative of a Gaussian
at a point is a moment too, with the covariance negated:

    d^g exp(-1/2 y^T P y + q.y) at b = exp(-1/2 b^T P b + q.b) M_g(q - P b, -P).

Moments are built bottom-up one total degree at a time, with no recursion,
and stop with IntegralOverflowError soon after a degree leaves the float
range.  mul_linear, a sparse polynomial {multi-index: coeff} times a linear
form row.z + shift, is the one step behind derivatives, coordinate factors,
affine substitutions and the chain rule of delta jets.  PolyGaussian keeps
the term-by-term calculus for the L2 inner product and the tests' oracle.
"""

import functools
import math

import numpy as np

from .errors import DivergentNormError, IntegralOverflowError

# Smallest admissible eigenvalue of the symmetrized real part of a
# quadratic form before the pair integral is declared divergent.
PD_TOLERANCE = 1e-10

# Moment plans over at most this many multi-indices are kept (about a
# megabyte each at n = 8); larger ones are rebuilt degree by degree on each
# use and never held whole.
_PLAN_CACHE_STATES = 4096

# A shared moment pass computes every multi-index up to the patterns' union
# for every pair of a stack; it is taken while pairs x multi-indices stays
# within this, which holds its per-degree arrays to about a megabyte.
_SHARED_PASS_STATES = 1 << 13

# Moments are checked for overflow once per this many degrees, which bounds
# the work done past an overflow without a check on every degree.
_OVERFLOW_CHECK_DEGREES = 32

_TWO_PI = 2.0 * np.pi


def _real_parts(quad) -> np.ndarray:
    re = np.asarray(quad).real
    return 0.5 * (re + np.swapaxes(re, -1, -2))


def min_real_eigenvalues(quad) -> np.ndarray:
    """Smallest eigenvalue of the symmetrized real part of each form in a (..., n, n) stack."""
    return np.linalg.eigvalsh(_real_parts(quad))[..., 0]


def min_real_eigenvalue(quad: np.ndarray) -> float:
    """Smallest eigenvalue of the symmetrized real part of ``quad``."""
    return float(min_real_eigenvalues(quad))


def require_convergent(quad) -> None:
    """Raise DivergentNormError for the first form of a (B, n, n) stack that diverges.

    A form diverges when the symmetrized real part has an eigenvalue
    <= PD_TOLERANCE.  A Cholesky factorization of sym - 2 PD_TOLERANCE I
    succeeds for a stack of forms clear of that threshold; only when it fails
    are the eigenvalues computed, to decide and to report the first bad form.
    """
    sym = _real_parts(quad)
    try:
        np.linalg.cholesky(sym - 2.0 * PD_TOLERANCE * np.eye(sym.shape[-1]))
    except np.linalg.LinAlgError:
        mins = np.linalg.eigvalsh(sym)[:, 0]
        bad = np.flatnonzero(mins <= PD_TOLERANCE)
        if bad.size:
            min_eig = float(mins[bad[0]])
            raise DivergentNormError(f"combined quadratic form is not positive definite "
                                     f"(min real-part eigenvalue {min_eig:.3e})",
                                     min_eigenvalue=min_eig) from None


def sqrt_det(quad: np.ndarray) -> np.ndarray:
    """det(P)^(1/2) of each form in a (B, n, n) stack whose real parts are positive definite.

    Unpivoted elimination keeps every Schur complement's real part positive
    definite, so each pivot lies in the right half plane.  The product of
    their principal square roots is continuous on the forms with positive
    definite real part and positive on real ones: the analytic branch.
    """
    a = np.array(quad, dtype=complex)
    B, n, _ = a.shape
    pivots = np.empty((n, B), dtype=complex)
    for k in range(n):
        pivot = pivots[k] = a[:, k, k]
        if k + 1 < n:
            a[:, k + 1:, k + 1:] -= (a[:, k + 1:, k] / pivot[:, None])[:, :, None] * a[:, None, k, k + 1:]
    return np.prod(np.sqrt(pivots), axis=0)


def require_finite(values, what: str):
    """``values`` unchanged, or IntegralOverflowError naming ``what``."""
    if not np.isfinite(values).all():
        raise IntegralOverflowError(f"{what} exceeds the float range")
    return values


def gaussian_factors(quad: np.ndarray, lin: np.ndarray, const=0.0):
    """Integral of exp(-1/2 z^T P z + q.z + const) over R^n for a stack of forms.

    ``quad`` is (B, n, n) with positive definite real parts, ``lin`` is
    (B, n) and ``const`` a scalar or (B,).  Returns the integrals (B,) together with the mean P^-1 q (B, n)
    and covariance P^-1 (B, n, n) of the normalized Gaussians.
    """
    n = quad.shape[-1]
    sigma = np.linalg.inv(quad)
    mu = (sigma @ lin[..., None])[..., 0]
    exponent = (lin[..., None, :] @ sigma @ lin[..., None])[..., 0, 0]
    base = _TWO_PI ** (0.5 * n) / sqrt_det(quad) * np.exp(0.5 * exponent + const)
    return base, mu, sigma


def _plan_levels(top: tuple[int, ...]):
    """Moment recursion steps for every multi-index g <= ``top``, by total degree.

    Yields one ``(index, step)`` per degree d, where ``index`` maps the
    multi-indices of degree d to their positions.  ``step`` is None at degree
    0.  Otherwise it is (weight, factor, source), three (S+1, W) arrays over
    slots and the W multi-indices g of degree d.  With i the first axis where
    g_i > 0 and rest = g - e_i, slot 0 is mu_i times the moment of rest; slot
    s > 0 is rest_j sigma_ij times the moment of rest - e_j, for the axes j
    with rest_j > 0 in increasing order.  ``factor`` indexes [sigma.ravel(),
    mu] and ``source`` indexes [degree d-1, degree d-2].  Short rows are
    padded with weight 0.
    """
    n = len(top)
    prev: dict = {}
    index = {(0,) * n: 0}
    yield index, None
    for _ in range(sum(top)):
        older, prev, index = prev, index, {}
        for g in prev:
            for k in range(n):
                if g[k] < top[k]:
                    index.setdefault(g[:k] + (g[k] + 1,) + g[k + 1:], len(index))
        columns = []
        for g in index:
            i = next(k for k, gk in enumerate(g) if gk)
            r = g[:i] + (g[i] - 1,) + g[i + 1:]
            columns.append([(1, n * n + i, prev[r])] + [
                (rj, i * n + j, len(prev) + older[r[:j] + (rj - 1,) + r[j + 1:]])
                for j, rj in enumerate(r) if rj])
        slots = max(map(len, columns))
        padded = [c + [(0, 0, 0)] * (slots - len(c)) for c in columns]
        weight, factor, source = np.array(padded, dtype=np.intp).transpose(2, 1, 0)
        yield index, (weight.astype(float), factor, source)


@functools.lru_cache(maxsize=64)
def _cached_plan(top: tuple[int, ...]) -> tuple:
    return tuple(_plan_levels(top))


def _moment_plan(top: tuple[int, ...]):
    if math.prod(k + 1 for k in top) <= _PLAN_CACHE_STATES:
        return _cached_plan(top)
    return _plan_levels(top)


def gaussian_moments(gammas: list[tuple[int, ...]], mu: np.ndarray,
                     sigma: np.ndarray) -> np.ndarray:
    """E[z^g] for each multi-index g of ``gammas`` under each Gaussian of a stack.

    ``mu`` is (B, n), ``sigma`` is (B, n, n) and the result is (len(gammas), B).
    Uses the recursion E[z_i z^g] = mu_i E[z^g] + sum_j g_j sigma_ij E[z^(g-e_j)],
    which follows from differentiating the moment generating function.  It
    runs upward one total degree at a time and holds only the two degrees
    below the current one, so no degree can exhaust the stack; every
    _OVERFLOW_CHECK_DEGREES degrees it stops if the moments left the float
    range.
    """
    B, n = mu.shape
    pending: dict = {}
    for k, g in enumerate(gammas):
        pending.setdefault(sum(g), []).append((k, g))
    out = np.empty((len(gammas), B), dtype=complex)
    factors = np.concatenate([sigma.reshape(B, n * n), mu], axis=1)
    below, cur = np.empty((B, 0), dtype=complex), np.ones((B, 1), dtype=complex)
    plan = _moment_plan(tuple(map(max, zip(*gammas))))
    with np.errstate(over="ignore", invalid="ignore"):
        for degree, (index, step) in enumerate(plan):
            if step is not None:
                weight, factor, source = step
                terms = factors[:, factor]
                terms *= weight
                terms *= np.concatenate([cur, below], axis=1)[:, source]
                below, cur = cur, np.add.reduce(terms, axis=1)
                if degree % _OVERFLOW_CHECK_DEGREES == 0:
                    require_finite(cur, f"the Gaussian moment of degree {degree} "
                                        f"(monomial degree up to {max(pending)})")
            for k, g in pending.pop(degree, ()):
                out[k] = cur[:, index[g]]
            if not pending:
                return out


def stacked_moments(gammas: list[tuple[int, ...]], ids: np.ndarray, mu: np.ndarray,
                    sigma: np.ndarray) -> np.ndarray:
    """E[z^g] with g = gammas[ids[b]] under the b-th Gaussian of a stack, shape (B,).

    The patterns that occur share one moment pass when the pairs times the
    multi-indices up to their union stay within _SHARED_PASS_STATES;
    otherwise each pattern gets a pass over its own pairs, so a large stack
    or patterns of high degree on different axes never multiply into one
    large pass.
    """
    used = np.flatnonzero(np.bincount(ids, minlength=len(gammas)))
    wanted = [gammas[k] for k in used.tolist()]
    out = np.ones(ids.size, dtype=complex)
    if not any(map(any, wanted)):
        return out
    if ids.size * math.prod(k + 1 for k in map(max, zip(*wanted))) <= _SHARED_PASS_STATES:
        row = np.zeros(len(gammas), dtype=np.intp)
        row[used] = np.arange(used.size)
        return gaussian_moments(wanted, mu, sigma)[row[ids], np.arange(ids.size)]
    for k, gamma in zip(used.tolist(), wanted):
        if any(gamma):
            members = np.flatnonzero(ids == k)
            out[members] = gaussian_moments([gamma], mu[members], sigma[members])[0]
    return out


def mul_linear(poly: dict, row, shift=0.0, axis=None) -> dict:
    """The sparse polynomial ``poly`` = {multi-index: coeff} times row.z + shift.

    With ``axis``, each monomial's derivative along it is added first, so
    mul_linear(poly, -P[a], q[a], a) is the polynomial of d/dz_a of
    poly * exp(-1/2 z^T P z + q.z).  Zero entries of ``row`` and a zero
    ``shift`` add no terms.
    """
    out: dict = {}

    def add(g, c):
        out[g] = out[g] + c if g in out else c

    for g, c in poly.items():
        if axis is not None and g[axis]:
            add(g[:axis] + (g[axis] - 1,) + g[axis + 1:], c * g[axis])
        if shift != 0:
            add(g, c * shift)
        for j, rj in enumerate(row):
            if rj != 0:
                add(g[:j] + (g[j] + 1,) + g[j + 1:], c * rj)
    return out


class PolyGaussian:
    """A polynomial multiplied by a complex Gaussian exponential."""

    __slots__ = ("poly", "quad", "lin", "const")

    def __init__(self, poly: dict, quad, lin, const: complex = 0.0):
        self.quad = np.array(quad, dtype=complex)
        self.lin = np.array(lin, dtype=complex).reshape(-1)
        self.const = complex(const)
        n = self.lin.shape[0]
        if self.quad.shape != (n, n):
            raise ValueError("quadratic form shape does not match dimension")
        self.poly = {}
        for g, c in poly.items():
            g = tuple(int(k) for k in g)
            if len(g) != n:
                raise ValueError("monomial length does not match dimension")
            c = complex(c)
            if c != 0:
                self.poly[g] = self.poly.get(g, 0.0) + c

    @property
    def dim(self) -> int:
        return self.lin.shape[0]

    def differentiate(self, axis: int) -> "PolyGaussian":
        """Partial derivative with respect to coordinate ``axis``."""
        poly = mul_linear(self.poly, -self.quad[axis], self.lin[axis], axis)
        return PolyGaussian(poly, self.quad, self.lin, self.const)

    def substitute(self, fixed: dict[int, complex]) -> "PolyGaussian":
        """Pin a subset of coordinates to values; returns the restriction."""
        keep = [i for i in range(self.dim) if i not in fixed]
        if not keep:
            raise ValueError("substitute must leave at least one coordinate; use evaluate")
        fix = sorted(fixed)
        w = np.array([fixed[i] for i in fix], dtype=complex)
        P = self.quad
        q = self.lin
        kept_rows = P[keep]
        fixed_rows = P[fix]
        new_quad = kept_rows[:, keep]
        new_lin = q[keep] - kept_rows[:, fix] @ w
        new_const = self.const + q[fix] @ w - 0.5 * (w @ fixed_rows[:, fix] @ w)
        new_poly: dict = {}
        for g, c in self.poly.items():
            factor = c
            for pos, i in enumerate(fix):
                if g[i]:
                    factor *= w[pos] ** g[i]
            key = tuple(g[i] for i in keep)
            if factor != 0:
                new_poly[key] = new_poly.get(key, 0.0) + factor
        return PolyGaussian(new_poly, new_quad, new_lin, new_const)

    def evaluate(self, z) -> complex:
        """Value of the function at a single point."""
        z = np.asarray(z, dtype=complex).reshape(-1)
        if z.shape[0] != self.dim:
            raise ValueError("point dimension mismatch")
        expo = -0.5 * (z @ self.quad @ z) + self.lin @ z + self.const
        total = 0.0 + 0.0j
        for g, c in self.poly.items():
            mono = c
            for zi, gi in zip(z, g):
                if gi:
                    mono *= zi ** gi
            total += mono
        return complex(total * np.exp(expo))

    def integrate(self) -> complex:
        """Integral over all of R^n.

        Raises DivergentNormError when the symmetrized real part of the
        quadratic form has an eigenvalue <= PD_TOLERANCE.
        """
        if not self.poly:
            return 0.0 + 0.0j
        require_convergent(self.quad[None])
        base, mu, sigma = gaussian_factors(self.quad[None], self.lin[None], self.const)
        moments = gaussian_moments(list(self.poly), mu, sigma)[:, 0].tolist()
        total = 0.0 + 0.0j
        for c, m in zip(self.poly.values(), moments):
            total += c * m
        return complex(require_finite(base[0] * total, "the integral"))
