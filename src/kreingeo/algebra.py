"""Closed-form inner products, norms and parity splits of elements.

The sesquilinear form is

    (f, g) = prefactor * int int k(x, y) f(x) conj(g(y)) dx dy,

with k = exp(-1/2 z^T K z) on z = (x, y) and K = [[S, -S], [-S, S]].  A
Gaussian term's variable is integrated.  A delta jet c d^alpha delta_beta
pins its variable at beta and, by parts, differentiates the kernel there
with the sign (-1)^|alpha|.  With I the integrated and J the pinned
variables, Q = K + diag(A1 or 0, conj A2 or 0) and l = (b1 or 0, conj b2 or
0), every pair is one Schur complement step,

    base, m, W = gaussian_factors(Q_II, l_I - K_IJ z_J, -1/2 z_J^T K_JJ z_J),

times the moment of the joined monomials and jet orders under the mean
(m, -(K_JI m + K_JJ z_J)) and covariance
[[W, -W K_IJ], [-K_JI W, K_JI W K_IJ - K_JJ]].  With J empty this is a
Gaussian integral, and with I empty a kernel derivative.  Gaussian
variables come first, and K is unchanged when x and y swap, so Gaussian x
jet pairs of both argument orders share one stack.  An inner product is
three stacked passes of the moment engine of polygauss, in chunks of
PAIR_CHUNK pairs: Gaussian pairs, Gaussian x jet pairs, then jet pairs.

A pair whose Q_II has a real part with an eigenvalue <= PD_TOLERANCE raises
DivergentNormError.  Pairs are checked in the order Gaussian pairs,
Gaussian x jet row by row, then jet x Gaussian.  That is the first divergent
pair a term-by-term sum would meet: a Gaussian x jet pair of an earlier row
diverges only if S + Re(A1) is not positive definite, and that block sits
inside each Gaussian pair form of the row.
"""

import functools
import operator
from typing import NamedTuple

import numpy as np

from .elements import GaussianTerm, SpaceElement
from .kernels import GAUSSIAN, KernelSpec, Signature
from .polygauss import gaussian_factors, min_real_eigenvalues, require_convergent, require_finite, stacked_moments

IMAG_TOLERANCE = 1e-12

# Pairs are stacked at most this many at a time, so the (B, 2p, 2p) arrays
# of a batch stay near a megabyte however many terms the mixtures have.
PAIR_CHUNK = 1024


class _Side(NamedTuple):
    """Terms as they enter the integrand: conjugated on the right, and a jet's
    coefficient times (-1)^|alpha|.  Jets have no ``quad``."""

    coeff: np.ndarray
    quad: np.ndarray | None
    point: np.ndarray
    keys: list


def _gaussian_side(terms, conj: bool = False) -> _Side | None:
    if not terms:
        return None
    coeff = np.array([t.coeff for t in terms])
    quad = np.array([t.quad for t in terms])
    lin = np.array([t.lin for t in terms])
    if conj:
        coeff, quad, lin = coeff.conj(), quad.conj(), lin.conj()
    return _Side(coeff, quad, lin, [t.poly for t in terms])


def _jet_side(terms, conj: bool = False) -> _Side | None:
    if not terms:
        return None
    coeff = np.array([t.coeff * (-1.0) ** t.order for t in terms])
    return _Side(coeff.conj() if conj else coeff, None, np.array([t.base for t in terms]),
                 [t.orders for t in terms])


def _passes(e1: SpaceElement, e2: SpaceElement) -> list:
    """The three passes of (e1, e2), each its number of Gaussian sides and
    its (left, right) blocks, Gaussian sides first; empty sides are None."""
    g1, g2 = _gaussian_side(e1.gaussians), _gaussian_side(e2.gaussians, conj=True)
    d1, d2 = _jet_side(e1.deltas), _jet_side(e2.deltas, conj=True)
    return [(2, [(g1, g2)]), (1, [(g1, d2), (g2, d1)]), (0, [(d1, d2)])]


def _stacked(blocks: list) -> tuple:
    """The left and the right sides of the blocks of a pass, each stacked in turn."""
    if len(blocks) == 1:
        return blocks[0]
    stacked = []
    for sides in zip(*blocks):
        coeff, quad, point, keys = zip(*sides)
        stacked.append(_Side(np.concatenate(coeff), None if quad[0] is None else np.concatenate(quad),
                             np.concatenate(point), [k for side_keys in keys for k in side_keys]))
    return tuple(stacked)


@functools.lru_cache(maxsize=64)
def _kernel_blocks(spec: KernelSpec, gaussians: int) -> tuple:
    """(K_II, -K_IJ, -K_JI, K_JJ) of the kernel's form on (x, y) when the
    first ``gaussians`` of the two sides are Gaussian; read-only."""
    S = spec.signed_quad()
    K = np.block([[S, -S], [-S, S]]).astype(complex)
    K.flags.writeable = False
    n = gaussians * spec.dim
    return K[:n, :n], -K[:n, n:], -K[n:, :n], K[n:, n:]


def _patterns(keys) -> tuple[list, np.ndarray]:
    """Distinct monomial patterns of ``keys`` and each key's pattern id."""
    ids: dict = {}
    pid = np.array([ids.setdefault(k, len(ids)) for k in keys], dtype=np.intp)
    return list(ids), pid


def _pair_layout(left: _Side, right: _Side, join=operator.add):
    """Coefficient products of all pairs, flat in row-major order, and the
    joined patterns of the pairs with their ids."""
    coeff = (left.coeff[:, None] * right.coeff[None, :]).reshape(-1)
    polys1, pid1 = _patterns(left.keys)
    polys2, pid2 = _patterns(right.keys)
    patterns = [join(a, b) for a in polys1 for b in polys2]
    return coeff, patterns, (pid1[:, None] * len(polys2) + pid2[None, :]).reshape(-1)


def _live_chunks(coeff: np.ndarray, width: int):
    """Row and column indices of the pairs with a nonzero coefficient
    product, with their flat keys, PAIR_CHUNK pairs at a time."""
    live = np.flatnonzero(coeff)
    for start in range(0, live.size, PAIR_CHUNK):
        keys = live[start:start + PAIR_CHUNK]
        yield keys, *np.divmod(keys, width)


def _pair_stacks(gaussians: int, blocks: list, sides: tuple, kernel: tuple):
    """The pairs inside the blocks of a pass, on the grid of their stacked
    ``sides`` in row-major order, PAIR_CHUNK at a time, without those whose
    coefficient product is zero.  Each chunk is (keys, coeff, quad, lin, z,
    (patterns, ids)): flat grid indices, coefficient products, forms Q_II,
    l_I and z_J (None when empty), and each pair's joined pattern id."""
    coeff, patterns, pattern_id = _pair_layout(*sides)
    grid, i, j = coeff.reshape(len(sides[0].coeff), -1), 0, 0
    for left, right in blocks[:-1]:
        i, j = i + len(left.coeff), j + len(right.coeff)
        grid[:i, j:] = grid[i:, :j] = 0.0
    p = sides[0].point.shape[1]
    for keys, *rows in _live_chunks(coeff, len(sides[1].coeff)):
        quad = np.repeat(kernel[0][None], keys.size, axis=0)
        for k in range(gaussians):
            quad[:, k * p:(k + 1) * p, k * p:(k + 1) * p] += sides[k].quad[rows[k]]
        points = [side.point[r] for side, r in zip(sides, rows)]
        lin = np.concatenate(points[:gaussians], axis=1) if gaussians else None
        z = np.concatenate(points[gaussians:], axis=1) if gaussians < 2 else None
        yield keys, coeff[keys], quad, lin, z, (patterns, pattern_id[keys])


def _pair_values(gaussians: int, blocks: list, out: list, spec: KernelSpec) -> None:
    """Write the pair integrals of each (left, right) block of a pass to ``out``.

    Raises DivergentNormError for the first pair, block by block and row by
    row, whose form Q_II does not have a positive definite real part, and
    IntegralOverflowError for the first value beyond the float range.
    """
    live = [k for k, block in enumerate(blocks) if None not in block]
    if not live:
        return
    blocks = [blocks[k] for k in live]
    _, n_ij, n_ji, k_jj = kernel = _kernel_blocks(spec, gaussians)
    left, right = sides = _stacked(blocks)
    values = np.zeros((len(left.coeff), len(right.coeff)), dtype=complex)
    for keys, coeff, quad, lin, z, (patterns, ids) in _pair_stacks(gaussians, blocks, sides, kernel):
        if z is None:  # nothing pinned: a Gaussian integral
            require_convergent(quad)
            base, mu, sigma = gaussian_factors(quad, lin)
        else:
            kz = z @ k_jj
            const = -0.5 * (kz * z).sum(axis=1)
            if lin is None:  # nothing integrated: kernel derivatives at z_J
                base, mu, sigma = np.exp(const), -kz, np.broadcast_to(-k_jj, (keys.size, *k_jj.shape))
            else:  # the Schur complement step over z_I
                require_convergent(quad)
                base, m, w = gaussian_factors(quad, lin + z @ n_ji, const)
                cross = w @ n_ij
                mu = np.concatenate([m, m @ n_ij - kz], axis=1)
                sigma = np.concatenate([np.concatenate([w, cross], axis=2),
                                        np.concatenate([cross.swapaxes(1, 2), n_ji @ cross - k_jj], axis=2)], axis=1)
        moments = stacked_moments(patterns, ids, mu, sigma)
        values.flat[keys] = require_finite(base * (coeff * moments), "a pair integral")
    i = j = 0
    for k in live:
        n, m = out[k].shape
        out[k][...], i, j = values[i:i + n, j:j + m], i + n, j + m


def _ordered_sum(values: np.ndarray) -> complex:
    """Sum of ``values`` in the order of a loop over them."""
    total = 0.0 + 0.0j
    for value in values.ravel().tolist():
        total += value
    return total


def inner_product(e1: SpaceElement, e2: SpaceElement, spec: KernelSpec) -> complex:
    """Sesquilinear kernel inner product of two elements (Gaussian family)."""
    if spec.family != GAUSSIAN:
        raise ValueError("closed-form inner products are defined for the gaussian family")
    if e1.dim != spec.dim or e2.dim != spec.dim:
        raise ValueError(f"element dimensions ({e1.dim}, {e2.dim}) do not match kernel dimension {spec.dim}")
    # Term pairs in the order of a loop over the terms of e1, then of e2.
    n1, n2 = len(e1.gaussians), len(e2.gaussians)
    pairs = np.zeros((n1 + len(e1.deltas), n2 + len(e2.deltas)), dtype=complex)
    out = [[pairs[:n1, :n2]], [pairs[:n1, n2:], pairs[n1:, :n2].T], [pairs[n1:, n2:]]]
    with np.errstate(over="ignore", invalid="ignore"):  # require_finite reports overflow
        for (gaussians, blocks), block_out in zip(_passes(e1, e2), out):
            _pair_values(gaussians, blocks, block_out, spec)
    return spec.prefactor() * _ordered_sum(pairs)


def norm_squared(e: SpaceElement, spec: KernelSpec) -> float:
    """Real squared norm (f, f); may be negative for indefinite signatures."""
    value = inner_product(e, e, spec)
    if abs(value.imag) > IMAG_TOLERANCE * abs(value) + 1e-14:
        raise ValueError(f"squared norm has a non-negligible imaginary part: {value}")
    return value.real


def l2_inner_product(e1: SpaceElement, e2: SpaceElement) -> complex:
    """Plain L2 inner product int f conj(g); Gaussian terms only.

    Each pair is the Gaussian integral of the form A1 + conj A2 and linear
    part b1 + conj b2 against the monomial poly1 + poly2.
    """
    if e1.dim != e2.dim:
        raise ValueError("element dimension mismatch")
    e1._require_gaussian_only("L2 inner product")
    e2._require_gaussian_only("L2 inner product")
    left, right = _gaussian_side(e1.gaussians), _gaussian_side(e2.gaussians, conj=True)
    if left is None or right is None:
        return 0j
    coeff, patterns, pattern_id = _pair_layout(left, right, lambda a, b: tuple(map(operator.add, a, b)))
    values = np.zeros(coeff.size, dtype=complex)
    for keys, i, j in _live_chunks(coeff, len(right.coeff)):
        quad = left.quad[i] + right.quad[j]
        require_convergent(quad)
        base, mu, sigma = gaussian_factors(quad, left.point[i] + right.point[j])
        moments = stacked_moments(patterns, pattern_id[keys], mu, sigma)
        values[keys] = require_finite(base * (coeff[keys] * moments), "an L2 pair integral")
    return _ordered_sum(values)


def _terms_match(a: GaussianTerm, b: GaussianTerm, tol: float = 1e-14) -> bool:
    if a.poly != b.poly:
        return False
    scale = max(1.0, abs(a.coeff), float(np.max(np.abs(a.quad))), float(np.max(np.abs(a.lin))))
    return (abs(a.coeff - b.coeff) <= tol * scale
            and np.max(np.abs(a.quad - b.quad)) <= tol * scale
            and np.max(np.abs(a.lin - b.lin)) <= tol * scale)


def even_odd_split(e: SpaceElement, signature: Signature) -> tuple[SpaceElement, SpaceElement]:
    """Split into components even and odd under negative-coordinate reflection.

    Delta jets are accepted only when their base point has no component in
    the negative-signature directions; their parity is then the parity of
    the total derivative order along those directions.
    """
    if signature.dim != e.dim:
        raise ValueError("signature dimension mismatch")
    r = signature.signs()
    even_g, odd_g = [], []
    for t in e.gaussians:
        tr = t.reflected(signature)
        if _terms_match(tr, t):
            even_g.append(t)
        elif _terms_match(tr, t.scaled(-1.0)):
            odd_g.append(t)
        else:
            even_g.extend([t.scaled(0.5), tr.scaled(0.5)])
            odd_g.extend([t.scaled(0.5), tr.scaled(-0.5)])
    even_d, odd_d = [], []
    for t in e.deltas:
        if any(abs(v) > 0 for v, s in zip(t.base, r) if s < 0):
            raise ValueError("delta jets with nonzero negative-signature base "
                             "coordinates have no supported parity split")
        neg_order = sum(k for k, s in zip(t.orders, r) if s < 0)
        (odd_d if neg_order % 2 else even_d).append(t)
    even = SpaceElement(e.dim, tuple(even_g), tuple(even_d))
    odd = SpaceElement(e.dim, tuple(odd_g), tuple(odd_d))
    return even, odd


def combined_form_min_eigenvalue(e1: SpaceElement, e2: SpaceElement,
                                 spec: KernelSpec) -> float:
    """Smallest real-part eigenvalue over all pair integrals of (e1, e2).

    This is the quantity whose sign decides DivergentNormError; exposed so
    tests can check the trigger against an explicit eigenvalue computation.
    It reads the forms Q_II of inner_product's stacks, which leave out
    pairs whose coefficient product is zero; jet pairs have none.
    """
    worst = np.inf
    for gaussians, blocks in _passes(e1, e2)[:2]:
        blocks = [block for block in blocks if None not in block]
        kernel = _kernel_blocks(spec, gaussians)
        for _, _, quad, *_ in _pair_stacks(gaussians, blocks, _stacked(blocks), kernel) if blocks else ():
            worst = min(worst, float(min_real_eigenvalues(quad).min()))
    return float(worst)
