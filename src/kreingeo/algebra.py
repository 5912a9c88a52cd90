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
jet pairs of both argument orders share one stack.  A batch of element
pairs (inner_products; inner_product is a batch of one) is three stacked
passes of the moment engine of polygauss, in chunks of PAIR_CHUNK term
pairs: Gaussian pairs, Gaussian x jet pairs, then jet pairs.  A pass is a
list of blocks, each a left and a right term range and the place of their
pairs in the (n1 + d1) x (n2 + d2) term-pair matrix of their element pair,
which is summed in the order of a loop over its terms.

A pair whose Q_II has a real part with an eigenvalue <= PD_TOLERANCE raises
DivergentNormError.  Within an element pair, pairs are checked in the order
Gaussian pairs, Gaussian x jet row by row, then jet x Gaussian.  That is the
first divergent pair a term-by-term sum would meet: a Gaussian x jet pair of
an earlier row diverges only if S + Re(A1) is not positive definite, and
that block sits inside each Gaussian pair form of the row.  A batch that
raises is rerun one element pair at a time, so it raises the error that a
loop of inner_product calls meets first.
"""

import functools
import operator
from typing import NamedTuple

import numpy as np

from .elements import GaussianTerm, SpaceElement
from .errors import DivergentNormError, IntegralOverflowError
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


def _passes(e1: SpaceElement, e2: SpaceElement, origin: int = 0) -> list:
    """The nonempty blocks of (e1, e2) in each pass, Gaussian sides first.  A block (left, right,
    origin, strides) puts pair (i, j) of its term ranges at origin + i * strides[0] + j * strides[1]
    of the flat term-pair matrices; that of (e1, e2) starts at ``origin``."""
    g1, g2 = _gaussian_side(e1.gaussians), _gaussian_side(e2.gaussians, conj=True)
    d1, d2 = _jet_side(e1.deltas), _jet_side(e2.deltas, conj=True)
    n1, n2, width = len(e1.gaussians), len(e2.gaussians), len(e2.gaussians) + len(e2.deltas)
    passes = [[(g1, g2, origin, (width, 1))],
              [(g1, d2, origin + n2, (width, 1)), (g2, d1, origin + n1 * width, (1, width))],
              [(d1, d2, origin + n1 * width + n2, (width, 1))]]
    return [[block for block in blocks if None not in block[:2]] for blocks in passes]


def _stacked(blocks: list) -> tuple:
    """The left and the right sides of the blocks of a pass, each stacked in turn."""
    if len(blocks) == 1:
        return blocks[0][:2]
    stacked = []
    for sides in zip(*(block[:2] for block in blocks)):
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


@functools.lru_cache(maxsize=256)
def _block_index(n: int, m: int, strides: tuple) -> np.ndarray:
    """Rows, columns and destination offsets of the n x m pairs of a block, row-major; read-only."""
    r, c = np.divmod(np.arange(n * m), m)
    index = np.stack([r, c, r * strides[0] + c * strides[1]])
    index.flags.writeable = False
    return index


def _pair_layout(blocks: list, join=operator.add):
    """Stacked sides, joined patterns, and the pairs with a nonzero coefficient product, row-major block by
    block, PAIR_CHUNK at a time: destinations, left and right rows, coefficients and joined pattern ids."""
    sides = left, right = _stacked(blocks)
    index, i, j = [], 0, 0
    for block_left, block_right, origin, strides in blocks:
        n, m = len(block_left.coeff), len(block_right.coeff)
        r, c, d = _block_index(n, m, strides)
        index.append((r + i, c + j, d + origin))
        i, j = i + n, j + m
    rows, cols, dest = index[0] if len(index) == 1 else map(np.concatenate, zip(*index))
    coeff = left.coeff[rows] * right.coeff[cols]
    live = np.flatnonzero(coeff)
    if live.size < coeff.size:
        rows, cols, dest, coeff = rows[live], cols[live], dest[live], coeff[live]
    polys1, pid1 = _patterns(left.keys)
    polys2, pid2 = _patterns(right.keys)
    pairs = dest, rows, cols, coeff, pid1[rows] * len(polys2) + pid2[cols]
    chunks = ([a[k:k + PAIR_CHUNK] for a in pairs] for k in range(0, live.size, PAIR_CHUNK))
    return sides, [join(a, b) for a in polys1 for b in polys2], chunks


def _pair_stacks(gaussians: int, blocks: list, kernel: tuple):
    """The pairs inside the blocks of a pass, PAIR_CHUNK at a time, without
    those whose coefficient product is zero.  Each chunk is (dest, coeff,
    quad, lin, z, (patterns, ids)): destinations, coefficient products, forms
    Q_II, l_I and z_J (None when empty), and each pair's joined pattern id."""
    sides, patterns, chunks = _pair_layout(blocks)
    p = sides[0].point.shape[1]
    for dest, *rows, coeff, ids in chunks:
        quad = np.repeat(kernel[0][None], dest.size, axis=0)
        for k in range(gaussians):
            quad[:, k * p:(k + 1) * p, k * p:(k + 1) * p] += sides[k].quad[rows[k]]
        points = [side.point[r] for side, r in zip(sides, rows)]
        lin = np.concatenate(points[:gaussians], axis=1) if gaussians else None
        z = np.concatenate(points[gaussians:], axis=1) if gaussians < 2 else None
        yield dest, coeff, quad, lin, z, (patterns, ids)


def _pair_values(gaussians: int, blocks: list, values: np.ndarray, spec: KernelSpec) -> None:
    """Write the pair integrals of the blocks of a pass to their entries of ``values``.

    Raises DivergentNormError for the first pair, block by block and row by
    row, whose form Q_II does not have a positive definite real part, and
    IntegralOverflowError for the first value beyond the float range.
    """
    if not blocks:
        return
    _, n_ij, n_ji, k_jj = kernel = _kernel_blocks(spec, gaussians)
    for dest, coeff, quad, lin, z, (patterns, ids) in _pair_stacks(gaussians, blocks, kernel):
        if z is None:  # nothing pinned: a Gaussian integral
            require_convergent(quad)
            base, mu, sigma = gaussian_factors(quad, lin)
        else:
            kz = z @ k_jj
            const = -0.5 * (kz * z).sum(axis=1)
            if lin is None:  # nothing integrated: kernel derivatives at z_J
                base, mu, sigma = np.exp(const), -kz, np.broadcast_to(-k_jj, (dest.size, *k_jj.shape))
            else:  # the Schur complement step over z_I
                require_convergent(quad)
                base, m, w = gaussian_factors(quad, lin + z @ n_ji, const)
                cross = w @ n_ij
                mu = np.concatenate([m, m @ n_ij - kz], axis=1)
                sigma = np.concatenate([np.concatenate([w, cross], axis=2),
                                        np.concatenate([cross.swapaxes(1, 2), n_ji @ cross - k_jj], axis=2)], axis=1)
        moments = stacked_moments(patterns, ids, mu, sigma)
        values[dest] = require_finite(base * (coeff * moments), "a pair integral")


def _ordered_sum(values: np.ndarray) -> complex:
    """Sum of ``values`` in the order of a loop over them."""
    total = 0.0 + 0.0j
    for value in values.ravel().tolist():
        total += value
    return total


def _batch(pairs: list, spec: KernelSpec) -> list:
    """inner_products without the rerun that orders its errors."""
    if spec.family != GAUSSIAN:
        raise ValueError("closed-form inner products are defined for the gaussian family")
    passes, bounds = ([], [], []), [0]
    for e1, e2 in pairs:
        if e1.dim != spec.dim or e2.dim != spec.dim:
            raise ValueError(f"element dimensions ({e1.dim}, {e2.dim}) do not match kernel dimension {spec.dim}")
        for blocks, new in zip(passes, _passes(e1, e2, bounds[-1])):
            blocks.extend(new)
        bounds.append(bounds[-1] + (len(e1.gaussians) + len(e1.deltas)) * (len(e2.gaussians) + len(e2.deltas)))
    values = np.zeros(bounds[-1], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # require_finite reports overflow
        for gaussians, blocks in zip((2, 1, 0), passes):
            _pair_values(gaussians, blocks, values, spec)
    return [spec.prefactor() * _ordered_sum(values[a:b]) for a, b in zip(bounds, bounds[1:])]


def inner_products(pairs, spec: KernelSpec) -> np.ndarray:
    """inner_product(e1, e2, spec) of each (e1, e2) of ``pairs``, from one batch whose errors
    are those that a loop of inner_product calls raises first."""
    pairs = list(pairs)
    try:
        return np.array(_batch(pairs, spec), dtype=complex)
    except (DivergentNormError, IntegralOverflowError, ValueError) as err:
        error = err
    for pair in pairs if len(pairs) > 1 else ():  # outside the handler: one error in the traceback
        _batch([pair], spec)
    raise error


def inner_product(e1: SpaceElement, e2: SpaceElement, spec: KernelSpec) -> complex:
    """Sesquilinear kernel inner product of two elements (Gaussian family)."""
    return _batch([(e1, e2)], spec)[0]


def real_norm_squared(value: complex) -> float:
    """Real part of a squared norm (f, f); ValueError unless the imaginary part is negligible."""
    if abs(value.imag) > IMAG_TOLERANCE * abs(value) + 1e-14:
        raise ValueError(f"squared norm has a non-negligible imaginary part: {value}")
    return float(value.real)


def norm_squared(e: SpaceElement, spec: KernelSpec) -> float:
    """Real squared norm (f, f); may be negative for indefinite signatures."""
    return real_norm_squared(inner_product(e, e, spec))


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
    block = (left, right, 0, (len(right.coeff), 1))
    _, patterns, chunks = _pair_layout([block], lambda a, b: tuple(map(operator.add, a, b)))
    values = np.zeros(len(left.coeff) * len(right.coeff), dtype=complex)
    for dest, i, j, coeff, ids in chunks:
        quad = left.quad[i] + right.quad[j]
        require_convergent(quad)
        base, mu, sigma = gaussian_factors(quad, left.point[i] + right.point[j])
        moments = stacked_moments(patterns, ids, mu, sigma)
        values[dest] = require_finite(base * (coeff * moments), "an L2 pair integral")
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
    for gaussians, blocks in zip((2, 1), _passes(e1, e2)):
        for _, _, quad, *_ in _pair_stacks(gaussians, blocks, _kernel_blocks(spec, gaussians)) if blocks else ():
            worst = min(worst, float(min_real_eigenvalues(quad).min()))
    return float(worst)
