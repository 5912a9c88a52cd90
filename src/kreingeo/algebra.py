"""Closed-form inner products, norms and parity splits of elements.

The sesquilinear form is

    (f, g) = prefactor * int int k(x, y) f(x) conj(g(y)) dx dy,

evaluated over all term pairs at once.  Each pair kind of one inner product
is stacked and integrated as one batch, in chunks of PAIR_CHUNK pairs, by
the Gaussian moment engine of polygauss, with the moments of a chunk taken
in one pass over its exponent patterns where that pass stays small:

* Gaussian x Gaussian pairs are 2p-dimensional complex Gaussian integrals
  of the monomials poly1 + poly2.
* Gaussian x jet pairs (g, d^alpha delta_beta): integration by parts moves
  the jet onto the kernel, with a sign (-1)^|alpha|.  The x-integral at
  y = beta has the p x p form Q = A + S and linear part l = b + S beta, and
  the y-derivatives become a moment with negated covariance: one moment of
  the 2p variables (x, y) with mean [m; S(m - beta)] and covariance
  [[W, WS], [SW, SWS - S]], where W = Q^-1 and m = W l.
* Jet x jet pairs are kernel derivatives at (beta1, beta2): the moment with
  mean -K z0 and covariance -K, for the kernel's form K on (x, y).

A delta on the left follows from one on the right by conjugate symmetry,
(d, g) = conj((g, d)), as the kernel is real and symmetric.  A pair integral
whose combined quadratic form has a real part with a non-positive eigenvalue
raises DivergentNormError: the element lies outside the space.  The pairs
are checked in the order Gaussian pairs, Gaussian x jet row by row, then
jet x Gaussian, so the first divergent pair a term-by-term sum would meet
is the one reported.
"""

import functools
import itertools

import numpy as np

from .elements import GaussianTerm, SpaceElement
from .kernels import GAUSSIAN, KernelSpec, Signature
from .polygauss import (PolyGaussian, gaussian_factors, min_real_eigenvalues, require_convergent,
                        require_finite, stacked_moments)

IMAG_TOLERANCE = 1e-12

# Pairs are stacked at most this many at a time, so the (B, 2p, 2p) arrays
# of a batch stay near a megabyte however many terms the mixtures have.
PAIR_CHUNK = 1024


@functools.lru_cache(maxsize=64)
def _kernel_blocks(spec: KernelSpec) -> np.ndarray:
    """Quadratic form of k(x, y) on the doubled space (x, y); read-only."""
    S = spec.signed_quad()
    blocks = np.block([[S, -S], [-S, S]]).astype(complex)
    blocks.flags.writeable = False
    return blocks


def _patterns(keys) -> tuple[list, np.ndarray]:
    """Distinct monomial patterns of ``keys`` and each key's pattern id."""
    ids: dict = {}
    pid = np.array([ids.setdefault(k, len(ids)) for k in keys], dtype=np.intp)
    return list(ids), pid


def _pair_layout(left, right, left_keys, right_keys):
    """Coefficient products c1 conj(c2) of all pairs, flat in row-major order,
    and the joined exponent patterns of the pairs with their ids."""
    coeff = (np.array([t.coeff for t in left])[:, None]
             * np.array([t.coeff for t in right]).conj()[None, :]).reshape(-1)
    polys1, pid1 = _patterns(left_keys)
    polys2, pid2 = _patterns(right_keys)
    patterns = [a + b for a in polys1 for b in polys2]
    return coeff, patterns, (pid1[:, None] * len(polys2) + pid2[None, :]).reshape(-1)


def _live_chunks(coeff: np.ndarray, width: int):
    """Row and column indices of the pairs with a nonzero coefficient
    product, with their flat keys, PAIR_CHUNK pairs at a time."""
    live = np.flatnonzero(coeff)
    for start in range(0, live.size, PAIR_CHUNK):
        keys = live[start:start + PAIR_CHUNK]
        yield keys, *np.divmod(keys, width)


def _gauss_pair_stacks(g1, g2, spec: KernelSpec):
    """The Gaussian pairs (t1, t2) of two term lists, PAIR_CHUNK at a time.

    Pairs come in row-major order, leaving out those whose coefficient
    product is zero.  Each chunk is (keys, coeff, quad, lin, (patterns, ids)):
    the flat pair indices i * len(g2) + j, the products c1 conj(c2), the
    combined forms [[S + A1, -S], [-S, S + conj(A2)]], the linear parts
    (b1, conj(b2)), and each pair's id in the list of joined exponent
    patterns poly1 + poly2.
    """
    if not g1 or not g2:
        return
    p = spec.dim
    quad1 = np.array([t.quad for t in g1])
    quad2 = np.array([t.quad for t in g2]).conj()
    lin1 = np.array([t.lin for t in g1])
    lin2 = np.array([t.lin for t in g2]).conj()
    coeff, patterns, pattern_id = _pair_layout(g1, g2, [t.poly for t in g1], [t.poly for t in g2])
    kernel = _kernel_blocks(spec)
    for keys, i, j in _live_chunks(coeff, len(g2)):
        quad = np.repeat(kernel[None], keys.size, axis=0)
        quad[:, :p, :p] += quad1[i]
        quad[:, p:, p:] += quad2[j]
        lin = np.concatenate([lin1[i], lin2[j]], axis=1)
        yield keys, coeff[keys], quad, lin, (patterns, pattern_id[keys])


def _gauss_pair_values(g1, g2, spec: KernelSpec) -> np.ndarray:
    """The (len(g1), len(g2)) array of Gaussian x Gaussian pair integrals.

    Raises DivergentNormError for the first divergent pair in row-major
    order.  That is the pair a term-by-term sum would meet first: a delta
    pair of an earlier row diverges only if S + Re(A1) is not positive
    definite, and that block sits inside each of the row's combined forms.
    """
    values = np.zeros(len(g1) * len(g2), dtype=complex)
    for keys, coeff, quad, lin, (patterns, ids) in _gauss_pair_stacks(g1, g2, spec):
        require_convergent(quad)
        base, mu, sigma = gaussian_factors(quad, lin)
        moments = stacked_moments(patterns, ids, mu, sigma)
        values[keys] = require_finite(base * (coeff * moments), "a Gaussian pair integral")
    return values.reshape(len(g1), len(g2))


def _gauss_jet_stacks(e1: SpaceElement, e2: SpaceElement, spec: KernelSpec):
    """The Gaussian x jet pairs (g, d) of (e1, e2) and of (e2, e1), PAIR_CHUNK at a time.

    The pairs are laid out on a grid whose rows are the Gaussians of e1
    then of e2 and whose columns are the jets of e2 then of e1; only the
    two diagonal blocks pair up.  Pairs come in row-major order, leaving
    out those whose coefficient product is zero.  Each chunk is (keys,
    coeff, quad, lin, (j, patterns, ids)): the flat pair indices, the
    products c_g conj(c_d), the x-forms Q = A + S, the linear parts
    b + S beta, and each pair's jet index and id in the list of joined
    patterns (poly, alpha).
    """
    gs, ds = e1.gaussians + e2.gaussians, e2.deltas + e1.deltas
    if not (e1.gaussians and e2.deltas or e2.gaussians and e1.deltas):
        return
    S = spec.signed_quad()
    quad = np.array([t.quad for t in gs]) + S
    lin = np.array([t.lin for t in gs])
    shift = np.array([t.base for t in ds]) @ S
    coeff, patterns, pattern_id = _pair_layout(gs, ds, [t.poly for t in gs], [t.orders for t in ds])
    paired = (np.arange(len(gs)) < len(e1.gaussians))[:, None] == (np.arange(len(ds)) < len(e2.deltas))[None, :]
    coeff[~paired.reshape(-1)] = 0.0
    for keys, i, j in _live_chunks(coeff, len(ds)):
        yield keys, coeff[keys], quad[i], lin[i] + shift[j], (j, patterns, pattern_id[keys])


def _jet_signs(ds) -> np.ndarray:
    """(-1)^|alpha| of each jet, the sign integration by parts leaves."""
    return np.array([(-1.0) ** t.order for t in ds])


def _gauss_jet_values(e1: SpaceElement, e2: SpaceElement, spec: KernelSpec):
    """The Gaussian x jet and jet x Gaussian blocks of the pair integrals of (e1, e2).

    Raises DivergentNormError for the first pair, Gaussian x jet row by row
    and then jet x Gaussian, whose x-form A + S does not have a positive
    definite real part.
    """
    gs, ds = e1.gaussians + e2.gaussians, e2.deltas + e1.deltas
    values = np.zeros(len(gs) * len(ds), dtype=complex)
    if ds:
        S = spec.signed_quad()
        beta = np.array([t.base for t in ds])
        signs = _jet_signs(ds)
        # The exponent -1/2 beta^T S beta of the kernel factor that completing
        # the square leaves; it joins the integral's own exponent.
        const = -0.5 * np.sum((beta @ S) * beta, axis=1)
    for keys, coeff, quad, lin, (j, patterns, ids) in _gauss_jet_stacks(e1, e2, spec):
        require_convergent(quad)
        base, m, w = gaussian_factors(quad, lin, const[j])
        ws = w @ S
        mu = np.concatenate([m, (m - beta[j]) @ S], axis=1)
        sigma = np.concatenate([np.concatenate([w, ws], axis=2),
                                np.concatenate([ws.swapaxes(1, 2), S @ ws - S], axis=2)], axis=1)
        moments = stacked_moments(patterns, ids, mu, sigma)
        values[keys] = require_finite(base * (coeff * signs[j] * moments), "a Gaussian x jet pair integral")
    values = values.reshape(len(gs), len(ds))
    n1, n2 = len(e1.gaussians), len(e2.deltas)
    return values[:n1, :n2], values[n1:, n2:].T.conj()


def _jet_jet_values(d1, d2, spec: KernelSpec) -> np.ndarray:
    """The (len(d1), len(d2)) array of jet pair values, kernel derivatives
    at the pairs of base points."""
    values = np.zeros(len(d1) * len(d2), dtype=complex)
    if not values.size:
        return values.reshape(len(d1), len(d2))
    kernel = _kernel_blocks(spec)
    base1 = np.array([t.base for t in d1])
    base2 = np.array([t.base for t in d2])
    sign = (_jet_signs(d1)[:, None] * _jet_signs(d2)[None, :]).reshape(-1)
    coeff, patterns, pattern_id = _pair_layout(d1, d2, [t.orders for t in d1], [t.orders for t in d2])
    for keys, i, j in _live_chunks(coeff, len(d2)):
        z0 = np.concatenate([base1[i], base2[j]], axis=1)
        mu = -(z0 @ kernel)
        sigma = np.broadcast_to(-kernel, (keys.size, *kernel.shape))
        moments = stacked_moments(patterns, pattern_id[keys], mu, sigma)
        k = np.exp(0.5 * np.sum(mu * z0, axis=1))
        values[keys] = require_finite(sign[keys] * coeff[keys] * k * moments, "a jet pair value")
    return values.reshape(len(d1), len(d2))


def inner_product(e1: SpaceElement, e2: SpaceElement, spec: KernelSpec) -> complex:
    """Sesquilinear kernel inner product of two elements (Gaussian family)."""
    if spec.family != GAUSSIAN:
        raise ValueError("closed-form inner products are defined for the gaussian family")
    if e1.dim != spec.dim or e2.dim != spec.dim:
        raise ValueError(f"element dimensions ({e1.dim}, {e2.dim}) do not match kernel dimension {spec.dim}")
    gauss = _gauss_pair_values(e1.gaussians, e2.gaussians, spec)
    gauss_jet, jet_gauss = _gauss_jet_values(e1, e2, spec)
    jet_jet = _jet_jet_values(e1.deltas, e2.deltas, spec)
    # Summed in the order of a loop over the terms of e1, then of e2.
    total = 0.0 + 0.0j
    rows = np.concatenate([np.concatenate([gauss, gauss_jet], axis=1),
                           np.concatenate([jet_gauss, jet_jet], axis=1)])
    for value in rows.ravel().tolist():
        total += value
    return spec.prefactor() * total


def norm_squared(e: SpaceElement, spec: KernelSpec) -> float:
    """Real squared norm (f, f); may be negative for indefinite signatures."""
    value = inner_product(e, e, spec)
    if abs(value.imag) > IMAG_TOLERANCE * abs(value) + 1e-14:
        raise ValueError(f"squared norm has a non-negligible imaginary part: {value}")
    return value.real


def l2_inner_product(e1: SpaceElement, e2: SpaceElement) -> complex:
    """Plain L2 inner product int f conj(g); Gaussian terms only."""
    if e1.dim != e2.dim:
        raise ValueError("element dimension mismatch")
    e1._require_gaussian_only("L2 inner product")
    e2._require_gaussian_only("L2 inner product")
    total = 0.0 + 0.0j
    for t1 in e1.gaussians:
        for t2 in e2.gaussians:
            t2c = t2.conjugated()
            poly: dict = {}
            key = tuple(a + b for a, b in zip(t1.poly, t2c.poly))
            poly[key] = t1.coeff * t2c.coeff
            pg = PolyGaussian(poly, t1.quad + t2c.quad, t1.lin + t2c.lin)
            total += pg.integrate()
    return total


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
    Gaussian pairs and the x-forms A + S of Gaussian x jet pairs are
    assembled exactly as inner_product assembles them, and, as there, a pair
    whose coefficient product is zero is left out.
    """
    worst = np.inf
    stacks = itertools.chain(_gauss_pair_stacks(e1.gaussians, e2.gaussians, spec),
                             _gauss_jet_stacks(e1, e2, spec))
    for _, _, quad, _, _ in stacks:
        worst = min(worst, float(min_real_eigenvalues(quad).min()))
    return float(worst)
