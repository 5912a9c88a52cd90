"""Closed-form inner products, norms and parity splits of elements.

The sesquilinear form is

    (f, g) = prefactor * int int k(x, y) f(x) conj(g(y)) dx dy,

evaluated term pair by term pair.  Gaussian x Gaussian pairs reduce to
2p-dimensional complex Gaussian integrals; all such pairs of one inner
product are stacked and integrated as one batch, in chunks of PAIR_CHUNK
pairs, with the monomial moments shared by each group of pairs that has
the same exponent pattern.  Delta jets trade integration for kernel
derivatives through integration by parts, picking up (-1)^|alpha| per jet;
a delta on the left follows from one on the right by conjugate symmetry,
(d, g) = conj((g, d)), as the kernel is real and symmetric.  A pair
integral whose combined quadratic form has a real part with a non-positive
eigenvalue raises DivergentNormError: the element lies outside the space.
"""

import functools

import numpy as np

from .elements import DeltaJetTerm, GaussianTerm, SpaceElement
from .kernels import GAUSSIAN, KernelSpec, Signature
from .polygauss import (PD_TOLERANCE, PolyGaussian, divergence_error, gaussian_factors,
                        gaussian_moments, min_real_eigenvalue, min_real_eigenvalues,
                        require_finite)

IMAG_TOLERANCE = 1e-12

# Gaussian pairs are stacked at most this many at a time, so the (B, 2p, 2p)
# arrays of a batch stay near a megabyte however many terms the mixtures have.
PAIR_CHUNK = 1024


@functools.lru_cache(maxsize=64)
def _kernel_blocks(spec: KernelSpec) -> np.ndarray:
    """Quadratic form of k(x, y) on the doubled space (x, y); read-only."""
    S = spec.signed_quad()
    blocks = np.block([[S, -S], [-S, S]]).astype(complex)
    blocks.flags.writeable = False
    return blocks


def _patterns(terms) -> tuple[list, np.ndarray]:
    """Distinct monomial patterns of ``terms`` and each term's pattern id."""
    ids: dict = {}
    pid = np.array([ids.setdefault(t.poly, len(ids)) for t in terms])
    return list(ids), pid


def _gauss_pair_stacks(g1, g2, spec: KernelSpec):
    """The Gaussian pairs (t1, t2) of two term lists, PAIR_CHUNK at a time.

    Pairs come in row-major order, leaving out those whose coefficient
    product is zero.  Each chunk is (keys, coeff, quad, lin, groups): the flat
    pair indices i * len(g2) + j, the products c1 conj(c2), the combined forms
    [[S + A1, -S], [-S, S + conj(A2)]], the linear parts (b1, conj(b2)) and,
    per exponent pattern poly1 + poly2, the pattern and its pairs' positions.
    """
    if not g1 or not g2:
        return
    p = spec.dim
    quad1 = np.array([t.quad for t in g1])
    quad2 = np.array([t.quad for t in g2]).conj()
    lin1 = np.array([t.lin for t in g1])
    lin2 = np.array([t.lin for t in g2]).conj()
    coeff = (np.array([t.coeff for t in g1])[:, None]
             * np.array([t.coeff for t in g2]).conj()[None, :]).reshape(-1)
    polys1, pid1 = _patterns(g1)
    polys2, pid2 = _patterns(g2)
    kernel = _kernel_blocks(spec)
    live = np.flatnonzero(coeff)
    for start in range(0, live.size, PAIR_CHUNK):
        keys = live[start:start + PAIR_CHUNK]
        i, j = np.divmod(keys, len(g2))
        quad = np.repeat(kernel[None], keys.size, axis=0)
        quad[:, :p, :p] += quad1[i]
        quad[:, p:, p:] += quad2[j]
        lin = np.concatenate([lin1[i], lin2[j]], axis=1)
        group = pid1[i] * len(polys2) + pid2[j]
        groups = [(polys1[gid // len(polys2)] + polys2[gid % len(polys2)], np.flatnonzero(group == gid))
                  for gid in np.flatnonzero(np.bincount(group)).tolist()]
        yield keys, coeff[keys], quad, lin, groups


def _gauss_pair_values(g1, g2, spec: KernelSpec) -> np.ndarray:
    """The (len(g1), len(g2)) array of Gaussian x Gaussian pair integrals.

    Raises DivergentNormError for the first divergent pair in row-major
    order.  That is the pair a term-by-term sum would meet first: a delta
    pair of an earlier row diverges only if S + Re(A1) is not positive
    definite, and that block sits inside each of the row's combined forms.
    """
    values = np.zeros(len(g1) * len(g2), dtype=complex)
    for keys, coeff, quad, lin, groups in _gauss_pair_stacks(g1, g2, spec):
        mins = min_real_eigenvalues(quad)
        bad = np.flatnonzero(mins <= PD_TOLERANCE)
        if bad.size:
            raise divergence_error(float(mins[bad[0]]))
        base, mu, sigma = gaussian_factors(quad, lin)
        moments = np.ones(keys.size, dtype=complex)
        for gamma, members in groups:
            if any(gamma):
                moments[members] = gaussian_moments([gamma], mu[members], sigma[members])[0]
        values[keys] = require_finite(base * (coeff * moments), "a Gaussian pair integral")
    return values.reshape(len(g1), len(g2))


def _pair_gauss_delta(tg: GaussianTerm, td: DeltaJetTerm, spec: KernelSpec) -> complex:
    """(g, d): the y-integral against the jet becomes kernel derivatives at its base."""
    p = spec.dim
    quad = _kernel_blocks(spec).copy()
    quad[:p, :p] += tg.quad
    lin = np.concatenate([tg.lin, np.zeros(p)])
    pg = PolyGaussian({tg.poly + (0,) * p: np.conj(td.coeff) * tg.coeff}, quad, lin)
    for axis, k in enumerate(td.orders, start=p):
        for _ in range(k):
            pg = pg.differentiate(axis)
    fixed = {p + i: td.base[i] for i in range(p)}
    return (-1.0) ** td.order * pg.substitute(fixed).integrate()


def _pair_delta_delta(t1: DeltaJetTerm, t2: DeltaJetTerm, spec: KernelSpec) -> complex:
    p = spec.dim
    pg = PolyGaussian({(0,) * (2 * p): 1.0}, _kernel_blocks(spec), np.zeros(2 * p))
    for i, k in enumerate(t1.orders):
        for _ in range(k):
            pg = pg.differentiate(i)
    for i, k in enumerate(t2.orders):
        for _ in range(k):
            pg = pg.differentiate(p + i)
    value = pg.evaluate(np.concatenate([t1.base, t2.base]))
    return (-1.0) ** (t1.order + t2.order) * t1.coeff * np.conj(t2.coeff) * value


def inner_product(e1: SpaceElement, e2: SpaceElement, spec: KernelSpec) -> complex:
    """Sesquilinear kernel inner product of two elements (Gaussian family)."""
    if spec.family != GAUSSIAN:
        raise ValueError("closed-form inner products are defined for the gaussian family")
    if e1.dim != spec.dim or e2.dim != spec.dim:
        raise ValueError(f"element dimensions ({e1.dim}, {e2.dim}) do not match kernel dimension {spec.dim}")
    gauss = _gauss_pair_values(e1.gaussians, e2.gaussians, spec)
    total = 0.0 + 0.0j
    for t1, row in zip(e1.gaussians, gauss.tolist()):
        for value in row:
            total += value
        for t2 in e2.deltas:
            total += _pair_gauss_delta(t1, t2, spec)
    for t1 in e1.deltas:
        for t2 in e2.gaussians:
            total += _pair_gauss_delta(t2, t1, spec).conjugate()
        for t2 in e2.deltas:
            total += _pair_delta_delta(t1, t2, spec)
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
    Gaussian pairs are assembled exactly as inner_product assembles them,
    and, as there, a pair whose coefficient product is zero is left out.
    """
    worst = np.inf
    for _, _, quad, _, _ in _gauss_pair_stacks(e1.gaussians, e2.gaussians, spec):
        worst = min(worst, float(min_real_eigenvalues(quad).min()))
    jet_partners = [g for g in e1.gaussians if any(g.coeff * np.conj(d.coeff) for d in e2.deltas)]
    jet_partners += [g for g in e2.gaussians if any(g.coeff * np.conj(d.coeff) for d in e1.deltas)]
    for t in jet_partners:
        worst = min(worst, min_real_eigenvalue(t.quad + spec.signed_quad()))
    return float(worst)
