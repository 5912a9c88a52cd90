"""The batched pair engine behind inner_product.

Properties are checked on random mixtures: conjugate symmetry,
sesquilinearity, and agreement of one stacked batch of B pairs with B
batches of one pair each (the sum over single-term pieces).  Delta-jet
pairs and the L2 product are checked against term-by-term PolyGaussian
oracles, and dim-1 jet pairs against a 50-digit mpmath reference that
integrates the hand-differentiated kernel.  Also checked: the elimination
determinant against the eigenvalue branch, the divergence decision at the
edge of PD_TOLERANCE, and the number of stacked passes of a mixed product.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import kreingeo.algebra as algebra
from kreingeo.algebra import combined_form_min_eigenvalue, inner_product, l2_inner_product, norm_squared
from kreingeo.elements import JET_ORDER_CAP, DeltaJetTerm, GaussianTerm, SpaceElement
from kreingeo.errors import DivergentNormError, IntegralOverflowError
from kreingeo.kernels import KernelSpec
from kreingeo.polygauss import PD_TOLERANCE, PolyGaussian, sqrt_det

SIGNATURES = ((1, 0), (2, 0), (3, 0), (4, 0), (3, 1))
TOY = KernelSpec.gaussian(0, 1)
LINE = KernelSpec.gaussian(1, 0)
PROPERTY_RTOL = 1e-11

unit = st.floats(-1.0, 1.0)


@st.composite
def complexes(draw, bound=1.0):
    return complex(draw(st.floats(-bound, bound)), draw(st.floats(-bound, bound)))


@st.composite
def mixtures(draw, signature, max_gauss=4, max_jets=2):
    """Gaussian mixtures plus delta jets whose pairs all converge.

    Negative-signature axes get Re(a) >= 2.5, as the indefinite kernel needs;
    off-diagonal entries stay small enough for Re(A) to stay positive definite.
    """
    pos, neg = signature
    dim = pos + neg
    gaussians = []
    for _ in range(draw(st.integers(0, max_gauss))):
        diag = [draw(st.floats(0.8, 2.0)) for _ in range(pos)] + \
               [draw(st.floats(2.5, 4.0)) for _ in range(neg)]
        quad = np.diag(np.array(diag) + 1j * np.array([draw(st.floats(-0.4, 0.4)) for _ in diag]))
        for i in range(dim):
            for j in range(i + 1, dim):
                quad[i, j] = quad[j, i] = 0.05 * draw(complexes())
        lin = np.array([0.5 * draw(complexes()) for _ in range(dim)])
        poly = tuple(draw(st.integers(0, 1)) for _ in range(dim))
        gaussians.append(GaussianTerm(draw(complexes(2.0)), quad, lin, poly))
    deltas = []
    for _ in range(draw(st.integers(0, max_jets))):
        orders = [0] * dim
        for _ in range(draw(st.integers(0, 2))):
            orders[draw(st.integers(0, dim - 1))] += 1
        base = [draw(unit) for _ in range(dim)]
        deltas.append(DeltaJetTerm(draw(complexes(2.0)), base, tuple(orders)))
    return SpaceElement(dim, tuple(gaussians), tuple(deltas))


def pieces(e):
    return ([SpaceElement(e.dim, (t,)) for t in e.gaussians]
            + [SpaceElement(e.dim, (), (t,)) for t in e.deltas])


def piecewise(e1, e2, spec):
    """Sum and summed magnitude of the inner products of single-term pieces."""
    values = [inner_product(a, b, spec) for a in pieces(e1) for b in pieces(e2)]
    return sum(values), sum(abs(v) for v in values)


@st.composite
def spec_and_mixtures(draw, count):
    signature = draw(st.sampled_from(SIGNATURES))
    return (KernelSpec.gaussian(*signature),
            *(draw(mixtures(signature)) for _ in range(count)))


@settings(max_examples=40, deadline=None)
@given(spec_and_mixtures(2))
def test_batch_equals_sum_of_single_pairs(case):
    spec, e1, e2 = case
    want, scale = piecewise(e1, e2, spec)
    assert abs(inner_product(e1, e2, spec) - want) <= PROPERTY_RTOL * scale


@settings(max_examples=40, deadline=None)
@given(spec_and_mixtures(2))
def test_conjugate_symmetry(case):
    spec, f, g = case
    _, scale = piecewise(f, g, spec)
    assert abs(inner_product(f, g, spec) - np.conj(inner_product(g, f, spec))) <= PROPERTY_RTOL * scale


@settings(max_examples=30, deadline=None)
@given(spec_and_mixtures(3), complexes(2.0), complexes(2.0))
@example((LINE, SpaceElement.delta([0.0], coeff=1.25j), SpaceElement(1, ()),
          SpaceElement.delta([0.9375], coeff=1j)), 1.256754504744685e-06j, 0j)
def test_sesquilinearity(case, alpha, beta):
    spec, f, h, g = case
    fg, hg = inner_product(f, g, spec), inner_product(h, g, spec)
    fg_scale = piecewise(f, g, spec)[1]
    scale = abs(alpha) * fg_scale + abs(beta) * piecewise(h, g, spec)[1]
    combo = inner_product(f * alpha + h * beta, g, spec)
    assert abs(combo - (alpha * fg + beta * hg)) <= PROPERTY_RTOL * scale
    assert abs(inner_product(f, g * alpha, spec) - np.conj(alpha) * fg) <= PROPERTY_RTOL * abs(alpha) * fg_scale


def test_zero_coefficient_divergent_term_is_skipped():
    # Against the time toy, exp(-x^2) alone lies exactly on the divergence
    # boundary; with a zero coefficient it contributes nothing and must not raise.
    good = SpaceElement.gaussian([[4.0]])
    e = good + SpaceElement.gaussian([[2.0]], coeff=0.0)
    assert norm_squared(e, TOY) == norm_squared(good, TOY)
    assert combined_form_min_eigenvalue(e, e, TOY) == combined_form_min_eigenvalue(good, good, TOY)


def test_zero_coefficient_delta_partner_is_skipped():
    # exp(-x^2/4) diverges against the time toy, but with a zero coefficient
    # its pair with the delta contributes nothing, as in inner_product.
    e = SpaceElement.gaussian([[0.5]], coeff=0.0) + SpaceElement.delta([0.0])
    assert inner_product(e, e, TOY) == 1.0
    assert combined_form_min_eigenvalue(e, e, TOY) > 0


def test_divergence_reports_the_predicted_eigenvalue():
    e = SpaceElement.gaussian([[1.5 + 0.2j]])
    with pytest.raises(DivergentNormError) as err:
        norm_squared(e, TOY)
    assert err.value.min_eigenvalue == combined_form_min_eigenvalue(e, e, TOY)


def test_first_divergent_pair_in_loop_order_is_reported():
    good, bad, worse = (SpaceElement.gaussian([[a]]) for a in (4.0, 1.5, 1.2))
    e = good + bad + worse
    with pytest.raises(DivergentNormError) as err:
        inner_product(e, e, TOY)
    # (good, bad) converges; row 0 then meets (good, worse) before the
    # divergent pairs of later rows.
    assert combined_form_min_eigenvalue(good, bad, TOY) > 0
    assert err.value.min_eigenvalue == combined_form_min_eigenvalue(good, worse, TOY)


def brute_force_line(e1, e2, radius=10.0, n=1601):
    xs = np.linspace(-radius, radius, n)
    kernel = np.exp(-0.5 * (xs[:, None] - xs[None, :]) ** 2)
    step = xs[1] - xs[0]
    return e1.evaluate(xs[:, None]) @ kernel @ np.conj(e2.evaluate(xs[:, None])) * step * step


def test_mixed_monomial_patterns_are_grouped_correctly():
    # Four monomial patterns on each side give sixteen pattern groups.
    rng = np.random.default_rng(3)
    terms = []
    for k in (0, 1, 2, 3, 1, 0):
        a = rng.uniform(0.8, 2.0) + 1j * rng.uniform(-0.3, 0.3)
        terms.append(GaussianTerm(rng.normal() + 1j * rng.normal(), [[a]],
                                  [0.3 * rng.normal() + 0.2j * rng.normal()], (k,)))
    e1 = SpaceElement(1, tuple(terms[:4]))
    e2 = SpaceElement(1, tuple(terms[2:]))
    got = inner_product(e1, e2, LINE)
    want, scale = piecewise(e1, e2, LINE)
    assert abs(got - want) <= 1e-13 * scale
    assert got == pytest.approx(brute_force_line(e1, e2), rel=1e-6)


def test_chunks_match_a_single_batch(monkeypatch):
    rng = np.random.default_rng(8)
    spec = KernelSpec.gaussian(3, 1)
    terms = []
    for j in range(9):
        diag = np.concatenate([rng.uniform(0.8, 2.0, 3), rng.uniform(2.5, 4.0, 1)])
        terms.append(GaussianTerm(rng.normal() + 1j * rng.normal(), np.diag(diag + 0.2j),
                                  0.4 * rng.normal(size=4), tuple(int((i + j) % 3 == 0) for i in range(4))))
    e = SpaceElement(4, tuple(terms))
    whole = inner_product(e, e, spec)
    monkeypatch.setattr(algebra, "PAIR_CHUNK", 7)
    chunked = inner_product(e, e, spec)
    assert abs(chunked - whole) <= 1e-13 * abs(whole)


def test_norm_of_a_high_degree_monomial():
    # x^k exp(-x^2/2) under the unit line kernel, against trapezoid
    # quadrature of the double integral.
    k = 40
    e = SpaceElement.gaussian([[1.0]], poly=(k,))
    value = norm_squared(e, LINE)
    assert math.isfinite(value) and value > 0
    assert value == pytest.approx(brute_force_line(e, e, radius=14.0).real, rel=1e-6)


# ---------------------------------------------------------------------------
# Delta-jet pairs, the elimination determinant and the divergence threshold

JET_SIGNATURES = SIGNATURES + ((0, 1),)
ORACLE_RTOL = 1e-12
# Each pair's scale is its magnitude plus this fraction of |c1 c2|, so a pair
# whose value cancels to zero (a kernel derivative at a zero of its Hermite
# factor) is not held to a bound below its own rounding error.
CANCELLATION_FLOOR = 1e-4


def doubled_kernel_form(spec):
    S = spec.signed_quad()
    return np.block([[S, -S], [-S, S]]).astype(complex)


def oracle_gauss_jet(g, d, spec):
    """(g, d) term by term: differentiate the kernel-weighted Gaussian in y,
    pin y at the jet's base and integrate over x."""
    p = spec.dim
    quad = doubled_kernel_form(spec)
    quad[:p, :p] += g.quad
    pg = PolyGaussian({g.poly + (0,) * p: g.coeff * np.conj(d.coeff)}, quad,
                      np.concatenate([g.lin, np.zeros(p)]))
    for axis, k in enumerate(d.orders, start=p):
        for _ in range(k):
            pg = pg.differentiate(axis)
    return (-1.0) ** d.order * pg.substitute({p + i: d.base[i] for i in range(p)}).integrate()


def oracle_jet_jet(d1, d2, spec):
    """(d1, d2): the kernel differentiated at the pair of base points."""
    p = spec.dim
    pg = PolyGaussian({(0,) * (2 * p): 1.0}, doubled_kernel_form(spec), np.zeros(2 * p))
    for axis, k in enumerate(d1.orders + d2.orders):
        for _ in range(k):
            pg = pg.differentiate(axis)
    value = pg.evaluate(np.concatenate([d1.base, d2.base]))
    return (-1.0) ** (d1.order + d2.order) * d1.coeff * np.conj(d2.coeff) * value


@st.composite
def coefficients(draw):
    """Complex coefficients of magnitude 0 or at least 1e-3: products of two
    stay normal floats, whose relative rounding the bounds assume."""
    z = draw(complexes(2.0))
    return z if abs(z) >= 1e-3 else 0j


@st.composite
def jet_mixtures(draw, signature):
    """Gaussians with monomials up to degree 2 per axis, and jets up to JET_ORDER_CAP."""
    pos, neg = signature
    dim = pos + neg
    gaussians = []
    for _ in range(draw(st.integers(1, 3))):
        diag = [draw(st.floats(0.8, 2.0)) for _ in range(pos)] + \
               [draw(st.floats(2.5, 4.0)) for _ in range(neg)]
        quad = np.diag(np.array(diag) + 1j * np.array([draw(st.floats(-0.4, 0.4)) for _ in diag]))
        for i in range(dim):
            for j in range(i + 1, dim):
                quad[i, j] = quad[j, i] = 0.05 * draw(complexes())
        lin = np.array([0.5 * draw(complexes()) for _ in range(dim)])
        poly = tuple(draw(st.integers(0, 2)) for _ in range(dim))
        gaussians.append(GaussianTerm(draw(coefficients()), quad, lin, poly))
    deltas = []
    for _ in range(draw(st.integers(1, 3))):
        orders = [0] * dim
        for _ in range(draw(st.integers(0, JET_ORDER_CAP))):
            orders[draw(st.integers(0, dim - 1))] += 1
        base = [draw(unit) for _ in range(dim)]
        deltas.append(DeltaJetTerm(draw(coefficients()), base, tuple(orders)))
    return SpaceElement(dim, tuple(gaussians), tuple(deltas))


@st.composite
def jet_cases(draw):
    signature = draw(st.sampled_from(JET_SIGNATURES))
    return KernelSpec.gaussian(*signature), draw(jet_mixtures(signature)), draw(jet_mixtures(signature))


@settings(max_examples=60, deadline=None)
@given(jet_cases())
def test_stacked_jet_pairs_match_the_per_pair_oracle(case):
    spec, e1, e2 = case
    gauss1, jets1 = SpaceElement(e1.dim, e1.gaussians), SpaceElement(e1.dim, (), e1.deltas)
    gauss2, jets2 = SpaceElement(e2.dim, e2.gaussians), SpaceElement(e2.dim, (), e2.deltas)
    blocks = [
        (gauss1, jets2, [(oracle_gauss_jet(g, d, spec), g.coeff * d.coeff)
                         for g in e1.gaussians for d in e2.deltas]),
        (jets1, gauss2, [(np.conj(oracle_gauss_jet(g, d, spec)), g.coeff * d.coeff)
                         for d in e1.deltas for g in e2.gaussians]),
        (jets1, jets2, [(oracle_jet_jet(a, b, spec), a.coeff * b.coeff)
                        for a in e1.deltas for b in e2.deltas]),
    ]
    for left, right, pairs in blocks:
        want = sum(v for v, _ in pairs)
        scale = sum(abs(v) + CANCELLATION_FLOOR * abs(c) for v, c in pairs)
        assert abs(inner_product(left, right, spec) - want) <= ORACLE_RTOL * scale


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    hnp.arrays(float, (n, n), elements=st.floats(-1.0, 1.0)),
    hnp.arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))),
       st.floats(0.0, 3.0))
def test_elimination_sqrt_det_is_the_eigenvalue_branch(matrices, ratio):
    m, h = matrices
    n = m.shape[0]
    re = m @ m.T + 0.5 * np.eye(n)
    im = h + h.T
    if np.abs(im).max() > 0:
        im = ratio * np.abs(re).max() * (im / np.abs(im).max())
    quad = (re + 1j * im)[None]
    want = np.exp(0.5 * np.sum(np.log(np.linalg.eigvals(quad)), axis=-1))[0]
    assert abs(sqrt_det(quad)[0] - want) <= 1e-12 * abs(want)


def threshold_pair(kind, spec, min_eig):
    """A pair whose one combined form has smallest real-part eigenvalue ``min_eig``
    on the negative axis, with the other axes far from the threshold."""
    signs = spec.signature.signs()
    # Against S = -1 the Gaussian pair form has eigenvalues a - 2 and a,
    # the Gaussian x jet x-form a - 1; positive axes sit at 1.5 or above.
    shift = 2.0 if kind == "gauss-gauss" else 1.0
    e = SpaceElement.gaussian(np.diag(np.where(signs > 0, 1.5, shift + min_eig)))
    jet = SpaceElement.delta(np.zeros(spec.dim), orders=(0,) * (spec.dim - 1) + (1,))
    return {"gauss-gauss": (e, e), "gauss-jet": (e, jet), "jet-gauss": (jet, e)}[kind]


@pytest.mark.parametrize("signature", [(0, 1), (3, 1)])
@pytest.mark.parametrize("kind", ["gauss-gauss", "gauss-jet", "jet-gauss"])
@pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3, 2 - 2e-3, 2 + 2e-3])
def test_divergence_is_decided_at_the_tolerance(signature, kind, factor):
    spec = KernelSpec.gaussian(*signature)
    e1, e2 = threshold_pair(kind, spec, factor * PD_TOLERANCE)
    min_eig = combined_form_min_eigenvalue(e1, e2, spec)
    assert abs(min_eig - factor * PD_TOLERANCE) <= 1e-3 * PD_TOLERANCE / 4
    if min_eig <= PD_TOLERANCE:
        with pytest.raises(DivergentNormError) as err:
            inner_product(e1, e2, spec)
        assert err.value.min_eigenvalue == min_eig
    else:
        assert np.isfinite(inner_product(e1, e2, spec))


def test_far_jet_keeps_its_kernel_factor_inside_the_integral():
    # (exp(-x^2/2), delta_b) = sqrt(pi) exp(-b^2/4): about 1e-220 at b = 45,
    # though exp(-b^2/2) alone underflows and exp(b^2/4) nearly overflows.
    b = 45.0
    value = inner_product(SpaceElement.gaussian([[1.0]]), SpaceElement.delta([b]), LINE)
    assert value == pytest.approx(math.sqrt(math.pi) * math.exp(-b * b / 4), rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("e1, e2", [
    (SpaceElement.delta([0.0]), SpaceElement.delta([40.0])),
    (SpaceElement.gaussian([[2.0]]), SpaceElement.delta([60.0])),
    (SpaceElement.delta([60.0]), SpaceElement.gaussian([[2.0]])),
], ids=["jet-jet", "gauss-jet", "jet-gauss"])
def test_far_pair_overflow_raises_without_numpy_warning(e1, e2):
    # The time toy's kernel exp(+t^2/2) puts these values beyond the float range.
    with pytest.raises(IntegralOverflowError, match="float range"):
        inner_product(e1, e2, TOY)


# ---------------------------------------------------------------------------
# The L2 product, the number of stacked passes, and a 50-digit jet reference

def oracle_l2(t1, t2):
    """int t1 conj(t2) as one PolyGaussian integral."""
    poly = {tuple(i + j for i, j in zip(t1.poly, t2.poly)): t1.coeff * np.conj(t2.coeff)}
    return PolyGaussian(poly, t1.quad + np.conj(t2.quad), t1.lin + np.conj(t2.lin)).integrate()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SIGNATURES).flatmap(lambda sig: st.tuples(jet_mixtures(sig), jet_mixtures(sig))))
def test_l2_inner_product_matches_the_term_by_term_sum(pair):
    f, g = (SpaceElement(e.dim, e.gaussians) for e in pair)
    values = [oracle_l2(a, b) for a in f.gaussians for b in g.gaussians]
    assert abs(l2_inner_product(f, g) - sum(values)) <= 1e-13 * sum(abs(v) for v in values)


def test_mixed_inner_product_is_three_stacked_passes(monkeypatch):
    # Gaussian pairs, Gaussian x jet pairs of both argument orders, and jet
    # pairs: the last integrates nothing, so it needs no Gaussian factors.
    calls = {"gaussian_factors": 0, "stacked_moments": 0}
    for name in calls:
        def counted(*args, _name=name, _wrapped=getattr(algebra, name)):
            calls[_name] += 1
            return _wrapped(*args)
        monkeypatch.setattr(algebra, name, counted)
    spec = KernelSpec.gaussian(2, 1)
    rng = np.random.default_rng(4)

    def mixture():
        gaussians = [GaussianTerm(rng.normal() + 1j * rng.normal(), np.diag([1.2, 1.5, 3.0]) + 0.1j,
                                  0.3 * rng.normal(size=3), (k, 0, 1)) for k in range(2)]
        jets = [DeltaJetTerm(rng.normal() + 1j, rng.uniform(-1, 1, 3), orders) for orders in ((1, 0, 0), (0, 0, 2))]
        return SpaceElement(3, tuple(gaussians), tuple(jets))

    inner_product(mixture(), mixture(), spec)
    assert calls == {"gaussian_factors": 2, "stacked_moments": 3}


def test_chunks_across_the_blocks_of_a_pass_match_a_single_batch(monkeypatch):
    # With 3 pairs a chunk, chunks of the Gaussian x jet pass straddle its
    # Gaussian x jet and jet x Gaussian blocks.
    spec = KernelSpec.gaussian(1, 1)
    rng = np.random.default_rng(6)

    def mixture():
        gaussians = [GaussianTerm(rng.normal() + 1j * rng.normal(), np.diag([1.4, 3.2]) + 0.1j,
                                  0.3 * rng.normal(size=2), (k % 2, 1)) for k in range(3)]
        jets = [DeltaJetTerm(rng.normal() + 1j, rng.uniform(-1, 1, 2), orders) for orders in ((0, 1), (1, 1))]
        return SpaceElement(2, tuple(gaussians), tuple(jets))

    e1, e2 = mixture(), mixture()
    whole = inner_product(e1, e2, spec)
    monkeypatch.setattr(algebra, "PAIR_CHUNK", 3)
    assert abs(inner_product(e1, e2, spec) - whole) <= 1e-13 * abs(whole)


def kernel_u_derivative(n, u, s):
    """d^n/du^n of exp(-s u^2 / 2), written out by hand for n <= 4."""
    factor = [1, -s * u, s * s * u * u - s, -s ** 3 * u ** 3 + 3 * s * s * u,
              s ** 4 * u ** 4 - 6 * s ** 3 * u * u + 3 * s * s][n]
    return factor * mp.exp(-s * u * u / 2)


def reference_gauss_jet_integral(t, jet, s):
    """int x^k exp(-a x^2 / 2 + b x) (-1)^alpha d^alpha_y k(x, y) dx at y = beta,
    by 50-digit quadrature; d_y k(x, y) = -k'(x - y) for k(u) = exp(-s u^2 / 2)."""
    (k,), a, b, beta = t.poly, mp.mpc(t.quad[0, 0]), mp.mpc(t.lin[0]), mp.mpf(jet.base[0])
    return mp.quad(lambda x: x ** k * mp.exp(-a * x * x / 2 + b * x)
                   * kernel_u_derivative(jet.order, x - beta, s), [-mp.inf, mp.inf])


@pytest.mark.parametrize("signature, quad, lin, poly", [
    ((1, 0), 1.3 + 0.2j, 0.3 - 0.1j, 2),
    ((0, 1), 3.1 - 0.4j, -0.2 + 0.35j, 1),
])
def test_jet_pairs_match_a_50_digit_reference(signature, quad, lin, poly):
    spec = KernelSpec.gaussian(*signature)
    s = 1 if signature == (1, 0) else -1
    g = GaussianTerm(0.8 - 0.6j, [[quad]], [lin], (poly,))
    jets = [DeltaJetTerm(0.7 + 0.4j, [0.4], (0,)), DeltaJetTerm(-0.3 + 1.1j, [-0.7], (1,)),
            DeltaJetTerm(1.2 - 0.5j, [0.15], (2,))]
    others = [DeltaJetTerm(t.coeff * 1j, t.base - 0.6, t.orders) for t in jets]
    gauss, left, right = (SpaceElement(1, (g,)), SpaceElement(1, (), tuple(jets)),
                          SpaceElement(1, (), tuple(others)))
    # (g, d) and (d, g) integrate g and conj(g) against the same real kernel
    # derivative; (d1, d2) is (-1)^(a1 + a2) d^a1_x d^a2_y k = (-1)^a1 k^(a1 + a2).
    with mp.workdps(50):
        integrals = [reference_gauss_jet_integral(g, d, s) for d in jets]
        gauss_jet = [g.coeff * np.conj(d.coeff) * v for d, v in zip(jets, integrals)]
        jet_gauss = [d.coeff * np.conj(g.coeff) * mp.conj(v) for d, v in zip(jets, integrals)]
        jet_jet = [d1.coeff * np.conj(d2.coeff) * (-1) ** d1.order
                   * kernel_u_derivative(d1.order + d2.order, mp.mpf(d1.base[0]) - mp.mpf(d2.base[0]), s)
                   for d1 in jets for d2 in others]
        for (e1, e2), pairs in (((gauss, left), gauss_jet), ((left, gauss), jet_gauss),
                                ((left, right), jet_jet)):
            want = complex(mp.fsum(pairs))
            scale = float(mp.fsum(abs(v) for v in pairs))
            assert abs(inner_product(e1, e2, spec) - want) <= 1e-14 * scale
