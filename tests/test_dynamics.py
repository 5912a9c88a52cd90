import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kreingeo.algebra import inner_product, l2_inner_product, norm_squared
from kreingeo.dynamics import (MAX_TIME_JET_ORDER, EvolutionPath, HamiltonianSpec, PerturbedPath,
                               TimeSlicedElement, coherent_state, default_sample_grid,
                               free_packet, galileo_on_slice,
                               orthogonality_check, path_derivative, path_velocity,
                               pde_residual_fd, schrodinger_residual,
                               slice_inner_product, slice_inner_products, slice_norm_squared,
                               spatial_spec, time_factor_derivative)
from kreingeo.elements import JET_ORDER_CAP, DeltaJetTerm, GaussianTerm, SpaceElement
from kreingeo.groups import GalileoElement, random_galileo
from kreingeo.kernels import KernelSpec
from test_elements import evaluate_term_by_term

METRICS = ("H_eta", "H_tilde", "H_T")
TAUS = np.linspace(0.1, 2.0, 10)


def test_time_factor_tables():
    # All three factors are critical at coincidence; the second mixed
    # derivative carries the sign that separates the indefinite metric.
    for kind in METRICS:
        assert time_factor_derivative(kind, 0, 0, 0.7) == 1.0
        assert time_factor_derivative(kind, 0, 1, 0.7) == 0.0
        assert time_factor_derivative(kind, 1, 0, 0.7) == 0.0
    assert time_factor_derivative("H_eta", 1, 1, 0.7) == -1.0
    assert time_factor_derivative("H_tilde", 1, 1, 0.7) == 1.0
    assert time_factor_derivative("H_T", 1, 1, 0.7) == 1.0


@pytest.mark.parametrize("kind", METRICS)
def test_time_factor_closed_form_matches_symbolic_derivatives(kind):
    import sympy

    t, s, tau = sympy.symbols("t s tau", real=True)
    factor = {"H_eta": sympy.exp((t - s) ** 2 / 2),
              "H_tilde": sympy.exp(-(t - s) ** 2 / 2),
              "H_T": sympy.exp((t + s - 2 * tau) ** 2 / 2)}[kind]
    for m1 in range(MAX_TIME_JET_ORDER + 1):
        for m2 in range(MAX_TIME_JET_ORDER + 1):
            derivative = sympy.diff(factor, t, m1, s, m2)
            for slice_time in ("0", "0.7", "-1.3", "2.5"):
                at = sympy.Rational(slice_time)
                want = derivative.subs({t: at, s: at, tau: at})
                assert want.is_Integer
                got = time_factor_derivative(kind, m1, m2, float(at))
                assert got == int(want), (kind, m1, m2, slice_time)


def test_unknown_slice_metric_is_rejected():
    s = TimeSlicedElement.order_zero(SpaceElement.gaussian([[1.0]]), 0.3)
    with pytest.raises(ValueError, match="unknown slice metric"):
        time_factor_derivative("H_bogus", 0, 0, 0.3)
    with pytest.raises(ValueError, match="unknown slice metric"):
        slice_inner_product(s, s, "H_bogus")


def test_unknown_slice_metric_is_rejected_without_jets():
    empty = TimeSlicedElement(0.3, (), 1)
    with pytest.raises(ValueError, match="unknown slice metric"):
        slice_inner_product(empty, empty, "bogus")
    assert slice_inner_product(empty, empty, "H_T") == 0.0


def test_slice_pairing_matches_full_spacetime_algebra():
    # Pure delta jets exist in both pictures: a spatial delta jet on a slice
    # equals a 4-dimensional delta jet, and the pairings must agree.
    spec4 = KernelSpec.gaussian(3, 1)
    tau = 0.6
    a, b = np.array([0.2, -0.5, 1.0]), np.array([-0.3, 0.4, 0.1])
    for m1 in (0, 1):
        for m2 in (0, 1):
            s1 = TimeSlicedElement(tau, ((SpaceElement.delta(a), m1),), 3)
            s2 = TimeSlicedElement(tau, ((SpaceElement.delta(b), m2),), 3)
            got = slice_inner_product(s1, s2, "H_eta")
            e1 = SpaceElement.delta(np.append(a, tau), orders=(0, 0, 0, m1))
            e2 = SpaceElement.delta(np.append(b, tau), orders=(0, 0, 0, m2))
            want = inner_product(e1, e2, spec4)
            assert got == pytest.approx(want, abs=1e-13)


def test_free_packet_initial_condition():
    packet = free_packet(0.8, 0.3, 1.2)
    psi0 = packet.psi(0.0)
    xs = np.linspace(-3, 3, 21)
    direct = ((2 * math.pi * 0.8 ** 2) ** -0.25
              * np.exp(-(xs - 0.3) ** 2 / (4 * 0.8 ** 2) + 1.2j * xs))
    got = psi0.evaluate(xs[:, None])
    # Equal up to a constant phase from the momentum-center convention.
    phase = got[10] / direct[10]
    assert abs(abs(phase) - 1.0) < 1e-12
    assert np.allclose(got, phase * direct, atol=1e-12)


def test_l2_norm_constant_in_time():
    packet = free_packet(0.8, 0.3, 1.2)
    for t in (0.0, 0.7, 1.9):
        assert abs(l2_inner_product(packet.psi(t), packet.psi(t))) == pytest.approx(
            1.0, abs=1e-12)
    orbiting = coherent_state(0.7, -0.5, frequency=1.3)
    for t in (0.0, 1.1):
        assert abs(l2_inner_product(orbiting.psi(t), orbiting.psi(t))) == pytest.approx(
            1.0, abs=1e-12)


def test_fd_oracle_residual_small():
    packet = free_packet(0.8, 0.3, 1.2)
    assert pde_residual_fd(packet, packet.hamiltonian()) <= 1e-6
    orbiting = coherent_state(0.7, -0.5, frequency=1.3)
    assert pde_residual_fd(orbiting, orbiting.hamiltonian()) <= 1e-6


def test_schrodinger_residual_true_solutions():
    packet = free_packet(0.8, 0.3, 1.2)
    assert schrodinger_residual(packet, packet.hamiltonian(), TAUS) <= 1e-10
    orbiting = coherent_state(0.7, -0.5, frequency=1.3)
    assert schrodinger_residual(orbiting, orbiting.hamiltonian(), TAUS) <= 1e-10


def test_schrodinger_residual_wrong_hamiltonian():
    packet = free_packet(0.8, 0.3, 1.2)
    wrong = HamiltonianSpec("harmonic", 1.0, 1.0)
    assert schrodinger_residual(packet, wrong, [0.5]) > 0.1


def test_schrodinger_residual_perturbed_control():
    packet = free_packet(0.8, 0.3, 1.2)
    perturbed = PerturbedPath(packet, 0.01)
    assert schrodinger_residual(perturbed, packet.hamiltonian(), TAUS) >= 1e-2


def test_three_dimensional_packet():
    packet = free_packet(0.9, [0.1, -0.2, 0.3], [0.5, 0.0, 0.2], space_dim=3)
    assert schrodinger_residual(packet, packet.hamiltonian(), [0.4, 1.0]) <= 1e-10
    assert abs(l2_inner_product(packet.psi(0.8), packet.psi(0.8))) == pytest.approx(
        1.0, abs=1e-12)


def test_velocity_components_structure():
    packet = free_packet(0.8, 0.0, 0.0)
    tau = 0.4
    within, vertical = path_velocity(packet, tau)
    assert [m for _, m in within.jets] == [0]
    assert [m for _, m in vertical.jets] == [1]
    # The delta' coefficient is exactly -psi(., tau).
    psi = packet.psi(tau)
    diff = vertical.jets[0][0] + psi
    assert norm_squared(diff, spatial_spec(1)) <= 1e-14
    # With zero momentum and a free Hamiltonian the order-0 component is the
    # pure kinetic term -i (-1/2m) psi''.
    want = (-1j) * packet.hamiltonian().apply(psi)
    got = within.jets[0][0]
    assert norm_squared(got - want, spatial_spec(1)) <= 1e-14


def test_velocity_sum_equals_path_derivative_on_shell():
    for path in (free_packet(0.8, 0.3, 1.2), coherent_state(0.7, -0.5, frequency=1.3)):
        for tau in (0.2, 1.3):
            c1, c2 = path_velocity(path, tau)
            total = c1 + c2
            reference = path_derivative(path, tau)
            gap = total + (-1.0) * reference
            assert abs(slice_norm_squared(gap, "H_tilde")) <= 1e-12


def test_velocity_orthogonality_all_metrics():
    for path in (free_packet(0.8, 0.3, 1.2), coherent_state(0.7, -0.5, frequency=1.3)):
        for tau in TAUS:
            c1, c2 = path_velocity(path, tau)
            values = orthogonality_check(c1, c2, METRICS)
            for metric, value in zip(METRICS, values):
                scale = math.sqrt(abs(slice_norm_squared(c1, metric))
                                  * abs(slice_norm_squared(c2, metric)))
                assert abs(value) <= 1e-8 * scale


def test_hamiltonian_component_has_positive_slice_norm():
    packet = free_packet(0.8, 0.3, 1.2)
    c1, _ = path_velocity(packet, 0.9)
    assert slice_norm_squared(c1, "H_eta") > 0


def test_vertical_component_norm_signs():
    packet = free_packet(0.8, 0.3, 1.2)
    _, c2 = path_velocity(packet, 0.9)
    # delta' jets are odd in time: negative squared norm in the indefinite
    # metric, positive in the two Hilbert metrics.
    assert slice_norm_squared(c2, "H_eta") < 0
    assert slice_norm_squared(c2, "H_tilde") > 0
    assert slice_norm_squared(c2, "H_T") > 0


def test_non_orthogonal_control():
    packet = free_packet(0.8, 0.3, 1.2)
    tau = 0.5
    c = TimeSlicedElement.order_zero(packet.psi(tau), tau)
    assert abs(slice_inner_product(c, c, "H_eta")) > 0.1


def test_slice_collapse_to_spatial_inner_product():
    packet = free_packet(0.8, 0.3, 1.2)
    orbiting = coherent_state(0.7, -0.5, frequency=1.3)
    tau = 1.0
    psi1, psi2 = packet.psi(tau), orbiting.psi(tau)
    s1 = TimeSlicedElement.order_zero(psi1, tau)
    s2 = TimeSlicedElement.order_zero(psi2, tau)
    want = inner_product(psi1, psi2, spatial_spec(1))
    for metric in METRICS:
        assert slice_inner_product(s1, s2, metric) == pytest.approx(want, abs=1e-13)


def test_superposition_norm_identity():
    packet = free_packet(0.8, 0.3, 1.2)
    orbiting = coherent_state(0.7, -0.5, frequency=1.3)
    tau = 1.0
    psi1, psi2 = packet.psi(tau), orbiting.psi(tau)
    combined = (TimeSlicedElement.order_zero(psi1, tau)
                + TimeSlicedElement.order_zero(psi2, tau))
    want = norm_squared(psi1 + psi2, spatial_spec(1))
    for metric in METRICS:
        assert slice_norm_squared(combined, metric) == pytest.approx(want, abs=1e-12)


def test_zero_slice_element():
    zero = TimeSlicedElement(0.5, ((SpaceElement.zero(1), 0),), 1)
    assert slice_inner_product(zero, zero) == 0


def test_unequal_slice_times_rejected():
    packet = free_packet(0.8, 0.0, 0.0)
    s1 = TimeSlicedElement.order_zero(packet.psi(0.1), 0.1)
    s2 = TimeSlicedElement.order_zero(packet.psi(0.2), 0.2)
    with pytest.raises(ValueError):
        slice_inner_product(s1, s2)


def test_slice_label_tracks_time_argument():
    # The evolution parameter of the sliced path is the same bookkeeping
    # quantity as the time argument of the wave function: the slice at tau
    # carries exactly psi(., tau).
    packet = free_packet(0.8, 0.3, 1.2)
    for tau in (0.0, 0.7, 1.9):
        se = packet.slice_element(tau)
        assert se.slice_time == tau
        gap = se.jets[0][0] - packet.psi(tau)
        assert norm_squared(gap, spatial_spec(1)) == 0.0


def test_hamiltonian_spec_validation():
    with pytest.raises(ValueError):
        HamiltonianSpec("free", mass=0.0)
    with pytest.raises(ValueError):
        HamiltonianSpec("quartic")
    with pytest.raises(ValueError):
        HamiltonianSpec("harmonic", frequency=-1.0)


@pytest.mark.parametrize("kind", ["free", "harmonic"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_hamiltonian_spec_rejects_non_finite_mass_and_frequency(kind, bad):
    with pytest.raises(ValueError, match="mass must be positive and finite"):
        HamiltonianSpec(kind, mass=bad)
    with pytest.raises(ValueError, match="frequency"):
        HamiltonianSpec(kind, 1.0, frequency=bad)


@pytest.mark.parametrize("frequency", [1.3, -1.0, float("nan")])
def test_free_hamiltonian_rejects_a_frequency(frequency):
    with pytest.raises(ValueError, match="frequency"):
        HamiltonianSpec("free", 1.0, frequency=frequency)
    assert HamiltonianSpec("free", 1.0, frequency=0.0).frequency == 0.0


def test_hamiltonian_offset_enters_linearly():
    psi = SpaceElement.gaussian([[1.0]])
    h0 = HamiltonianSpec("free", 1.0)
    h1 = HamiltonianSpec("free", 1.0, offset=2.0)
    diff = h1.apply(psi) - h0.apply(psi) - 2.0 * psi
    assert norm_squared(diff, spatial_spec(1)) <= 1e-14


def test_galileo_time_shift_moves_label_only():
    packet = free_packet(0.9, [0.1, -0.2, 0.3], [0.5, 0.0, 0.2], space_dim=3)
    se = packet.slice_element(1.0)
    g = GalileoElement(np.eye(3), np.zeros(3), np.zeros(3), 0.4)
    out = galileo_on_slice(g, se)
    assert out.slice_time == pytest.approx(0.6)
    gap = out.jets[0][0] - se.jets[0][0]
    assert abs(norm_squared(gap, spatial_spec(3))) <= 1e-14


def test_galileo_rotation_preserves_spatial_norm():
    rng = np.random.default_rng(6)
    packet = free_packet(0.9, [0.1, -0.2, 0.3], [0.5, 0.0, 0.2], space_dim=3)
    se = packet.slice_element(1.0)
    base = norm_squared(se.jets[0][0], spatial_spec(3))
    for _ in range(10):
        g = random_galileo(rng)
        out = galileo_on_slice(g, se)
        assert [m for _, m in out.jets] == [0]
        assert norm_squared(out.jets[0][0], spatial_spec(3)) == pytest.approx(
            base, abs=1e-12)


def test_galileo_boost_recenters():
    g = GalileoElement(np.eye(3), np.array([0.6, 0.0, 0.0]), np.zeros(3), 0.0)
    packet = free_packet(1.0, 0.0, 0.0, space_dim=3)
    out = galileo_on_slice(g, packet.slice_element(1.0))
    term = out.jets[0][0].gaussians[0]
    center = np.real(term.lin) @ np.linalg.inv(np.real(term.quad))
    assert np.allclose(center, [-0.6, 0.0, 0.0], atol=1e-12)


def test_galileo_slice_requires_order_zero():
    packet = free_packet(0.9, 0.0, 0.0, space_dim=3)
    se = TimeSlicedElement(0.5, ((packet.psi(0.5), 1),), 3)
    g = GalileoElement.identity()
    with pytest.raises(ValueError):
        galileo_on_slice(g, se)


def test_galileo_slice_requires_three_dimensions():
    packet = free_packet(0.8, 0.0, 0.0)
    with pytest.raises(ValueError):
        galileo_on_slice(GalileoElement.identity(), packet.slice_element(0.0))


def test_three_dimensional_velocity_orthogonality():
    packet = free_packet(0.9, [0.1, -0.2, 0.3], [0.5, 0.0, 0.2], space_dim=3)
    c1, c2 = path_velocity(packet, 0.8)
    for metric, value in zip(METRICS, orthogonality_check(c1, c2, METRICS)):
        scale = math.sqrt(abs(slice_norm_squared(c1, metric))
                          * abs(slice_norm_squared(c2, metric)))
        assert abs(value) <= 1e-8 * scale


def jet_loop(s1, s2, metric):
    """The slice inner product as a loop over jet pairs, one inner_product call each, and the
    summed magnitude of the term pairs it adds up."""
    spec = spatial_spec(s1.space_dim)
    total, scale = 0.0 + 0.0j, 0.0
    for psi1, m1 in s1.jets:
        for psi2, m2 in s2.jets:
            kappa = time_factor_derivative(metric, m1, m2, s1.slice_time)
            if kappa != 0.0:
                total += (-1.0) ** (m1 + m2) * kappa * inner_product(psi1, psi2, spec)
                scale += abs(kappa) * sum(abs(inner_product(a, b, spec))
                                          for a in pieces(psi1) for b in pieces(psi2))
    return total, scale


def pieces(e):
    return ([SpaceElement(e.dim, (t,)) for t in e.gaussians]
            + [SpaceElement(e.dim, (), (t,)) for t in e.deltas])


def complexes(bound=1.0):
    return st.builds(complex, st.floats(-bound, bound), st.floats(-bound, bound))


@st.composite
def spatial_parts(draw, dim, plain):
    """A Gaussian mixture, monomial-free when ``plain``, and otherwise with monomials and delta jets."""
    gaussians = []
    for _ in range(draw(st.integers(1 if plain else 0, 2))):
        quad = np.diag([complex(draw(st.floats(0.8, 2.0)), draw(st.floats(-0.4, 0.4))) for _ in range(dim)])
        lin = [0.5 * draw(complexes()) for _ in range(dim)]
        poly = () if plain else tuple(draw(st.integers(0, 1)) for _ in range(dim))
        gaussians.append(GaussianTerm(draw(complexes(2.0)), quad, lin, poly))
    deltas = []
    for _ in range(0 if plain else draw(st.integers(0, 2))):
        orders = [0] * dim
        for axis in draw(st.lists(st.integers(0, dim - 1), max_size=JET_ORDER_CAP)):
            orders[axis] += 1
        deltas.append(DeltaJetTerm(draw(complexes(2.0)), [draw(st.floats(-1.0, 1.0)) for _ in range(dim)],
                                   tuple(orders)))
    return SpaceElement(dim, tuple(gaussians), tuple(deltas))


@st.composite
def slice_batches(draw):
    """Pairs drawn with repeats from a few slice elements of one slice time, and one with no jets."""
    dim, plain, tau = draw(st.sampled_from((1, 3))), draw(st.booleans()), draw(st.floats(-2.0, 2.0))
    jet = st.tuples(spatial_parts(dim, plain), st.integers(0, MAX_TIME_JET_ORDER))
    elements = [TimeSlicedElement(tau, tuple(draw(st.lists(jet, min_size=1, max_size=3))), dim)
                for _ in range(draw(st.integers(1, 3)))] + [TimeSlicedElement(tau, (), dim)]
    index = st.integers(0, len(elements) - 1)
    pairs = [(elements[i], elements[j]) for i, j in draw(st.lists(st.tuples(index, index), max_size=6))]
    return plain, pairs


@settings(max_examples=40, deadline=None)
@given(slice_batches())
def test_slice_batch_matches_the_loop_for_every_metric(case):
    plain, pairs = case
    values = slice_inner_products(pairs)
    assert values.shape == (len(pairs), len(METRICS)) and values.dtype == complex
    for row, (s1, s2) in zip(values, pairs):
        for value, metric in zip(row, METRICS):
            want, scale = jet_loop(s1, s2, metric)
            assert slice_inner_product(s1, s2, metric) == want
            if plain:
                assert value == want
            else:
                assert abs(value - want) <= 1e-13 * scale


def test_empty_slice_batch():
    assert slice_inner_products([]).shape == (0, len(METRICS))
    assert slice_inner_products([], ("H_T",)).shape == (0, 1)


def test_unknown_slice_metric_is_rejected_in_an_empty_batch():
    with pytest.raises(ValueError, match="unknown slice metric"):
        slice_inner_products([], ("H_eta", "bogus"))


def test_slice_batch_raises_the_loops_error_for_unequal_slice_times():
    packet = free_packet(0.8, 0.0, 0.0)
    s1 = TimeSlicedElement.order_zero(packet.psi(0.1), 0.1)
    s2 = TimeSlicedElement.order_zero(packet.psi(0.2), 0.2)
    pairs = [(s1, s1), (s1, s2)]
    with pytest.raises(ValueError) as looped:
        for a, b in pairs:
            slice_inner_product(a, b)
    with pytest.raises(ValueError) as batched:
        slice_inner_products(pairs)
    assert "differ" in str(batched.value) and str(batched.value) == str(looped.value)


# -- residuals against the term-by-term algorithms ---------------------------------


def reference_value(path, x, t):
    """psi(x, t) at one time from the coefficients, one exponential per call."""
    if isinstance(path, PerturbedPath):
        return (1.0 + path.eps * x) * reference_value(path.base, x, t)
    a, b, c = path.coefficients(t)
    pts = x.reshape(-1, 1)
    return np.exp(-0.5 * a * np.sum(pts * pts, axis=1) + pts @ b + c).reshape(x.shape)


def reference_psi_t(path, tau):
    """d psi/dt as a running sum of elements, on its own psi."""
    if isinstance(path, PerturbedPath):
        p = reference_psi_t(path.base, tau)
        return p + path.eps * p.mul_coord(0)
    psi = path.psi(tau)
    adot, bdot, cdot = path.coefficient_rates(tau)
    result = cdot * psi
    for axis in range(path.space_dim):
        x_psi = psi.mul_coord(axis)
        if bdot[axis] != 0:
            result = result + bdot[axis] * x_psi
        if adot != 0:
            result = result + (-0.5 * adot) * x_psi.mul_coord(axis)
    return result


def reference_apply(h, psi):
    """h psi as a running sum of elements, rescaled as a whole."""
    kinetic = SpaceElement.zero(psi.dim)
    for axis in range(psi.dim):
        kinetic = kinetic + psi.derivative(axis).derivative(axis)
    result = (-0.5 / h.mass) * kinetic
    if h.kind == "harmonic" and h.frequency > 0.0:
        for axis in range(psi.dim):
            result = result + 0.5 * h.mass * h.frequency ** 2 * psi.mul_coord(axis).mul_coord(axis)
    if h.offset != 0.0:
        result = result + h.offset * psi
    return result


def reference_residual(path, h, taus):
    """The closed-form residual with psi rebuilt for each jet and every term evaluated on its own."""
    worst = 0.0
    for tau in taus:
        pts = default_sample_grid(path, float(tau))
        psi = path.psi(float(tau))
        res = reference_psi_t(path, float(tau)) + 1j * reference_apply(h, psi)
        res_vals = np.abs(evaluate_term_by_term(res, pts))
        psi_vals = np.abs(evaluate_term_by_term(psi, pts))
        floor = 1e-6 * float(psi_vals.max())
        worst = max(worst, float(np.max(res_vals / np.maximum(psi_vals, floor))))
    return worst


def reference_fd(path, h, x_range, t_range, nx, nt, step=4e-4):
    """The finite-difference residual one time row at a time."""
    xs = np.linspace(*x_range, nx)
    scale = worst = 0.0
    for t in np.linspace(*t_range, nt):
        psi0 = reference_value(path, xs, t)
        psi_t = (reference_value(path, xs, t + step) - reference_value(path, xs, t - step)) / (2.0 * step)
        psi_xx = (reference_value(path, xs + step, t) - 2.0 * psi0
                  + reference_value(path, xs - step, t)) / step ** 2
        potential = np.zeros_like(xs)
        if h.kind == "harmonic":
            potential = 0.5 * h.mass * h.frequency ** 2 * xs ** 2
        potential = potential + h.offset
        residual = 1j * psi_t + psi_xx / (2.0 * h.mass) - potential * psi0
        worst = max(worst, float(np.max(np.abs(residual))))
        scale = max(scale, float(np.max(np.abs(psi0))))
    return worst / scale


def residual_paths():
    paths = [free_packet(0.8, 0.3, 1.2), coherent_state(0.7, -0.5, frequency=1.3)]
    return paths + [PerturbedPath(p, 0.01) for p in paths]


@pytest.mark.parametrize("path", residual_paths(), ids=["free", "oscillator", "free-perturbed",
                                                          "oscillator-perturbed"])
def test_residuals_equal_the_term_by_term_algorithms(path):
    h = getattr(path, "base", path).hamiltonian()
    for taus in (TAUS, np.linspace(-1.0, 3.0, 7)):
        assert schrodinger_residual(path, h, taus) == reference_residual(path, h, taus)
    shifted = dataclasses.replace(h, offset=0.37)
    assert schrodinger_residual(path, shifted, TAUS) == reference_residual(path, shifted, TAUS)
    for grid in (((-6.0, 6.0), (0.0, 1.0), 50, 50), ((-4.0, 5.0), (0.3, 2.0), 17, 9),
                 ((-1.0, 1.0), (0.5, 0.5), 1, 1)):
        assert pde_residual_fd(path, h, *grid) == reference_fd(path, h, *grid)


def test_three_dimensional_residual_equals_the_term_by_term_algorithm():
    packet = free_packet(0.9, [0.1, -0.2, 0.3], [0.5, 0.0, 0.2], space_dim=3)
    taus = [0.4, 1.0]
    assert schrodinger_residual(packet, packet.hamiltonian(), taus) \
        == reference_residual(packet, packet.hamiltonian(), taus)


@pytest.mark.parametrize("path", residual_paths()[:2] + [
    free_packet(0.9, [0.1, -0.2, 0.3], [0.5, 0.0, 0.2], space_dim=3),
    PerturbedPath(coherent_state([0.2, 0.1], [-0.3, 0.4], frequency=0.9, space_dim=2), 0.05),
], ids=["free", "oscillator", "free-3d", "perturbed-2d"])
def test_value_rows_equal_the_call_at_each_time(path):
    rng = np.random.default_rng(path.space_dim)
    x = rng.normal(size=(6,) if path.space_dim == 1 else (2, 3, path.space_dim))
    times = np.array([-0.7, 0.0, 0.25, 1.9])
    grid = path.value(x, times)
    assert grid.shape == times.shape + (x.shape if path.space_dim == 1 else x.shape[:-1])
    for row, t in zip(grid, times):
        assert np.array_equal(row, path.value(x, t))
    if isinstance(path, PerturbedPath):  # the factor 1 + eps x1 reads the first coordinate
        assert np.array_equal(grid, (1.0 + path.eps * x[..., 0]) * path.base.value(x, times))
    assert path.value(x, np.array([])).shape == (0,) + grid.shape[1:]


def test_value_at_one_time_equals_the_coefficient_formula():
    for path in residual_paths():
        xs = np.linspace(-3.0, 3.0, 13)
        assert np.array_equal(path.value(xs, 0.45), reference_value(path, xs, 0.45))


def test_fd_oracle_finds_the_perturbed_control_off_shell():
    for path in residual_paths()[:2]:
        h = path.hamiltonian()
        true = pde_residual_fd(path, h)
        assert true <= 1e-6
        assert pde_residual_fd(PerturbedPath(path, 0.01), h) >= 1e-2 > 1e4 * true


def test_residuals_build_psi_once_per_time_and_call_value_a_fixed_number_of_times(monkeypatch):
    built, calls = [], []
    psi, value = EvolutionPath.psi, EvolutionPath.value

    def counted_psi(self, tau):
        built.append(tau)
        return psi(self, tau)

    def counted_value(self, x, t):
        calls.append(np.shape(t))
        return value(self, x, t)

    monkeypatch.setattr(EvolutionPath, "psi", counted_psi)
    monkeypatch.setattr(EvolutionPath, "value", counted_value)
    for path in residual_paths():
        h = getattr(path, "base", path).hamiltonian()
        built.clear()
        schrodinger_residual(path, h, TAUS)
        assert built == [float(tau) for tau in TAUS]
        for nt in (1, 7, 50, 200):
            calls.clear()
            pde_residual_fd(path, h, nt=nt)
            assert calls == [(nt,)] * 5


@pytest.mark.parametrize("taus", [[], np.array([])])
def test_schrodinger_residual_rejects_an_empty_time_grid(taus):
    packet = free_packet(0.8, 0.3, 1.2)
    with pytest.raises(ValueError, match="taus"):
        schrodinger_residual(packet, packet.hamiltonian(), taus)


@pytest.mark.parametrize("grid, name", [({"nx": 0}, "nx"), ({"nt": 0}, "nt"), ({"nx": -3}, "nx"),
                                        ({"nx": 5, "nt": 0}, "nt")])
def test_fd_oracle_rejects_an_empty_grid(grid, name):
    packet = free_packet(0.8, 0.3, 1.2)
    with pytest.raises(ValueError, match=name):
        pde_residual_fd(packet, packet.hamiltonian(), **grid)
