import math

import numpy as np
import pytest

from kreingeo.algebra import inner_product, l2_inner_product, norm_squared
from kreingeo.dynamics import (MAX_TIME_JET_ORDER, HamiltonianSpec, PerturbedPath,
                               TimeSlicedElement, coherent_state, free_packet, galileo_on_slice,
                               orthogonality_check, path_derivative, path_velocity,
                               pde_residual_fd, schrodinger_residual,
                               slice_inner_product, slice_norm_squared, spatial_spec,
                               time_factor_derivative)
from kreingeo.elements import SpaceElement
from kreingeo.groups import GalileoElement, random_galileo
from kreingeo.kernels import KernelSpec

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
