import math

import numpy as np
import pytest

from qtraj import (
    HermitianOperator,
    MeterModel,
    NumericError,
    PointerState,
    StateVector,
    ValidationError,
    build_gaussian_meter,
    coverage_half_width,
    gaussian_pointer,
    joint_single_kick,
    propagator,
    sharp_projections,
    single_kick_evolve,
)
from qtraj.presets import get_preset, preset_meter

rng = np.random.default_rng(202)

R01 = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))


def random_hermitian(d):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return HermitianOperator((a + a.conj().T) / 2)


def test_meter_rows_beyond_memory_rejected_before_any_table(monkeypatch):
    # 1e5 pointer points at d = 64 take 64 * 66 bytes each (422 MB).
    def no_tables(*_):
        raise AssertionError("a meter table was built")

    monkeypatch.setattr("qtraj.errors.physical_memory", lambda: 2 ** 25)
    pointer = gaussian_pointer(100_000, 40.0)
    monkeypatch.setattr(PointerState, "evaluate", no_tables)
    with pytest.raises(ValidationError, match=r"^pointer points at d=64 must be at most 7943 "
                                              r"for 4224-byte meter rows, got 100000$"):
        MeterModel(0.3, HermitianOperator(np.diag(np.arange(64.0))), pointer)


class TestGaussianPointer:
    def test_center_value_before_renormalization(self):
        p = gaussian_pointer(512, 6.0)
        # exp(0) = 1, so the packet value at the origin equals the amplitude factor
        assert complex(p.evaluate(0.0)) == pytest.approx(p.amplitude)
        assert p.amplitude == pytest.approx(1.0, abs=1e-10)

    def test_unit_quadrature_norm(self):
        p = gaussian_pointer(1024, 7.5)
        assert p.norm2() == pytest.approx(1.0, abs=1e-12)

    def test_zero_mean_momentum_for_real_packet(self):
        from qtraj import noise_covariance

        p = gaussian_pointer(1024, 6.0)
        assert noise_covariance(p).q0 == pytest.approx(0.0, abs=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            gaussian_pointer(8, 6.0)
        with pytest.raises(ValidationError):
            gaussian_pointer(64, -1.0)

    @pytest.mark.parametrize("half_width, phase_slope", [
        (5e-324, 0.0), (1e-310, 0.0), (6.0, math.inf), (6.0, -math.inf), (6.0, math.nan),
        (6.0, 1e308)], ids=str)
    def test_edge_parameters_rejected_before_the_grid(self, monkeypatch, half_width, phase_slope):
        # A quadrature norm that underflows to 0 and a phase beyond floats
        # fail as ValidationError before any array is built.
        def built(*args, **kwargs):
            raise AssertionError("the grid was built")

        monkeypatch.setattr(np, "linspace", built)
        with pytest.raises(ValidationError):
            gaussian_pointer(256, half_width, phase_slope)


class TestMeterConstruction:
    def test_povm_completeness_presets(self):
        for name, d in (("two-level", None), ("lattice-particle", 8)):
            meter = preset_meter(get_preset(name, d=d))
            assert meter.povm_defect <= 1e-6

    def test_insufficient_coverage_rejected(self):
        pointer = gaussian_pointer(256, 2.0)
        with pytest.raises(ValidationError, match="half-width"):
            MeterModel(1.5, R01, pointer)

    def test_coverage_rule(self):
        assert coverage_half_width(0.5, 3.0) == pytest.approx(7.5)

    def test_plain_array_R_builds_the_same_tables(self):
        R = HermitianOperator(np.array([[0.5, 1j, 0.0], [-1j, 0.0, 0.25], [0.0, 0.25, -1.0]]))
        pointer = gaussian_pointer(256, 6.0)
        meter, plain = MeterModel(0.3, R, pointer), MeterModel(0.3, R.entries.copy(), pointer)
        assert isinstance(plain.R, HermitianOperator)
        assert plain.reduction_family.tobytes() == meter.reduction_family.tobytes()
        assert plain.eigenvectors.tobytes() == meter.eigenvectors.tobytes()

    def test_plain_non_hermitian_R_rejected(self):
        with pytest.raises(ValidationError, match="is not Hermitian"):
            MeterModel(0.3, np.array([[0.0, 1.0], [0.0, 1.0]]), gaussian_pointer(256, 6.0))


class TestLocalizer:
    def test_kappa_zero_is_scalar(self):
        meter = build_gaussian_meter(0.0, R01)
        lam = 0.7
        f = meter.pointer.evaluate(lam)
        assert np.allclose(meter.localizer(lam), f * np.eye(2))

    def test_diagonal_functional_calculus(self):
        meter = build_gaussian_meter(1.0, R01)
        F = meter.localizer(0.3)
        p = meter.pointer
        assert np.allclose(np.diag(F), [p.evaluate(0.3), p.evaluate(-0.7)])

    def test_commutes_with_measured_observable(self):
        R = random_hermitian(5)
        meter = build_gaussian_meter(0.4, R)
        F = meter.localizer(1.1)
        assert np.max(np.abs(F @ R.entries - R.entries @ F)) <= 1e-10

    def test_out_of_range(self):
        meter = build_gaussian_meter(0.3, R01)
        with pytest.raises(ValidationError, match="outside"):
            meter.localizer(100.0)


class TestReduction:
    def test_kappa_zero_is_identity(self):
        meter = build_gaussian_meter(0.0, R01)
        assert np.allclose(meter.reduction(0.9), np.eye(2), atol=1e-14)

    def test_vanishing_exponent_point(self):
        # lambda = kappa/2 makes the exponent kappa*r*(lambda - kappa*r/2) vanish for r in {0, 1}
        meter = build_gaussian_meter(1.0, R01)
        assert np.allclose(meter.reduction(0.5), np.eye(2), atol=1e-12)

    def test_gaussian_closed_form(self):
        R = random_hermitian(4)
        meter = build_gaussian_meter(0.6, R)
        for lam in (-1.3, 0.2, 2.0):
            assert np.max(np.abs(meter.reduction(lam) - meter.reduction_closed_form(lam))) <= 1e-8

    def test_closed_form_with_phase_slope(self):
        meter = build_gaussian_meter(0.5, R01, phase_slope=0.8)
        for lam in (-0.4, 1.1):
            assert np.max(np.abs(meter.reduction(lam) - meter.reduction_closed_form(lam))) <= 1e-8

    def test_degenerate_point_rejected(self):
        meter = build_gaussian_meter(1.0, R01)  # half-width 7, support ends near 4.2
        with pytest.raises(NumericError, match="degenerate"):
            meter.reduction(6.5)


class TestOutputDensity:
    def test_eigenvector_gives_shifted_packet(self):
        meter = build_gaussian_meter(0.8, R01)
        eta = StateVector(np.array([0.0, 1.0], dtype=complex))
        p = meter.output_density(eta)
        expected = np.abs(meter.pointer.evaluate(meter.grid - 0.8)) ** 2
        assert np.max(np.abs(p - expected)) <= 1e-12

    def test_kappa_zero_gives_pointer_density(self):
        meter = build_gaussian_meter(0.0, R01)
        eta = StateVector(rng.standard_normal(2) + 1j * rng.standard_normal(2)).normalized()
        p = meter.output_density(eta)
        assert np.max(np.abs(p - np.abs(meter.pointer.values) ** 2)) <= 1e-12

    def test_two_point_superposition_is_balanced_mixture(self):
        # independent oracle: direct quadrature of the convolution formula
        kappa = 1.2
        meter = build_gaussian_meter(kappa, R01)
        eta = StateVector(np.array([1.0, 1.0]) / math.sqrt(2))
        p = meter.output_density(eta)
        lam = meter.grid
        expected = 0.5 * (
            np.abs(meter.pointer.evaluate(lam)) ** 2
            + np.abs(meter.pointer.evaluate(lam - kappa)) ** 2
        )
        assert np.max(np.abs(p - expected)) <= 1e-12

    def test_normalization(self):
        R = random_hermitian(6)
        meter = build_gaussian_meter(0.5, R)
        eta = StateVector(rng.standard_normal(6) + 1j * rng.standard_normal(6)).normalized()
        total = float(np.sum(meter.output_density(eta) * meter.pointer.weights))
        assert abs(total - 1.0) <= 1e-6

    def test_rejects_unnormalized_state(self):
        meter = build_gaussian_meter(0.5, R01)
        with pytest.raises(ValidationError, match="normalized"):
            meter.output_density(StateVector(np.array([1.0, 1.0])))


class TestPosteriorState:
    def test_eigenvector_fixed_point(self):
        meter = build_gaussian_meter(0.7, R01)
        eta = StateVector(np.array([1.0, 0.0], dtype=complex))
        post = meter.posterior_state(eta, 0.4)
        assert np.allclose(post.amps, eta.amps, atol=1e-12)

    def test_symmetric_outcome_balances_weights(self):
        kappa = 0.9
        meter = build_gaussian_meter(kappa, R01)
        eta = StateVector(np.array([1.0, 1.0]) / math.sqrt(2))
        post = meter.posterior_state(eta, kappa / 2)
        assert abs(post.amps[0]) == pytest.approx(abs(post.amps[1]), abs=1e-10)

    def test_generic_amplitudes(self):
        kappa = 0.8
        meter = build_gaussian_meter(kappa, R01)
        eta = StateVector(np.array([0.6, 0.8j]))
        lam = 0.5
        post = meter.posterior_state(eta, lam)
        raw = np.array([
            meter.pointer.evaluate(lam) * 0.6,
            meter.pointer.evaluate(lam - kappa) * 0.8j,
        ]) / meter.pointer.evaluate(lam)
        raw /= np.linalg.norm(raw)
        assert np.max(np.abs(post.amps - raw)) <= 1e-10
        assert post.norm2() == pytest.approx(1.0, abs=1e-12)

    def test_zero_likelihood(self):
        # lambda = -4 is inside the support but G11 ~ exp(-3*pi*5.5) annihilates e1
        meter = build_gaussian_meter(3.0, R01)
        eta = StateVector(np.array([0.0, 1.0], dtype=complex))
        with pytest.raises(NumericError, match="likelihood"):
            meter.posterior_state(eta, -4.0)


class TestSharpProjections:
    def test_two_level_unit_kappa(self):
        projs = sharp_projections(R01, 1.0)
        assert set(projs) == {0.0, 1.0}
        assert np.allclose(projs[0.0], np.diag([1.0, 0.0]))
        assert np.allclose(projs[1.0], np.diag([0.0, 1.0]))

    def test_wide_cell_collapses_to_identity(self):
        R = HermitianOperator(np.diag([0.1, 0.7]).astype(complex))
        projs = sharp_projections(R, 5.0)
        assert len(projs) == 1
        assert np.allclose(next(iter(projs.values())), np.eye(2))

    def test_family_properties_random(self):
        R = random_hermitian(8)
        projs = sharp_projections(R, 0.5)
        total = np.zeros((8, 8), dtype=complex)
        items = list(projs.values())
        for i, E in enumerate(items):
            assert np.max(np.abs(E @ E - E)) <= 1e-12
            for F in items[i + 1:]:
                assert np.max(np.abs(E @ F)) <= 1e-12
            total += E
        assert np.max(np.abs(total - np.eye(8))) <= 1e-12

    def test_kappa_positive_required(self):
        with pytest.raises(ValidationError):
            sharp_projections(R01, 0.0)


class TestSingleKick:
    H = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))

    def test_pure_kick(self):
        meter = build_gaussian_meter(0.5, R01)
        H0 = HermitianOperator(np.zeros((2, 2)))
        eta = StateVector(np.array([0.6, 0.8], dtype=complex))
        out = single_kick_evolve(meter, H0, eta, -0.5, 0.5, lam=0.3)
        assert np.allclose(out.amps, meter.reduction(0.3) @ eta.amps)

    def test_no_kick_is_free_evolution(self):
        meter = build_gaussian_meter(0.0, R01)
        eta = StateVector(np.array([1.0, 0.0], dtype=complex))
        out = single_kick_evolve(meter, self.H, eta, -0.25, 0.75)
        assert np.allclose(out.amps, propagator(self.H, 1.0) @ eta.amps, atol=1e-12)

    def test_commuting_factorization(self):
        Hc = HermitianOperator(np.diag([0.2, 1.3]).astype(complex))  # commutes with R
        meter = build_gaussian_meter(0.5, R01)
        eta = StateVector(np.array([0.6, 0.8j]))
        out = single_kick_evolve(meter, Hc, eta, -0.4, 0.6, lam=0.2)
        direct = propagator(Hc, 1.0) @ (meter.reduction(0.2) @ eta.amps)
        assert np.max(np.abs(out.amps - direct)) <= 1e-12

    def test_time_ordering_validated(self):
        meter = build_gaussian_meter(0.5, R01)
        eta = StateVector(np.array([1.0, 0.0], dtype=complex))
        with pytest.raises(ValidationError):
            single_kick_evolve(meter, self.H, eta, 0.5, 1.0, lam=0.0)


class TestJointSingleKick:
    def test_point_localized_state(self):
        meter = build_gaussian_meter(0.9, R01)
        eta = StateVector(np.array([0.0, 1.0], dtype=complex))
        table = joint_single_kick(meter, eta)
        assert np.allclose(table[0], 0.0)
        assert np.allclose(table[1], meter.pointer.evaluate(meter.grid - 0.9))

    def test_kappa_zero_product_form(self):
        meter = build_gaussian_meter(0.0, R01)
        eta = StateVector(np.array([0.6, 0.8], dtype=complex))
        table = joint_single_kick(meter, eta)
        expected = np.outer(eta.amps, meter.pointer.values)
        assert np.max(np.abs(table - expected)) <= 1e-12

    def test_column_norms_reproduce_output_density(self):
        R = random_hermitian(4)
        meter = build_gaussian_meter(0.5, R)
        eta = StateVector(rng.standard_normal(4) + 1j * rng.standard_normal(4)).normalized()
        table = joint_single_kick(meter, eta)
        marginal = np.sum(np.abs(table) ** 2, axis=0)
        assert np.max(np.abs(marginal - meter.output_density(eta))) <= 1e-10


class TestTabulatedPointer:
    def test_meter_from_tabulated_packet(self):
        p = gaussian_pointer(1024, 6.5)
        q = PointerState(p.grid, p.values, p.weights)  # no analytic tag: spline evaluation path
        meter = MeterModel(0.3, R01, q)
        assert meter.povm_defect <= 1e-6
        ref = build_gaussian_meter(0.3, R01, n_points=1024)
        lam = 0.4
        assert np.max(np.abs(meter.reduction(lam) - ref.reduction_closed_form(lam))) <= 1e-6
