import math

import numpy as np
import pytest
from scipy import stats as sps

from qtraj import (
    HermitianOperator,
    JumpConfig,
    NumericError,
    StateVector,
    ValidationError,
    build_gaussian_meter,
    evolve_jump,
    propagator,
    run_ensemble,
    run_trajectories,
    sample_outcome,
    sample_poisson_times,
    trajectory_product_check,
)
from qtraj.jumps import DEGENERATE
from qtraj.rng import stream

R01 = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))
HX = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))


def make_config(nu=5.0, kappa=0.3, seed=0, mode="normalized", H=HX):
    meter = build_gaussian_meter(kappa, R01)
    return JumpConfig(H=H, meter=meter, nu=nu, seed=seed, mode=mode)


class TestPoissonTimes:
    def test_zero_intensity(self):
        rng = stream(0, 0)
        for _ in range(5):
            assert sample_poisson_times(0.0, 1.0, rng).size == 0

    def test_empty_probability(self):
        # weight of the empty configuration is exp(-nu T)
        rng = stream(1, 0)
        n = 100000
        empty = sum(sample_poisson_times(2.0, 1.0, rng).size == 0 for _ in range(n))
        p = math.exp(-2.0)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(empty / n - p) <= 3 * se

    def test_mean_count(self):
        rng = stream(2, 0)
        n = 100000
        counts = np.fromiter(
            (sample_poisson_times(2.0, 1.0, rng).size for _ in range(n)), dtype=float
        )
        assert abs(counts.mean() - 2.0) <= 3 * math.sqrt(2.0 / n)

    def test_ordering_and_range(self):
        rng = stream(3, 0)
        times = sample_poisson_times(8.0, 2.5, rng)
        assert np.all(np.diff(times) > 0)
        assert times.size == 0 or (times[0] >= 0 and times[-1] < 2.5)


class TestSampleOutcome:
    def test_kappa_zero_recovers_pointer_density(self):
        cfg = make_config(kappa=0.0)
        rng = stream(4, 0)
        chi = StateVector(np.array([0.6, 0.8j]))
        draws = np.array([sample_outcome(cfg.meter, chi, rng) for _ in range(20000)])
        probs = cfg.meter.support_mu0 / cfg.meter.support_mu0.sum()
        grid = cfg.meter.support_grid
        edges = np.linspace(-3.0, 3.0, 13)
        expected = np.array([
            probs[(grid >= lo) & (grid < hi)].sum() for lo, hi in zip(edges[:-1], edges[1:])
        ])
        observed = np.histogram(draws, bins=edges)[0]
        chi2 = sps.chisquare(observed, expected * draws.size).statistic
        assert chi2 < sps.chi2.ppf(0.99, df=edges.size - 2)

    def test_zero_state_is_degenerate(self):
        with pytest.raises(NumericError, match=f"^{DEGENERATE}$"):
            sample_outcome(make_config().meter, np.zeros(2), stream(4, 0))

    def test_eigenvector_gives_shifted_packet(self):
        # closed form: density exp(-pi (lambda - kappa)^2), mean kappa, var 1/(2 pi)
        kappa = 0.9
        cfg = make_config(kappa=kappa)
        rng = stream(5, 0)
        chi = StateVector(np.array([0.0, 1.0], dtype=complex))
        draws = np.array([sample_outcome(cfg.meter, chi, rng) for _ in range(100000)])
        assert draws.mean() == pytest.approx(kappa, abs=4 * math.sqrt(1 / (2 * math.pi) / draws.size))
        edges = kappa + np.linspace(-1.6, 1.6, 17)
        grid = cfg.meter.support_grid
        w = cfg.meter.outcome_weight_matrix @ np.array([0.0, 1.0])
        w /= w.sum()
        expected = np.array([
            w[(grid >= lo) & (grid < hi)].sum() for lo, hi in zip(edges[:-1], edges[1:])
        ])
        observed = np.histogram(draws, bins=edges)[0]
        keep = expected * draws.size > 10
        chi2 = float(np.sum(
            (observed[keep] - expected[keep] * draws.size) ** 2 / (expected[keep] * draws.size)
        ))
        assert chi2 < sps.chi2.ppf(0.99, df=int(keep.sum()) - 1)

    def test_balanced_superposition_two_bumps(self):
        kappa = 2.0
        meter = build_gaussian_meter(kappa, R01)
        cfg = JumpConfig(H=HX, meter=meter, nu=1.0, seed=0)
        rng = stream(6, 0)
        chi = StateVector(np.array([1.0, 1.0]) / math.sqrt(2))
        draws = np.array([sample_outcome(cfg.meter, chi, rng) for _ in range(20000)])
        left = float(np.mean(draws < kappa / 2))
        assert abs(left - 0.5) <= 3 * math.sqrt(0.25 / draws.size)


class TestEvolveJump:
    def test_no_events_is_free_evolution(self):
        cfg = make_config(nu=0.0)
        eta = StateVector(np.array([1.0, 0.0], dtype=complex))
        traj = evolve_jump(cfg, eta, 1.0)
        assert traj.count == 0
        assert np.allclose(traj.state.amps, propagator(HX, 1.0) @ eta.amps, atol=1e-12)

    def test_eigenvector_is_stationary_without_hamiltonian(self):
        H0 = HermitianOperator(np.zeros((2, 2)))
        cfg = make_config(nu=8.0, kappa=0.8, H=H0, seed=11)
        eta = StateVector(np.array([0.0, 1.0], dtype=complex))
        traj = evolve_jump(cfg, eta, 1.0)
        assert traj.count > 0
        overlap = abs(np.vdot(eta.amps, traj.state.amps))
        assert overlap == pytest.approx(1.0, abs=1e-10)
        lams = np.array([lam for _, lam in traj.events])
        assert np.all(np.abs(lams - 0.8) < 4.0)  # drawn from the shifted packet

    def test_linear_mean_square_normalization(self):
        cfg = make_config(nu=5.0, seed=12, mode="linear")
        eta = StateVector(np.ones(2) / math.sqrt(2))
        n = 10000
        w = np.exp(run_trajectories(cfg, eta, 1.0, n).log_weight)
        se = w.std(ddof=1) / math.sqrt(n)
        assert abs(w.mean() - 1.0) <= 3 * se

    def test_event_count_poisson_in_normalized_mode(self):
        cfg = make_config(nu=4.0, seed=13)
        eta = StateVector(np.ones(2) / math.sqrt(2))
        n = 4000
        counts = run_trajectories(cfg, eta, 1.0, n).counts.astype(float)
        assert abs(counts.mean() - 4.0) <= 3 * math.sqrt(4.0 / n)

    def test_determinism_per_index(self):
        cfg = make_config(seed=14)
        eta = StateVector(np.ones(2) / math.sqrt(2))
        a = evolve_jump(cfg, eta, 1.0, index=5)
        b = evolve_jump(cfg, eta, 1.0, index=5)
        c = evolve_jump(cfg, eta, 1.0, index=6)
        assert a.events == b.events
        assert np.array_equal(a.state.amps, b.state.amps)
        assert a.events != c.events

    def test_sampled_series_normalized_mode(self):
        cfg = make_config(seed=15)
        eta = StateVector(np.ones(2) / math.sqrt(2))
        times = np.linspace(0.2, 1.0, 5)
        traj = evolve_jump(cfg, eta, 1.0, index=0, sample_times=times,
                           observables={"R": R01.entries})
        assert np.allclose(traj.norm2_series, 1.0)
        assert np.all((traj.observable_series["R"] >= -1e-12)
                      & (traj.observable_series["R"] <= 1 + 1e-12))

    def test_rejects_unnormalized_initial_state(self):
        cfg = make_config()
        with pytest.raises(ValidationError):
            evolve_jump(cfg, StateVector(np.array([1.0, 1.0])), 1.0)

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValidationError, match="nu"):
            make_config(nu=-1.0)


class TestEnsembleEquation:
    @pytest.mark.parametrize("run", [run_trajectories, run_ensemble])
    def test_equation_rejected(self, run):
        # The config carries its own mode, which an equation would not override.
        eta = StateVector(np.array([0.6, 0.8], dtype=complex))
        with pytest.raises(ValidationError,
                           match="JumpConfig runs in its own mode 'normalized'; pass no "
                                 "equation, got 'linear'"):
            run(make_config(mode="normalized"), eta, 1.0, 4, equation="linear")


class TestProductCheck:
    def test_empty_event_list(self):
        cfg = make_config()
        eta = StateVector(np.array([0.6, 0.8], dtype=complex))
        a, b = trajectory_product_check(cfg, [], eta, 1.0)
        expected = propagator(HX, 1.0) @ eta.amps
        assert np.allclose(a.amps, expected, atol=1e-12)
        assert np.allclose(b.amps, expected, atol=1e-12)

    def test_single_event(self):
        cfg = make_config()
        eta = StateVector(np.array([0.6, 0.8], dtype=complex))
        a, b = trajectory_product_check(cfg, [(0.3, 0.5)], eta, 1.0)
        expected = (
            propagator(HX, 0.7) @ cfg.meter.reduction(0.5) @ propagator(HX, 0.3) @ eta.amps
        )
        assert np.max(np.abs(a.amps - expected)) <= 1e-12
        assert np.max(np.abs(b.amps - expected)) <= 1e-10

    def test_five_random_events(self):
        cfg = make_config()
        rng = np.random.default_rng(77)
        times = np.sort(rng.uniform(0.0, 2.0, size=5))
        events = [(float(t), float(rng.uniform(-1.0, 1.2))) for t in times]
        eta = StateVector(np.array([0.38, 0.4 + 0.83j])).normalized()
        a, b = trajectory_product_check(cfg, events, eta, 2.0)
        assert np.max(np.abs(a.amps - b.amps)) <= 1e-10

    def test_unordered_events_rejected(self):
        cfg = make_config()
        eta = StateVector(np.array([1.0, 0.0], dtype=complex))
        with pytest.raises(ValidationError):
            trajectory_product_check(cfg, [(0.5, 0.0), (0.2, 0.0)], eta, 1.0)


class TestLinearNormalizedConsistency:
    def test_reweighted_first_outcome_law(self):
        """With the event time fixed, reweighting linear-mode outcomes by the
        final squared norm must reproduce the normalized-mode outcome law."""
        kappa = 0.8
        meter = build_gaussian_meter(kappa, R01)
        eta = StateVector(np.array([0.6, 0.8], dtype=complex))
        # exact first-outcome law under the output measure
        weights = meter.outcome_weight_matrix @ (
            np.abs(meter.eigenvectors.conj().T @ eta.amps) ** 2
        )
        weights = weights / weights.sum()
        grid = meter.support_grid
        edges = np.array([-10.0, -0.2, 0.2, 0.5, 0.8, 1.2, 10.0])
        exact = np.array([
            weights[(grid >= lo) & (grid < hi)].sum() for lo, hi in zip(edges[:-1], edges[1:])
        ])

        n = 10000
        rng_lin = stream(21, 0)
        cdf = meter.mu0_cdf
        lam_lin = np.empty(n)
        w_lin = np.empty(n)
        gdiag = meter.reduction_family
        et = meter.eigenvectors.conj().T @ eta.amps
        for i in range(n):
            idx = min(int(np.searchsorted(cdf, rng_lin.random(), side="right")), cdf.size - 1)
            lam_lin[i] = grid[idx]
            w_lin[i] = float(np.sum(np.abs(gdiag[idx] * et) ** 2))
        bins = np.digitize(lam_lin, edges) - 1
        est = np.array([w_lin[bins == b].sum() for b in range(edges.size - 1)]) / w_lin.sum()
        # delta-method standard errors for the weighted frequencies
        se = np.array([
            np.sqrt(np.sum((w_lin * ((bins == b) - est[b])) ** 2)) for b in range(edges.size - 1)
        ]) / w_lin.sum()
        stat = float(np.sum((est - exact) ** 2 / np.maximum(se, 1e-12) ** 2))
        assert stat < sps.chi2.ppf(0.99, df=edges.size - 1)