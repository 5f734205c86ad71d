import filecmp
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from qtraj import (
    DensityMatrix,
    HermitianOperator,
    DiffusionConfig,
    NumericError,
    StateVector,
    ValidationError,
    evolve_coupled_sse,
    evolve_diffusive_density,
    evolve_diffusive_sse,
    gaussian_pointer,
    mean_field_evolve,
    noise_covariance,
    propagator,
    embed_at_slot,
    run_ensemble,
)
from qtraj.cli import main
from qtraj.diffusion import (
    _coupled_batch,
    _coupled_states,
    _density_batch,
    _density_spectra,
    _density_states,
    _noise_chol,
)
from qtraj.ensemble import _DIFFUSION_CHUNK
from qtraj.rng import stream

R01 = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))
RC = HermitianOperator(np.diag([-0.5, 0.5]).astype(complex))
HX = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))

PI_HALF = math.pi / 2
# Bound on the traced peak of a 512-path, 1000-step two-particle density
# batch: blockwise draws and noise factors stay near 7 MB, where one draw of
# 1000 steps for all paths peaks at about 24 MB.
PEAK_BOUND_BYTES = 12 * 2 ** 20


def make_config(R=RC, H=HX, gamma=1.0, dt=1e-3, seed=0, M=1, phase_slope=0.0, pointer=None):
    if pointer is None:
        pointer = gaussian_pointer(1024, 6.0, phase_slope=phase_slope)
    return DiffusionConfig(H=H, R=R, gamma=gamma, pointer=pointer, dt=dt, seed=seed, M=M)


def chirped_pointer(beta=0.3):
    """Tabulated packet exp(-pi lambda^2 / 2 + i beta lambda^2): unlike a
    linear phase, a chirp makes c1 complex (Im c1 close to -2 beta)."""
    from qtraj.meter import PointerState

    p = gaussian_pointer(1024, 6.0)
    return PointerState(p.grid, p.values * np.exp(1j * beta * p.grid ** 2), p.weights)


def wiener_increments(rng, n_steps, dt, c1, c2):
    """n_steps complex increments dv from rng, two normals per step through
    the Cholesky factors of _noise_chol, as the kernels draw them."""
    a11, a21, a22 = _noise_chol(dt, c1, c2)
    z = rng.standard_normal((n_steps, 2))
    return a11 * z[:, 0] + 1j * (a21 * z[:, 0] + a22 * z[:, 1])


def mixed_product_density(eta, M):
    """0.9 |eta><eta|^{(x)M} + 0.1 I / d^M."""
    pure = StateVector(eta)
    for _ in range(M - 1):
        pure = StateVector(np.kron(pure.amps, eta))
    D = eta.size ** M
    return DensityMatrix(0.9 * pure.density().entries + 0.1 * np.eye(D) / D)


class TestNoiseCovariance:
    def test_gaussian_closed_values(self):
        cov = noise_covariance(gaussian_pointer(1024, 6.0))
        assert cov.c1.real == pytest.approx(PI_HALF, abs=1e-6)
        assert abs(cov.c1.imag) <= 1e-9
        assert cov.c2 == pytest.approx(PI_HALF, abs=1e-6)
        assert cov.q0 == pytest.approx(0.0, abs=1e-12)
        assert cov.sigma2 == pytest.approx(PI_HALF, abs=1e-6)

    def test_phase_modulated_packet(self):
        # f0 e^{i a lambda}: c1 = pi/2 - a^2, c2 = pi/2 + a^2, q0 = -hbar a
        a = 0.7
        cov = noise_covariance(gaussian_pointer(1024, 6.0, phase_slope=a))
        assert cov.c1.real == pytest.approx(PI_HALF - a * a, abs=1e-6)
        assert cov.c2 == pytest.approx(PI_HALF + a * a, abs=1e-6)
        assert cov.q0 == pytest.approx(-a, abs=1e-9)
        assert cov.c2 >= abs(cov.c1)

    @pytest.mark.parametrize("n_points", [256, 512, 1024, 2048])
    def test_real_packet_noise_exactly_real(self, n_points):
        cov = noise_covariance(gaussian_pointer(n_points, 6.0))
        assert cov.c2 == cov.c1.real
        assert cov.c1.imag == 0.0
        _, a21, a22 = _noise_chol(1e-4, 2 * cov.c1, 2 * cov.c2)
        assert a21 == 0.0 and a22 == 0.0

    def test_hbar_scaling(self):
        cov = noise_covariance(gaussian_pointer(512, 6.0), hbar=2.0)
        assert cov.sigma2 == pytest.approx(4.0 * PI_HALF, abs=1e-5)
        assert cov.q0 == pytest.approx(0.0, abs=1e-12)

    def test_tabulated_packet_close_to_analytic(self):
        from qtraj.meter import PointerState

        p = gaussian_pointer(1024, 6.0)
        # no analytic tag: the derivative comes from finite differences
        cov = noise_covariance(PointerState(p.grid, p.values, p.weights))
        assert cov.c2 == pytest.approx(PI_HALF, rel=1e-3)

    def test_interior_zero_rejected(self):
        grid = np.linspace(-6, 6, 513)  # odd count puts a grid point on the node
        vals = np.exp(-0.5 * math.pi * grid ** 2) * np.tanh(grid)
        from qtraj.meter import trapezoid_weights, PointerState

        w = trapezoid_weights(grid)
        vals = vals / math.sqrt(float(np.sum(np.abs(vals) ** 2 * w)))
        pointer = PointerState(grid, vals.astype(complex), w)
        with pytest.raises(NumericError, match="osmotic|vanishes"):
            noise_covariance(pointer)


class TestWienerSampler:
    def test_real_packet_increments_real(self):
        dv = wiener_increments(stream(1, 0), 1000, 1e-3, complex(PI_HALF), PI_HALF)
        assert np.max(np.abs(dv.imag)) == 0.0

    def test_sample_covariance(self):
        c1 = complex(PI_HALF - 0.49, 0.2)
        c2 = PI_HALF + 0.49
        n = 1_000_000
        dt = 1e-3
        dv = wiener_increments(stream(2, 0), n, dt, c1, c2)
        est_c1 = np.mean(dv * dv) / dt
        est_c2 = float(np.mean(np.abs(dv) ** 2) / dt)
        se = 3 * c2 / math.sqrt(n)
        assert abs(est_c1 - c1) <= 3 * se
        assert abs(est_c2 - c2) <= 3 * se

    def test_invalid_table_rejected(self):
        with pytest.raises(ValidationError, match=r"c2 >= \|c1\|"):
            _noise_chol(1e-3, 2.0 + 0j, 1.0)


class TestDiffusiveSse:
    def test_gamma_zero_unitary(self):
        cfg = make_config(gamma=0.0, dt=1e-3, seed=4)
        eta = StateVector(np.ones(2) / math.sqrt(2))
        path = evolve_diffusive_sse(cfg, eta, 1.0, record_times=np.linspace(0.1, 1, 10))
        assert np.max(np.abs(path.norm2 - 1.0)) <= 1e-12

    def test_scalar_coupling_martingale(self):
        # R proportional to the identity: norm^2 is a scalar exponential martingale
        R = HermitianOperator(0.7 * np.eye(2, dtype=complex))
        cfg = make_config(R=R, dt=1e-3, seed=5)
        eta = StateVector(np.ones(2) / math.sqrt(2))
        w, _ = _coupled_batch(cfg, eta, 1.0, range(4000), [1.0], {}, "linear")
        se = w[:, 0].std(ddof=1) / math.sqrt(w.shape[0])
        assert abs(w[:, 0].mean() - 1.0) <= 3 * se

    def test_population_martingale_without_hamiltonian(self):
        H0 = HermitianOperator(np.zeros((2, 2)))
        cfg = make_config(H=H0, dt=1e-3, seed=6)
        eta = StateVector(np.array([0.6, 0.8], dtype=complex))
        w, obs = _coupled_batch(cfg, eta, 1.0, range(4000), [1.0],
                                {"P1": np.diag([0.0, 1.0]).astype(complex)}, "linear")
        pops = w[:, 0] * obs[:, 0, 0]  # unnormalized population of level 1
        se = pops.std(ddof=1) / math.sqrt(pops.size)
        assert abs(pops.mean() - 0.64) <= 3 * se

    def test_single_path_matches_batch(self):
        cfg = make_config(dt=1e-3, seed=7)
        eta = StateVector(np.ones(2) / math.sqrt(2))
        times = np.linspace(0.2, 1.0, 5)
        single = evolve_diffusive_sse(cfg, eta, 1.0, index=3, record_times=times)
        _, states = _coupled_states(cfg, eta, 1.0, [2, 3, 4], times, "linear")
        w, _ = _coupled_batch(cfg, eta, 1.0, [2, 3, 4], times, {}, "linear")
        assert np.array_equal(single.states, states[1])
        assert np.array_equal(single.norm2, w[1])

    @pytest.mark.parametrize("phase_slope", [0.0, 0.7], ids=["real", "phase-modulated"])
    def test_matches_per_step_reference(self, phase_slope):
        # the full-space Euler-Maruyama step chi - dt D chi + gamma dv R chi,
        # then expm(-i H dt), from the same stream; R is not diagonal, so the
        # kernel's eigenbasis rotations are exercised
        R = HermitianOperator(np.array([[0.3, 0.4 - 0.2j], [0.4 + 0.2j, -0.5]]))
        cfg = make_config(R=R, seed=22, phase_slope=phase_slope)
        eta = StateVector(np.array([0.6, 0.8j]))
        T, n_steps = 0.3, 300
        _, states = _coupled_states(cfg, eta, T, [0, 5], [0.1, T], "linear")
        cov = noise_covariance(cfg.pointer)
        D = 0.5 * (cfg.gamma / cfg.hbar) ** 2 * cov.sigma2 * R.entries @ R.entries
        expH = expm(-1j * HX.entries * cfg.dt)
        for row, i in enumerate([0, 5]):
            dv = wiener_increments(stream(cfg.seed, i), n_steps, cfg.dt, cov.c1, cov.c2)
            chi = eta.amps.astype(complex)
            ref = []
            for s in range(n_steps):
                chi = expH @ (chi - cfg.dt * D @ chi + cfg.gamma * dv[s] * R.entries @ chi)
                if s + 1 in (100, n_steps):
                    ref.append(chi)
            ref = np.array(ref)
            assert np.max(np.abs(states[row] - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_blow_up_guard(self):
        cfg = make_config(gamma=40.0, dt=0.25, seed=8)
        eta = StateVector(np.ones(2) / math.sqrt(2))
        with pytest.raises(NumericError, match="reduce dt"):
            evolve_diffusive_sse(cfg, eta, 50.0, record_times=np.linspace(5, 50, 10))

    def test_step_grid_validation(self):
        cfg = make_config(dt=1e-3)
        eta = StateVector(np.ones(2) / math.sqrt(2))
        with pytest.raises(ValidationError, match="step grid"):
            evolve_diffusive_sse(cfg, eta, 1.0, record_times=[0.00012345])


class TestCoupledSse:
    def test_gamma_zero_unitary(self):
        cfg = make_config(gamma=0.0, seed=9)
        eta = StateVector(np.array([0.6, 0.8], dtype=complex))
        path = evolve_coupled_sse(cfg, eta, 1.0)
        assert np.allclose(path.states[0], propagator(HX, 1.0) @ eta.amps, atol=1e-9)

    def test_norm_preserved_pathwise(self):
        cfg = make_config(seed=10)
        eta = StateVector(np.array([0.6, 0.8], dtype=complex))
        path = evolve_coupled_sse(cfg, eta, 1.0, record_times=np.linspace(0.1, 1, 10))
        assert np.max(np.abs(path.norm2 - 1.0)) <= 1e-12

    def test_populations_conserved_for_commuting_hamiltonian(self):
        Hd = HermitianOperator(np.diag([0.3, 1.1]).astype(complex))
        cfg = make_config(H=Hd, seed=11)
        eta = StateVector(np.array([0.6, 0.8], dtype=complex))
        path = evolve_coupled_sse(cfg, eta, 1.0, record_times=np.linspace(0.1, 1, 10))
        pops = np.abs(path.states) ** 2
        assert np.max(np.abs(pops[:, 0] - 0.36)) <= 1e-10
        assert np.max(np.abs(pops[:, 1] - 0.64)) <= 1e-10

    def test_single_path_matches_batch(self):
        cfg = make_config(seed=7)
        eta = StateVector(np.array([0.6, 0.8j]))
        times = np.linspace(0.2, 1.0, 5)
        obs = {"R": RC.entries, "H": HX.entries}
        w, o = _coupled_batch(cfg, eta, 1.0, [2, 3, 4], times, obs)
        for row, i in enumerate([2, 3, 4]):
            single = evolve_coupled_sse(cfg, eta, 1.0, index=i, record_times=times)
            assert np.max(np.abs(single.norm2 - w[row])) <= 1e-12
            for k, X in enumerate(obs.values()):
                expect = np.einsum("ni,ij,nj->n", single.states.conj(), X, single.states).real
                assert np.max(np.abs(expect / single.norm2 - o[row, :, k])) <= 1e-12

    def test_matches_per_step_reference(self):
        # the exact split exp(i gamma R du / hbar) then exp(-i H dt / hbar),
        # stepped one path at a time from the same stream and the same du
        cfg = make_config(seed=21)
        eta = StateVector(np.array([0.6, 0.8j]))
        T = 0.3
        n_steps = 300
        expH = propagator(HX, cfg.dt)
        _, states = _coupled_states(cfg, eta, T, [0, 5], [0.1, T])
        for row, i in enumerate([0, 5]):
            du = math.sqrt(cfg.noise.sigma2 * cfg.dt) * stream(cfg.seed, i).standard_normal(n_steps)
            chi = eta.amps.astype(complex)
            ref = []
            for s in range(n_steps):
                chi = expH @ (propagator(RC, -cfg.gamma * du[s]) @ chi)
                if s + 1 in (100, n_steps):
                    ref.append(chi)
            assert np.max(np.abs(states[row] - np.array(ref))) <= 1e-12

    def test_phase_variance_grows_linearly(self):
        # on an eigenvector of R the accumulated phase is gamma r u_t / hbar
        Hd = HermitianOperator(np.zeros((2, 2)))
        r = 0.5
        cfg = make_config(H=Hd, seed=12)
        eta = StateVector(np.array([0.0, 1.0], dtype=complex))
        n = 3000
        T = 1.0
        _, states = _coupled_states(cfg, eta, T, range(n), [T])
        phases = np.angle(states[:, 0, 1])
        var = phases.var(ddof=1)
        expected = cfg.gamma ** 2 * r ** 2 * cfg.noise.sigma2 * T
        se = expected * math.sqrt(2.0 / n)  # chi-square variance of the variance
        assert abs(var - expected) <= 4 * se


class TestDiffusiveDensity:
    def test_gamma_zero_trace_exact(self):
        cfg = make_config(gamma=0.0, seed=13, M=2)
        eta = np.ones(2) / math.sqrt(2)
        rho0 = StateVector(np.kron(eta, eta)).density()
        path = evolve_diffusive_density(cfg, rho0, 1.0, record_times=np.linspace(0.25, 1, 4))
        assert np.max(np.abs(path.trace - 1.0)) <= 1e-10
        assert np.max(np.abs(path.entropy)) <= 1e-8

    def test_noise_off_matches_lindblad_oracle(self):
        from qtraj.ensemble import MasterConfig, master_generator, rk4_solve

        cfg = make_config(dt=1e-3, seed=14)
        eta = StateVector(np.ones(2) / math.sqrt(2))
        rho0 = eta.density()
        path = evolve_diffusive_density(cfg, rho0, 1.0, record_times=[1.0], noise=False)
        mcfg = MasterConfig.from_diffusion(cfg)
        _, exact = rk4_solve(master_generator(mcfg), rho0, 1.0, 1e-3, record_times=[1.0])
        assert np.max(np.abs(path.rhos[0] - exact[0])) <= 10 * cfg.dt

    @pytest.mark.parametrize("pointer", [
        pytest.param(lambda: gaussian_pointer(1024, 6.0, phase_slope=0.5), id="phase-modulated"),
        pytest.param(chirped_pointer, id="chirped"),
    ])
    def test_noise_off_complex_packet_matches_lindblad_oracle(self, pointer):
        # a complex c1 gives the mean noise factor a phase that cancels the
        # c1 term of the constant factor; the chirped packet has one, so the
        # kernel must rotate the off-diagonal pairs every step
        from qtraj.ensemble import MasterConfig, master_generator, rk4_solve

        cfg = make_config(dt=1e-3, seed=14, M=2, pointer=pointer())
        rho0 = mixed_product_density(np.array([0.6, 0.8j]), 2)
        path = evolve_diffusive_density(cfg, rho0, 1.0, record_times=[1.0], noise=False)
        _, exact = rk4_solve(master_generator(MasterConfig.from_diffusion(cfg)), rho0, 1.0,
                             1e-3, record_times=[1.0])
        assert np.max(np.abs(path.rhos[0] - exact[0])) <= 10 * cfg.dt

    def test_positivity_pathwise(self):
        cfg = make_config(dt=1e-3, seed=15, M=2)
        eta = np.array([0.6, 0.8])
        rho0 = StateVector(np.kron(eta, eta)).density()
        path = evolve_diffusive_density(cfg, rho0, 1.0, record_times=np.linspace(0.1, 1, 10))
        assert float(np.min(path.min_eig)) >= -1e-12

    def test_symmetry_preserved_for_m2(self):
        from qtraj import permutation_defect

        cfg = make_config(dt=1e-3, seed=16, M=2)
        eta = np.array([0.6, 0.8j])
        rho0 = StateVector(np.kron(eta, eta)).density()
        path = evolve_diffusive_density(cfg, rho0, 1.0, record_times=np.linspace(0.2, 1, 5))
        worst = max(permutation_defect(r, 2, 2) for r in path.rhos)
        assert worst <= 1e-8

    def test_mean_trace_martingale(self):
        cfg = make_config(dt=1e-3, seed=17)
        eta = StateVector(np.ones(2) / math.sqrt(2))
        rho0 = DensityMatrix(0.9 * eta.density().entries + 0.05 * np.eye(2))
        tr, _, _ = _density_batch(cfg, rho0, 1.0, range(4000), [1.0], {})
        se = tr[:, 0].std(ddof=1) / math.sqrt(tr.shape[0])
        assert abs(tr[:, 0].mean() - 1.0) <= 3 * se + 10 * cfg.dt

    def test_single_path_matches_batch(self):
        cfg = make_config(dt=1e-3, seed=23, M=2)
        rho0 = mixed_product_density(np.array([0.6, 0.8j]), 2)
        times = np.linspace(0.2, 1.0, 5)
        obs = {"R1": embed_at_slot(RC.entries, 1, 2), "H2": embed_at_slot(HX.entries, 2, 2)}
        tr, o, ent = _density_batch(cfg, rho0, 1.0, [2, 3, 4], times, obs)
        for row, i in enumerate([2, 3, 4]):
            single = evolve_diffusive_density(cfg, rho0, 1.0, index=i, record_times=times)
            assert np.max(np.abs(single.trace - tr[row])) <= 1e-12
            assert np.max(np.abs(single.entropy - ent[row])) <= 1e-12
            for k, X in enumerate(obs.values()):
                expect = np.einsum("ij,nji->n", X, single.rhos).real / single.trace
                assert np.max(np.abs(expect - o[row, :, k])) <= 1e-12

    @pytest.mark.parametrize("M, phase_slope", [(1, 0.0), (2, 0.0), (1, 0.5), (2, 0.5)],
                             ids=["M1-real", "M2-real", "M1-complex", "M2-complex"])
    def test_matches_per_step_reference(self, M, phase_slope):
        # full-space complex superoperator, then exp(gamma dw Rbar) on both
        # sides and symmetrization every step, from the same stream; the
        # real packet gives real dw, the phase-modulated one complex dw
        D = 2 ** M
        cfg = make_config(dt=1e-3, seed=24, M=M, phase_slope=phase_slope)
        rho0 = mixed_product_density(np.array([0.6, 0.8j]), M)
        T, n_steps = 0.3, 300
        _, rhos = _density_states(cfg, rho0, T, [0, 5], [0.1, T])
        g2s2 = (cfg.gamma / cfg.hbar) ** 2 * cfg.noise.sigma2
        c1, c2 = M * cfg.noise.c1, M * cfg.noise.c2
        Rks = [embed_at_slot(RC.entries, k, M) for k in range(1, M + 1)]
        Rbar = sum(Rks) / M
        H = sum(embed_at_slot(HX.entries, k, M) for k in range(1, M + 1))
        K = (1j / cfg.hbar) * H + 0.5 * g2s2 * sum(Rk @ Rk for Rk in Rks)
        E0 = expm(-(K + 0.5 * cfg.gamma ** 2 * c1 * Rbar @ Rbar) * cfg.dt)
        P = np.kron(E0, E0.conj()) + cfg.dt * g2s2 * sum(
            np.kron(Rk - Rbar, (Rk - Rbar).conj()) for Rk in Rks)
        for row, i in enumerate([0, 5]):
            dw = wiener_increments(stream(cfg.seed, i), n_steps, cfg.dt, c1, c2)
            rho = rho0.entries.astype(complex)
            ref = []
            for s in range(n_steps):
                A = expm(cfg.gamma * dw[s] * Rbar)
                rho = A @ (P @ rho.reshape(-1)).reshape(D, D) @ A.conj().T
                rho = 0.5 * (rho + rho.conj().T)
                if s + 1 in (100, n_steps):
                    ref.append(rho)
            assert np.max(np.abs(rhos[row] - np.array(ref))) <= 1e-10

    def test_guard_failure_names_seed_path_and_time(self):
        rhos = np.tile(np.eye(2, dtype=complex) / 2, (2, 3, 1, 1))
        rhos[1, 2] = np.diag([1.1, -0.1])  # path index 8 at t = 0.3
        with pytest.raises(NumericError, match=r"positivity defect .* at t=0\.3 "
                                               r"\(seed=7, path index=8\)"):
            _density_spectra(rhos, 7, [3, 8], np.array([0.1, 0.2, 0.3]))
        rhos[1, 2] = np.eye(2)
        rhos[0, 1] = 1e7 * np.eye(2)  # path index 3 at t = 0.2
        with pytest.raises(NumericError, match=r"density trace exceeded .* at t=0\.2 "
                                               r"\(seed=7, path index=3\)"):
            _density_spectra(rhos, 7, [3, 8], np.array([0.1, 0.2, 0.3]))

    def test_batch_peak_memory(self):
        # 512 paths of the two-particle equation over 1000 steps
        cfg = make_config(dt=1e-4, seed=25, M=2)
        rho0 = mixed_product_density(np.ones(2) / math.sqrt(2), 2)
        obs = {"Rbar": sum(embed_at_slot(RC.entries, k, 2) for k in (1, 2)) / 2}
        tracemalloc.start()
        try:
            _density_batch(cfg, rho0, 0.1, range(512), [0.05, 0.1], obs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= PEAK_BOUND_BYTES


class TestEnsembleEquation:
    @pytest.mark.parametrize("equation", [None, "jump-averaged"])
    def test_diffusion_ensemble_needs_an_equation(self, equation):
        # a state vector no longer implies the linear equation
        eta = StateVector(np.ones(2) / math.sqrt(2))
        with pytest.raises(ValidationError,
                           match=r"equation= one of \('linear', 'coupled', 'density'\)"):
            run_ensemble(make_config(), eta, 0.1, 4, equation=equation)


class TestDensityCli:
    def test_bytes_independent_of_threads_and_reruns(self, tmp_path):
        spec = tmp_path / "density.json"
        spec.write_text(json.dumps({
            "experiment": "diffuse", "equation": "density", "overrides": {"M": 2},
            "T": 0.2, "n_samples": 4, "n_traj": _DIFFUSION_CHUNK + 88, "seed": 26,
            "observables": ["R"],
        }))
        outs = []
        for name, threads in (("t1", "1"), ("t2", "2"), ("t3", "3"), ("again", "1")):
            out = tmp_path / name
            assert main(["diffuse", "--spec", str(spec), "--threads", threads,
                         "--out", str(out)]) == 0
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        for out in outs[1:]:
            assert sorted(p.name for p in out.iterdir()) == names
            assert all(filecmp.cmp(outs[0] / f, out / f, shallow=False) for f in names)


class TestMeanField:
    def test_zero_momentum_is_free_evolution(self):
        cfg = make_config(seed=18)
        eta = StateVector(np.array([0.6, 0.8], dtype=complex))
        path = mean_field_evolve(cfg, eta, 1.0)
        assert np.max(np.abs(path.states[0] - propagator(HX, 1.0) @ eta.amps)) <= 1e-9

    def test_momentum_shifts_eigenphases(self):
        # with [R, H] = 0 the effective potential -gamma q0 R adds eigenphases
        a = 0.7
        Hd = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))
        cfg = make_config(H=Hd, R=R01, phase_slope=a, seed=19)
        eta = StateVector(np.array([0.6, 0.8], dtype=complex))
        T = 1.3
        path = mean_field_evolve(cfg, eta, T)
        q0 = cfg.noise.q0
        expected = np.array([
            0.6,
            0.8 * np.exp(-1j * (1.0 - cfg.gamma * q0) * T),
        ])
        assert np.max(np.abs(path.states[0] - expected)) <= 1e-9

    def test_populations_conserved_for_commuting(self):
        Hd = HermitianOperator(np.diag([0.4, 0.9]).astype(complex))
        cfg = make_config(H=Hd, R=R01, phase_slope=0.5, seed=20)
        eta = StateVector(np.array([0.6, 0.8], dtype=complex))
        path = mean_field_evolve(cfg, eta, 2.0, record_times=[0.5, 1.0, 2.0])
        pops = np.abs(path.states) ** 2
        assert np.max(np.abs(pops[:, 0] - 0.36)) <= 1e-12
