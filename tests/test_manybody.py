import math

import numpy as np
import pytest

from qtraj import (
    CapacityError,
    DensityMatrix,
    DiffusionConfig,
    MasterConfig,
    HermitianOperator,
    JumpConfig,
    ManyBodyConfig,
    StateVector,
    ValidationError,
    build_gaussian_meter,
    evolve_density,
    evolve_jump,
    gaussian_pointer,
    mixing_brute_force_oracle,
    mixing_povm_element,
    mixing_reduction,
    nearest_neighbor_coupling,
    permutation_defect,
    run_trajectories,
    von_neumann_entropy,
)
from qtraj.linalg import MAX_PARTICLES

rng = np.random.default_rng(303)

R01 = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))
HX = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))


def make_config(M=2, nu=3.0, kappa=0.3, seed=0, W=None):
    meter = build_gaussian_meter(kappa, R01)
    return ManyBodyConfig(M=M, d=2, H_single=HX, meter=meter, nu=nu, W=W, seed=seed)


def random_density(D):
    a = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho).real)


def product_pure(amps, M):
    v = amps
    for _ in range(M - 1):
        v = np.kron(v, amps)
    return StateVector(v).density()


class TestMixingReduction:
    def test_single_particle_is_plain_conjugation(self):
        cfg = make_config(M=1)
        rho = random_density(2)
        g = cfg.meter.reduction(0.4)
        out = mixing_reduction(cfg, rho, 0.4)
        assert np.max(np.abs(out.entries - g @ rho.entries @ g.conj().T)) <= 1e-12

    def test_kappa_zero_leaves_state_unchanged(self):
        cfg = make_config(M=2, kappa=0.0)
        rho = random_density(4)
        out = mixing_reduction(cfg, rho, 0.2)
        assert np.max(np.abs(out.entries - rho.entries)) <= 1e-12

    def test_trace_equals_povm_expectation(self):
        cfg = make_config(M=2)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        rho = StateVector(v).density()
        lam = 0.55
        out = mixing_reduction(cfg, rho, lam)
        E = mixing_povm_element(cfg, lam)
        assert out.trace() == pytest.approx(
            float(np.trace(E @ rho.entries).real), abs=1e-12
        )

    def test_preserves_positivity_and_hermiticity(self):
        cfg = make_config(M=3)
        rho = random_density(8)
        out = mixing_reduction(cfg, rho, -0.3)
        assert np.min(np.linalg.eigvalsh(out.entries)) >= -1e-12


class TestBruteForceOracle:
    def test_zero_events_identity(self):
        cfg = make_config(M=2)
        rho = random_density(4)
        out = mixing_brute_force_oracle(cfg, rho, [])
        assert np.allclose(out.entries, rho.entries)

    def test_single_particle_plain_product(self):
        cfg = make_config(M=1)
        rho = random_density(2)
        lams = [0.1, -0.4, 0.7]
        out = mixing_brute_force_oracle(cfg, rho, lams)
        acc = rho.entries
        for lam in lams:
            g = cfg.meter.reduction(lam)
            acc = g @ acc @ g.conj().T
        assert np.max(np.abs(out.entries - acc)) <= 1e-12

    @pytest.mark.parametrize("M,n", [(2, 3), (3, 4)])
    def test_oracle_equals_iterated_reduction(self, M, n):
        cfg = make_config(M=M)
        rho = random_density(2 ** M)
        lams = [float(x) for x in rng.uniform(-0.8, 1.1, size=n)]
        oracle = mixing_brute_force_oracle(cfg, rho, lams).entries
        iterated = rho.entries
        for lam in lams:
            iterated = mixing_reduction(cfg, iterated, lam).entries
        assert np.max(np.abs(oracle - iterated)) <= 1e-10

    def test_capacity_limit(self):
        cfg = make_config(M=2)
        rho = random_density(4)
        with pytest.raises(CapacityError):
            mixing_brute_force_oracle(cfg, rho, [0.0] * 7)


class TestConfigInvariants:
    def test_swap_asymmetric_pair_potential_rejected(self):
        W = np.zeros((4, 4), dtype=complex)
        W[1, 1] = 0.5  # acts on |0, 1> but not on |1, 0>
        with pytest.raises(ValidationError, match="swap-symmetric.*5.000e-01"):
            make_config(M=2, W=W)

    def test_swap_symmetric_off_diagonal_pair_potential_accepted(self):
        W = np.zeros((4, 4), dtype=complex)
        W[1, 2] = W[2, 1] = 0.3  # exchange |0, 1> <-> |1, 0>
        make_config(M=3, W=W)

    @pytest.mark.parametrize("build", [
        lambda M: make_config(M=M),
        lambda M: DiffusionConfig(H=HX, R=R01, gamma=1.0, pointer=gaussian_pointer(64, 6.0),
                                  dt=1e-3, M=M),
        lambda M: MasterConfig(mode="diffusive", H=HX, M=M, R=R01, sigma2=1.0),
    ])
    def test_particle_cap(self, build):
        with pytest.raises(CapacityError, match=f"at most {MAX_PARTICLES} particles"):
            build(MAX_PARTICLES + 1)
        with pytest.raises(ValidationError):
            build(0)


class TestPermutationDefect:
    def test_symmetric_product_state(self):
        rho = product_pure(np.array([0.6, 0.8j]), 2)
        assert permutation_defect(rho.entries, 2, 2) <= 1e-15

    def test_asymmetric_state_detected(self):
        rho = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)  # |0 1>
        assert permutation_defect(rho, 2, 2) == pytest.approx(1.0)


class TestEvolveDensity:
    def test_no_noise_unitary_conjugation(self):
        cfg = make_config(M=2, nu=0.0)
        rho0 = product_pure(np.array([0.6, 0.8]), 2)
        times = np.linspace(0.25, 1.0, 4)
        traj = evolve_density(cfg, rho0, 1.0, sample_times=times)
        assert traj.count == 0
        assert np.allclose(traj.entropy_series, 0.0, atol=1e-9)
        assert traj.rho.trace() == pytest.approx(1.0, abs=1e-12)

    def test_matches_jump_engine_for_single_particle(self):
        meter = build_gaussian_meter(0.3, R01)
        mb = ManyBodyConfig(M=1, d=2, H_single=HX, meter=meter, nu=4.0, seed=31)
        jc = JumpConfig(H=HX, meter=meter, nu=4.0, seed=31, mode="normalized")
        eta = StateVector(np.array([0.48, 0.6 + 0.64j])).normalized()
        for index in range(6):
            dtraj = evolve_density(mb, eta.density(), 1.0, index=index)
            jtraj = evolve_jump(jc, eta, 1.0, index=index)
            assert dtraj.events == jtraj.events
            rho_j = np.outer(jtraj.state.amps, jtraj.state.amps.conj())
            assert np.max(np.abs(rho_j - dtraj.rho.entries)) <= 1e-10

    def test_linear_mode_mean_trace(self):
        cfg = make_config(M=2, nu=3.0, seed=32)
        rho0 = product_pure(np.array([0.8, 0.6j]), 2)
        n = 2000
        w = np.array([
            math.exp(t.log_weight) for t in run_trajectories(cfg, rho0, 1.0, n, mode="linear")
        ])
        se = w.std(ddof=1) / math.sqrt(n)
        assert abs(w.mean() - 1.0) <= 3 * se

    def test_event_count_merged_intensity(self):
        cfg = make_config(M=2, nu=3.0, seed=33)
        rho0 = product_pure(np.array([1.0, 0.0]), 2)
        n = 2000
        counts = np.array([t.count for t in run_trajectories(cfg, rho0, 1.0, n)], dtype=float)
        assert abs(counts.mean() - 6.0) <= 3 * math.sqrt(6.0 / n)

    def test_symmetry_preserved_along_trajectory(self):
        cfg = make_config(M=2, nu=12.0, seed=34)
        rho0 = product_pure(np.array([0.6, 0.8]), 2)
        traj = evolve_density(cfg, rho0, 1.0, index=1)
        assert traj.count >= 8
        assert permutation_defect(traj.rho.entries, 2, 2) <= 1e-9

    def test_positivity_along_trajectory(self):
        cfg = make_config(M=2, nu=6.0, seed=35)
        rho0 = product_pure(np.array([0.6, 0.8j]), 2)
        times = np.linspace(0.1, 1.0, 10)
        for i in range(20):
            traj = evolve_density(cfg, rho0, 1.0, index=i, sample_times=times)
            assert float(np.min(traj.min_eig_series)) >= -1e-10

    def test_mixing_event_produces_entropy(self):
        cfg = make_config(M=2)
        psi = StateVector(np.kron([0.8, 0.6j], [0.8, 0.6j])).normalized()
        rho = psi.density()
        reduced = mixing_reduction(cfg, rho.entries, 0.4)
        assert von_neumann_entropy(reduced.entries) > 1e-6

    def test_single_particle_stays_pure(self):
        cfg = make_config(M=1)
        psi = StateVector(np.array([0.8, 0.6j]))
        reduced = mixing_reduction(cfg, psi.density(), 0.4)
        assert von_neumann_entropy(reduced.entries) <= 1e-10

    def test_interaction_preset_shape(self):
        W = nearest_neighbor_coupling(2, 0.5)
        assert np.allclose(np.diag(W), [0.0, 0.5, 0.5, 0.0])
        cfg = make_config(M=2, W=W, nu=0.0)
        rho0 = product_pure(np.array([1.0, 0.0]), 2)
        traj = evolve_density(cfg, rho0, 1.0)
        assert traj.rho.trace() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_wrong_trace(self):
        cfg = make_config(M=2)
        with pytest.raises(ValidationError, match="trace"):
            evolve_density(cfg, DensityMatrix(np.eye(4)), 1.0)
