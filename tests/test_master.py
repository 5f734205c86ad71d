"""The master-equation oracle: the generator against references assembled
here in the original basis, and RK4 against the exact exponential."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import expm

from qtraj import (
    DiffusionConfig,
    HermitianOperator,
    MasterConfig,
    ValidationError,
    build_gaussian_meter,
    embed_at_slot,
    gaussian_pointer,
    rk4_solve,
)
from qtraj.ensemble import RK4_MATRIX_MAX_DIM, MasterGenerator, _jump_superop, master_generator
from qtraj.linalg import hermitian_coordinates, hermitian_from_coordinates
from qtraj.presets import two_level

MODES = ("jump-averaged", "diffusive")


def rotated_observable(d: int, angle: float) -> HermitianOperator:
    """diag(-1, ..., 1) conjugated by exp(i angle K) for a fixed complex
    Hermitian K, so that R has complex off-diagonal entries."""
    K = np.zeros((d, d), dtype=complex)
    for a in range(d - 1):
        K[a, a + 1] = 1.0 + 0.5j * (a + 1)
    K = K + K.conj().T
    K[0, 0] = 0.3
    Q = expm(1j * angle * K)
    R = Q @ np.diag(np.linspace(-1.0, 1.0, d)) @ Q.conj().T
    return HermitianOperator(0.5 * (R + R.conj().T))


def random_hermitian(D: int, rng) -> np.ndarray:
    A = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    return 0.5 * (A + A.conj().T)


def master_case(mode: str, d: int, M: int, angle: float, slope: float, seed: int = 0,
                real_h: bool = False):
    """A config on (C^d)^{x M} with rotated R, a packet of phase slope
    `slope` (jump mode) and a random H, real symmetric if real_h; hbar = 0.8
    exercises the 1/hbar.  At angle 0 the eigenbasis of R is real, so a
    real H stays real in it."""
    rng = np.random.default_rng(seed)
    R = rotated_observable(d, angle)
    H = random_hermitian(d ** M, rng)
    H = HermitianOperator(H.real if real_h else H)
    if mode == "jump-averaged":
        meter = build_gaussian_meter(0.7, R, n_points=256, phase_slope=slope)
        return MasterConfig(mode=mode, H=H, hbar=0.8, M=M, meter=meter, nu=2.5)
    return MasterConfig(mode=mode, H=H, hbar=0.8, M=M, R=R, gamma=1.3, sigma2=0.6)


def reference_generator(cfg: MasterConfig, X: np.ndarray) -> np.ndarray:
    """The module-docstring equations term by term in the original basis:
    the Kraus sum nu sum_k sum_i w_i F_i(k) X F_i(k)^dag - M nu X with
    F_i = f0(lambda_i - kappa R) on the full grid, or the Lindblad form
    with R(k), plus -(i/hbar)[H, X]."""
    H = cfg.H.entries
    out = (-1j / cfg.hbar) * (H @ X - X @ H)
    if cfg.mode == "jump-averaged":
        meter = cfg.meter
        r, V = np.linalg.eigh(meter.R.entries)
        pointer = meter.pointer
        for lam, w in zip(pointer.grid, pointer.weights):
            F = V @ np.diag(pointer.evaluate(lam - meter.kappa * r)) @ V.conj().T
            for k in range(1, cfg.M + 1):
                Fk = embed_at_slot(F, k, cfg.M)
                out = out + cfg.nu * w * (Fk @ X @ Fk.conj().T)
        return out - cfg.M * cfg.nu * X
    rate = (cfg.gamma / cfg.hbar) ** 2 * cfg.sigma2
    for k in range(1, cfg.M + 1):
        Rk = embed_at_slot(cfg.R, k, cfg.M)
        Rk2 = Rk @ Rk
        out = out + rate * (Rk @ X @ Rk - 0.5 * (Rk2 @ X + X @ Rk2))
    return out


def superop_matrix(step, dim: int) -> np.ndarray:
    """Dense row-major superoperator matrix of a linear map on dim x dim
    matrices, its columns the map of each elementary matrix, applied once
    to the stacked (dim^2, dim, dim) basis: the independent reference of
    :meth:`MasterGenerator.superop`."""
    basis = np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim)
    return step(basis).reshape(dim * dim, dim * dim).T


def general_map(gen: MasterGenerator, original_basis: bool = True):
    """The generator's map on any X from its stored parts, with no product
    shortcut: -(i/hbar)(H X - X H) + mask o X in U's basis, conjugated by U
    into the original basis."""
    def rhs(X):
        return (-1j / gen.hbar) * (gen.H @ X - X @ gen.H) + gen.mask * X
    if not original_basis:
        return rhs
    return lambda rho: gen.U @ rhs(gen.U.conj().T @ rho @ gen.U) @ gen.U.conj().T


def generator_error(mode, d, M, angle, slope, seed=0) -> float:
    """Relative distance between the closed-form superoperator and the
    reference on a random non-Hermitian matrix."""
    cfg = master_case(mode, d, M, angle, slope, seed)
    rng = np.random.default_rng(seed + 1)
    D = d ** M
    X = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    ref = reference_generator(cfg, X)
    got = (master_generator(cfg).superop() @ X.reshape(-1)).reshape(D, D)
    return float(np.linalg.norm(got - ref) / np.linalg.norm(ref))


class TestGeneratorReference:
    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_original_basis_reference(self, mode, M):
        assert generator_error(mode, 3, M, angle=0.9, slope=0.7) <= 1e-12

    def test_parts_are_stored_exactly_hermitian_and_real_when_exact(self):
        gen = master_generator(master_case("jump-averaged", 3, 2, angle=0.0, slope=0.0,
                                           real_h=True))
        assert gen.H.dtype == gen.mask.dtype == np.float64
        assert np.array_equal(gen.H, gen.H.T) and np.array_equal(gen.mask, gen.mask.T)
        gen = master_generator(master_case("jump-averaged", 3, 2, angle=0.9, slope=0.7))
        assert gen.H.dtype == gen.mask.dtype == np.complex128
        assert np.array_equal(gen.H, gen.H.conj().T)
        assert np.array_equal(gen.mask, gen.mask.conj().T)

    def test_cases_rotate_out_of_the_original_basis(self):
        cfg = master_case("jump-averaged", 3, 2, angle=0.9, slope=0.7)
        R = cfg.meter.R.entries
        assert np.max(np.abs(R - np.diag(np.diag(R)))) > 0.1
        assert np.max(np.abs(master_generator(cfg).U - np.eye(9))) > 0.1


def assert_matches_exponential(cfg: MasterConfig):
    """rk4_solve at dt = 1e-3 against expm of the reference superoperator,
    on a pure state of (C^3)^{x 2}."""
    gen = master_generator(cfg)
    psi = np.random.default_rng(3).standard_normal(9) + 0.5j
    rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    times = [0.0, 0.1, 0.2]
    got_t, got = rk4_solve(gen, rho0, 0.2, 1e-3, record_times=times)
    assert np.array_equal(got_t, times)
    assert np.array_equal(got[0], rho0)
    S = superop_matrix(lambda X: reference_generator(cfg, X), 9)
    for j, t in enumerate(times[1:], start=1):
        exact = (expm(t * S) @ rho0.reshape(-1)).reshape(9, 9)
        assert np.max(np.abs(got[j] - exact)) <= 1e-10


class TestRk4:
    @pytest.mark.parametrize("mode", MODES)
    def test_matches_exponential_at_record_times(self, mode):
        cfg = master_case(mode, 3, 2, angle=0.9, slope=0.7)
        assert master_generator(cfg).H.dtype == np.complex128
        assert_matches_exponential(cfg)

    @pytest.mark.parametrize("mode", MODES)
    def test_real_hamiltonian_matches_exponential(self, mode):
        # At angle 0 a real H stays real: the stage's real-GEMM path.
        cfg = master_case(mode, 3, 2, angle=0.0, slope=0.7, real_h=True)
        assert master_generator(cfg).H.dtype == np.float64
        assert_matches_exponential(cfg)

    def test_rejects_a_plain_callable(self):
        cfg = master_case("diffusive", 2, 1, angle=0.4, slope=0.0)
        gen = master_generator(cfg)
        with pytest.raises(ValidationError, match="master_generator"):
            rk4_solve(general_map(gen), np.eye(2) / 2, 0.1, 1e-3)

    def test_rejects_a_state_of_the_wrong_dimension(self):
        gen = master_generator(master_case("diffusive", 2, 2, angle=0.4, slope=0.0))
        with pytest.raises(ValidationError, match="dimension 4"):
            rk4_solve(gen, np.eye(2) / 2, 0.1, 1e-3)

    def test_rejects_a_non_hermitian_state_before_any_step(self):
        gen = master_generator(master_case("diffusive", 2, 1, angle=0.4, slope=0.0))
        rho0 = np.eye(2, dtype=complex) / 2
        rho0[0, 1] = 2e-12
        # The check precedes the others: this dt also breaks the stability bound.
        with pytest.raises(ValidationError, match=r"rho0 is not Hermitian: .* 2\.000e-12"):
            rk4_solve(gen, rho0, 10.0, 1.0)

    def test_symmetrizes_a_state_within_tolerance_once(self):
        gen = master_generator(master_case("jump-averaged", 3, 1, angle=0.9, slope=0.7))
        rho0 = np.eye(3, dtype=complex) / 3
        rho0[0, 1] = 0.1 + 5e-13
        rho0[1, 0] = 0.1
        _, got = rk4_solve(gen, rho0, 0.1, 1e-3, record_times=[0.0, 0.1])
        # a record at t = 0 is rho0 as given; the steps run on its Hermitian part
        assert np.array_equal(got[0], rho0)
        assert np.max(np.abs(got[1] - got[1].conj().T)) <= 1e-15

    def test_stability_bound_uses_the_generator_norm(self):
        gen = master_generator(master_case("jump-averaged", 2, 1, angle=0.4, slope=0.7))
        dt = 0.11 / gen.norm
        with pytest.raises(ValidationError, match="stability bound 0.1"):
            rk4_solve(gen, np.eye(2) / 2, 10 * dt, dt)
        dt = 0.099 / gen.norm
        assert rk4_solve(gen, np.eye(2) / 2, 10 * dt, dt)[1].shape == (1, 2, 2)

    @pytest.mark.parametrize("M", [1, 2, 3])
    @pytest.mark.parametrize("mode", MODES)
    def test_norm_is_the_closed_form_upper_bound(self, mode, M):
        gen = master_generator(master_case(mode, 3, M, angle=0.9, slope=0.7))
        w = np.linalg.eigvalsh(gen.H)
        assert gen.norm == (w[-1] - w[0]) / 0.8 + np.max(np.abs(gen.mask))
        exact = np.linalg.norm(superop_matrix(general_map(gen, False), 3 ** M), 2)
        assert exact <= gen.norm <= 2.0 * exact


def criterion_generators():
    """The generators criteria 9 and 10 compare: the two-level diffusive one,
    the jump ones at kappa = gamma / sqrt(nu) on a real packet and at
    kappa = gamma / nu on a chirped one, and the mean-field commutator with
    H - gamma q0 R, a zero mask and U = I."""
    preset = two_level()
    gens = []
    for slope in (0.0, 0.7):
        base = DiffusionConfig(H=preset.H, R=preset.R, gamma=1.0, dt=1e-3,
                               pointer=gaussian_pointer(1024, 6.0, phase_slope=slope))
        gens.append(master_generator(MasterConfig.from_diffusion(base)))
        for nu in (100.0, 1000.0, 10000.0):
            kappa = base.gamma / (nu if slope else np.sqrt(nu))
            meter = build_gaussian_meter(kappa, base.R, n_points=base.pointer.size,
                                         phase_slope=slope)
            gens.append(master_generator(MasterConfig(mode="jump-averaged", H=base.H,
                                                      hbar=base.hbar, meter=meter, nu=nu)))
        Heff = base.H.entries - base.gamma * base.noise.q0 * base.R.entries
        gens.append(MasterGenerator(np.eye(2), Heff, np.zeros((2, 2)), base.hbar))
    return gens


def rotated_two_level_generator():
    """The two-level jump generator with R rotated by a fixed unitary, so
    that U is not the identity and the basis change of the closed form is
    exercised."""
    preset = two_level()
    Q = expm(1j * np.array([[0.3, 0.4 - 0.2j], [0.4 + 0.2j, -0.1]]))
    R = Q @ preset.R.entries @ Q.conj().T
    meter = build_gaussian_meter(0.3, HermitianOperator(0.5 * (R + R.conj().T)), n_points=256,
                                 phase_slope=0.7)
    return master_generator(MasterConfig(mode="jump-averaged", H=preset.H, hbar=0.8,
                                         meter=meter, nu=5.0))


class TestClosedFormSuperoperator:
    @pytest.mark.parametrize("k", range(10))
    def test_matches_the_column_build_on_criterion_generators(self, k):
        gen = criterion_generators()[k]
        ref = superop_matrix(general_map(gen), gen.dim)
        assert np.max(np.abs(gen.superop() - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_matches_the_column_build_off_the_identity_basis(self):
        gen = rotated_two_level_generator()
        assert np.max(np.abs(gen.U - np.diag(np.diag(gen.U)))) > 0.1
        ref = superop_matrix(general_map(gen), 2)
        assert np.max(np.abs(gen.superop() - ref)) <= 1e-13 * np.max(np.abs(ref))
        # In U's basis it is the general map before the basis change.
        ref = superop_matrix(general_map(gen, False), 2)
        assert np.max(np.abs(gen.superop(original_basis=False) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_bridge_uses_the_closed_form(self):
        preset = two_level()
        base = DiffusionConfig(H=preset.H, R=preset.R, gamma=1.0, dt=1e-3,
                               pointer=gaussian_pointer(1024, 6.0))
        ref = superop_matrix(general_map(master_generator(MasterConfig(
            mode="jump-averaged", H=base.H, meter=build_gaussian_meter(0.1, base.R, 1024),
            nu=100.0))), 2)
        assert np.max(np.abs(_jump_superop(base, 0.1, 100.0) - ref)) <= 1e-13 * np.max(np.abs(ref))


# Which of H and the mask a crossover generator holds complex.  A complex
# mask alone is what a chirped pointer gives a real H.
PARTS = {"real": (False, False), "complex": (True, True), "complex-mask": (False, True),
         "complex-h": (True, False)}


def crossover_generator(D: int, parts: str, seed: int = 0) -> MasterGenerator:
    """A generator with U = I and a random Hermitian H and mask, each real
    or complex as PARTS[parts] says, hbar = 0.8; the mask's real part is
    non-positive, so the evolution contracts the Frobenius norm."""
    complex_h, complex_mask = PARTS[parts]
    rng = np.random.default_rng(seed)
    H = random_hermitian(D, rng)
    mask = -np.abs(random_hermitian(D, rng))
    phase = rng.standard_normal((D, D))
    if complex_mask:
        mask = mask + 1j * (phase - phase.T)
    return MasterGenerator(np.eye(D), H if complex_h else np.ascontiguousarray(H.real), mask, 0.8)


def plain_rk4(gen: MasterGenerator, rho: np.ndarray, dt: float, n_steps: int) -> np.ndarray:
    rhs = general_map(gen, original_basis=False)
    for _ in range(n_steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return rho


# Record steps out of order: t = 0, a duplicate, strides of one step and
# strides 5, 38 and 255, which are not powers of two.
STRIDE_STEPS = [300, 7, 0, 45, 1, 7, 2]


class TestRk4Kernels:
    # Both branches of the real stage that mix a real and a complex part run
    # above the crossover alone.
    @pytest.mark.parametrize("D, parts", [(D, parts) for D in [2, 3, 4, 8, 9, 16, 27]
                                          for parts in ("real", "complex")]
                             + [(27, "complex-mask"), (27, "complex-h")])
    def test_both_kernels_take_the_plain_rk4_steps(self, D, parts):
        gen = crossover_generator(D, parts, seed=D)
        assert (gen.H.dtype.kind, gen.mask.dtype.kind) == tuple("c" if c else "f"
                                                                for c in PARTS[parts])
        rho0 = random_hermitian(D, np.random.default_rng(D + 1))
        rho0 = rho0 @ rho0 / np.trace(rho0 @ rho0).real
        dt = 0.1 / gen.norm
        times = [0.0, 500 * dt, 1000 * dt]
        _, got = rk4_solve(gen, rho0, times[-1], dt, record_times=times)
        assert np.array_equal(got[0], rho0)
        mid = plain_rk4(gen, rho0, dt, 500)
        for rec, ref in zip(got[1:], (mid, plain_rk4(gen, mid, dt, 500))):
            assert np.array_equal(rec, rec.conj().T)
            assert np.linalg.norm(rec - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("parts", ["real", "complex"])
    @pytest.mark.parametrize("D", [2, 4, 8, 16])
    def test_uneven_record_steps_take_the_plain_rk4_steps(self, D, parts):
        gen = crossover_generator(D, parts, seed=D)
        rho0 = random_hermitian(D, np.random.default_rng(D + 1))
        rho0 = rho0 @ rho0 / np.trace(rho0 @ rho0).real
        dt = 0.1 / gen.norm
        _, got = rk4_solve(gen, rho0, STRIDE_STEPS[0] * dt, dt,
                           record_times=[s * dt for s in STRIDE_STEPS])
        refs, done = {0: rho0}, 0
        for s in sorted(set(STRIDE_STEPS) - {0}):
            refs[s] = plain_rk4(gen, refs[done], dt, s - done)
            done = s
        for s, rec in zip(STRIDE_STEPS, got):
            # a record at t = 0 is rho0 as given, every other one is exactly Hermitian
            assert np.array_equal(rec, rec.conj().T) if s else np.array_equal(rec, rho0)
            assert np.linalg.norm(rec - refs[s]) <= 1e-12 * np.linalg.norm(refs[s])
        assert np.array_equal(got[1], got[-2])

    def test_a_long_stride_takes_the_plain_rk4_steps(self):
        # 10^5 steps in one stride climb 17 rungs of the ladder.  A rung's
        # rounding is carried through every square above it, so the error
        # grows like the stride, and the bound is 10^5 double-precision
        # epsilons (2.2e-11; 3.5e-12 measured, against 1.1e-14 for the step
        # matrix applied 10^5 times).  The generator preserves the trace, so
        # the state does not vanish, and at gamma = 0.1 it is still 0.11
        # (relative) from where it stood 65536 steps before the end, so the
        # top rung counts (at the case's gamma = 1.3 it had converged to
        # 1e-18).  plain_rk4's step is linear: the reference applies its
        # matrix, its action on the 16 basis matrices, 10^5 times.
        gen = master_generator(dataclasses.replace(
            master_case("diffusive", 4, 1, angle=0.9, slope=0.0), gamma=0.1))
        psi = np.random.default_rng(4).standard_normal(4) + 0.5j
        rho0 = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        dt = 0.1 / gen.norm
        _, got = rk4_solve(gen, rho0, 10 ** 5 * dt, dt)
        step = np.array([plain_rk4(gen, E, dt, 1).reshape(-1)
                         for E in np.eye(16).reshape(16, 4, 4)]).T
        ref = gen.to_basis(rho0).reshape(-1)
        for _ in range(10 ** 5):
            ref = step @ ref
        ref = ref.reshape(4, 4)
        bound = 10 ** 5 * np.finfo(float).eps
        assert np.linalg.norm(gen.to_basis(got[0]) - ref) <= bound * np.linalg.norm(ref)

    def test_ladder_is_charged_before_it_is_built(self, monkeypatch):
        gen = crossover_generator(16, "real")
        dt = 0.1 / gen.norm
        # 1000 steps take 10 rungs of 8 * 16^4 bytes; 8 fit in 4 MiB.
        monkeypatch.setattr("qtraj.errors.physical_memory", lambda: 4 << 20)
        with pytest.raises(ValidationError, match="rungs of the step-matrix ladder must be "
                                                  "at most 8 for 524288-byte matrices, got 10"):
            rk4_solve(gen, np.eye(16) / 16, 1000 * dt, dt)
        assert rk4_solve(gen, np.eye(16) / 16, 255 * dt, dt)[1].shape == (1, 16, 16)

    def test_the_cases_cover_both_kernels(self):
        assert 16 <= RK4_MATRIX_MAX_DIM < 27

    def test_step_matrix_is_the_rk4_polynomial(self):
        gen = crossover_generator(3, "complex")
        dt = 0.05 / gen.norm
        L = gen.superop(original_basis=False)
        hL = dt * L
        ref = np.eye(9) + hL + hL @ hL / 2 + hL @ hL @ hL / 6 + hL @ hL @ hL @ hL / 24
        rng = np.random.default_rng(5)
        X = random_hermitian(3, rng)
        got = hermitian_from_coordinates(gen.rk4_matrix(dt) @ hermitian_coordinates(X))
        assert np.max(np.abs(got - (ref @ X.reshape(-1)).reshape(3, 3))) <= 1e-14
