"""Reference scenarios used by the CLI, the acceptance suite and the tests.

* two-level: minimal reduction model, R = diag(0, 1) with a transverse
  Hamiltonian that does not commute with R.
* lattice-particle: a particle hopping on d sites with the (centered) site
  position as the monitored observable, the cloud-chamber picture.
* two-atoms: two identical two-level systems monitored through the same
  meter, the minimal mixing scenario.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, check_memory
from .linalg import HermitianOperator
from .meter import DEFAULT_GRID_SIZE, MeterModel, build_gaussian_meter


# Peak bytes per entry of the d x d operators of a run on a preset, beyond
# its meter's charge, measured with tracemalloc on `jump` runs of
# lattice-particle: 97 at d = 1024.
_OPERATOR_BYTES = 128


@dataclass(frozen=True)
class Preset:
    name: str
    M: int
    d: int
    H: HermitianOperator
    R: HermitianOperator
    kappa: float
    nu: float
    gamma: float


def _hopping_matrix(d: int) -> np.ndarray:
    h = np.zeros((d, d), dtype=complex)
    for j in range(d - 1):
        h[j, j + 1] = h[j + 1, j] = -1.0
    return h


def two_level() -> Preset:
    H = HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    R = HermitianOperator(np.diag([0.0, 1.0]).astype(complex))
    return Preset("two-level", 1, 2, H, R, kappa=0.3, nu=5.0, gamma=1.0)


def lattice_particle(d: int = 8) -> Preset:
    if d < 2:
        raise ValidationError(f"lattice needs d >= 2 sites, got {d}")
    check_memory("d^2", d * d, _OPERATOR_BYTES, "operator entries")
    H = HermitianOperator(_hopping_matrix(d))
    sites = np.arange(d) - (d - 1) / 2.0
    R = HermitianOperator(np.diag(sites).astype(complex))
    return Preset("lattice-particle", 1, d, H, R, kappa=0.3, nu=5.0, gamma=1.0)


def two_atoms() -> Preset:
    base = two_level()
    return Preset("two-atoms", 2, 2, base.H, base.R, kappa=0.3, nu=3.0, gamma=1.0)


PRESETS = {
    "two-level": two_level,
    "lattice-particle": lattice_particle,
    "two-atoms": two_atoms,
}


def get_preset(name: str, d: int | None = None) -> Preset:
    if name not in PRESETS:
        raise ValidationError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    if name == "lattice-particle" and d is not None:
        return lattice_particle(d)
    preset = PRESETS[name]()
    if d is not None and d != preset.d:
        raise ValidationError(f"preset {name!r} has d={preset.d}; it cannot take d={d}")
    return preset


def preset_meter(
    preset: Preset,
    kappa: float | None = None,
    n_points: int = DEFAULT_GRID_SIZE,
    phase_slope: float = 0.0,
) -> MeterModel:
    """Gaussian meter for a preset, grid sized by the coverage rule."""
    k = preset.kappa if kappa is None else float(kappa)
    return build_gaussian_meter(k, preset.R, n_points=n_points, phase_slope=phase_slope)
