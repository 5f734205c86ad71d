"""qtraj: simulation of continuously monitored quantum systems.

Single-kick meter models, Poisson-driven quantum-jump trajectories, mixing
reductions for identical particles, and the diffusive (central-limit)
regime, each paired with a deterministic master-equation oracle so every
stochastic claim is testable at desk scale.
"""

from .errors import CapacityError, NumericError, SimulationError, ValidationError
from .linalg import (
    DensityMatrix,
    HermitianOperator,
    StateVector,
    embed_at_slot,
    embed_pair,
    hermitian_eig,
    propagator,
    von_neumann_entropy,
)
from .meter import (
    MeterModel,
    PointerState,
    build_gaussian_meter,
    coverage_half_width,
    gaussian_pointer,
    joint_single_kick,
    sharp_projections,
    single_kick_evolve,
)
from .jumps import (
    JumpConfig,
    Trajectory,
    evolve_jump,
    sample_outcome,
    sample_poisson_times,
    trajectory_product_check,
)
from .manybody import (
    DensityTrajectory,
    ManyBodyConfig,
    evolve_density,
    mixing_brute_force_oracle,
    mixing_povm_element,
    mixing_reduction,
    nearest_neighbor_coupling,
    permutation_defect,
)
from .diffusion import (
    DiffusionConfig,
    NoiseCovariance,
    evolve_coupled_sse,
    evolve_diffusive_density,
    evolve_diffusive_sse,
    mean_field_evolve,
    noise_covariance,
)
from .ensemble import (
    BridgeReport,
    EnsembleStats,
    MasterConfig,
    diffusive_master_step,
    jump_master_step,
    jump_to_diffusion_bridge,
    mean_field_limit_error,
    rk4_solve,
    run_ensemble,
    run_trajectories,
    superop_matrix,
    trajectory_stats,
)
from .presets import PRESETS, Preset, get_preset, preset_meter

__version__ = "0.1.0"

__all__ = [
    "BridgeReport",
    "CapacityError",
    "DensityMatrix",
    "DensityTrajectory",
    "DiffusionConfig",
    "EnsembleStats",
    "HermitianOperator",
    "JumpConfig",
    "ManyBodyConfig",
    "MasterConfig",
    "MeterModel",
    "NoiseCovariance",
    "NumericError",
    "PointerState",
    "PRESETS",
    "Preset",
    "SimulationError",
    "StateVector",
    "Trajectory",
    "ValidationError",
    "build_gaussian_meter",
    "coverage_half_width",
    "diffusive_master_step",
    "embed_at_slot",
    "embed_pair",
    "evolve_coupled_sse",
    "evolve_density",
    "evolve_diffusive_density",
    "evolve_diffusive_sse",
    "evolve_jump",
    "gaussian_pointer",
    "get_preset",
    "hermitian_eig",
    "joint_single_kick",
    "jump_master_step",
    "jump_to_diffusion_bridge",
    "mean_field_evolve",
    "mean_field_limit_error",
    "mixing_brute_force_oracle",
    "mixing_povm_element",
    "mixing_reduction",
    "nearest_neighbor_coupling",
    "noise_covariance",
    "permutation_defect",
    "preset_meter",
    "propagator",
    "rk4_solve",
    "run_ensemble",
    "run_trajectories",
    "sample_outcome",
    "sample_poisson_times",
    "sharp_projections",
    "single_kick_evolve",
    "superop_matrix",
    "trajectory_stats",
    "trajectory_product_check",
    "von_neumann_entropy",
]
