"""Build a workload's model through the public qtraj API.

This is the set-up a user pays before any trajectory runs: the preset, its
Gaussian meter and the engine configuration.  The CLI builds the same objects
from the same specification; the benchmark rebuilds them here so that set-up
can be timed on its own and the traced run can drive each module directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qtraj import (
    DiffusionConfig,
    JumpConfig,
    ManyBodyConfig,
    StateVector,
    embed_at_slot,
    get_preset,
    nearest_neighbor_coupling,
    preset_meter,
)

from workloads import Workload, simulation_seed


@dataclass
class Model:
    """A workload's engine configuration with its initial state, observables
    and sample times, as the CLI would resolve them."""

    workload: Workload
    cfg: object
    T: float
    sample_times: np.ndarray
    initial: object
    observables: dict[str, np.ndarray]


def build_meter(w: Workload):
    """The workload's preset and its Gaussian meter."""
    preset = get_preset(w.base["preset"], d=w.overrides["d"])
    return preset, preset_meter(preset)


def make_config(w: Workload, seed: int, preset, meter):
    """The engine configuration the workload's CLI experiment builds."""
    ov = w.overrides
    sim_seed = simulation_seed(w.name, seed)
    if w.experiment == "jump":
        return JumpConfig(H=preset.H, meter=meter, nu=ov["nu"], seed=sim_seed,
                          mode=w.base["mode"])
    if w.experiment == "many":
        W = nearest_neighbor_coupling(preset.d, ov["interaction_strength"])
        return ManyBodyConfig(M=ov["M"], d=preset.d, H_single=preset.H, meter=meter,
                              nu=ov["nu"], W=W, seed=sim_seed)
    return DiffusionConfig(H=preset.H, R=preset.R, gamma=ov["gamma"], pointer=meter.pointer,
                           dt=w.base["dt"], seed=sim_seed, M=ov.get("M", 1))


def build_config(w: Workload, seed: int):
    """Preset, meter and engine configuration: the set-up that setup_s times."""
    return make_config(w, seed, *build_meter(w))


def _single_observable(name: str, preset) -> np.ndarray:
    if name == "R":
        return preset.R.entries
    if name == "H":
        return preset.H.entries
    k = int(name.split(":", 1)[1])
    proj = np.zeros((preset.d, preset.d), dtype=complex)
    proj[k, k] = 1.0
    return proj


def build_model(w: Workload, seed: int) -> Model:
    """The workload's full model: configuration, uniform initial state,
    slot-averaged observables and the CLI's sample times."""
    preset, meter = build_meter(w)
    cfg = make_config(w, seed, preset, meter)
    d = preset.d
    M = w.overrides.get("M", 1)
    eta = StateVector(np.ones(d, dtype=complex) / np.sqrt(d))
    amps = eta.amps
    for _ in range(M - 1):
        amps = np.kron(amps, eta.amps)
    initial = StateVector(amps).density() if M > 1 else eta
    observables = {}
    for name in w.base["observables"]:
        single = _single_observable(name, preset)
        observables[name] = sum(embed_at_slot(single, k, M) for k in range(1, M + 1)) / M
    T = float(w.base["T"])
    n = int(w.base["n_samples"])
    times = np.linspace(T / n, T, n)
    return Model(w, cfg, T, times, initial, observables)
