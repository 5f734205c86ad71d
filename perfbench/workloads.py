"""Workload table of the qtraj benchmark.

Each workload is one CLI experiment on the ``lattice-particle`` preset.  Its
run specification is generated from the workload seed: the seed fixes the
simulation seed, the trajectory count is sized from the run length, and the
model itself is the same on every seed.  The deterministic master-equation
oracle for the same model and sample times is ``qtraj master`` with
``dt = 1e-3``.

Nothing here imports numpy or qtraj, so the entry point can pin the BLAS
thread count before either is loaded.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

ORACLE_DT = 1e-3
# Share of the run length spent in the timed CLI call and in oracle repeats.
E2E_SHARE = 0.6
ORACLE_SHARE = 0.2
MIN_TRAJ = 8
MIN_ORACLE_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``base`` holds every specification field except ``seed`` and
    ``n_traj``.  ``traj_cost_s`` and ``oracle_cost_s`` are the nominal costs
    of one trajectory and of one oracle call at the benchmark's first commit;
    they size a run to its length and are never reported as results.
    """

    name: str
    why: str
    base: dict
    oracle_equation: str
    traj_cost_s: float
    oracle_cost_s: float
    expected_events: float | None = None
    check_min_eig: bool = False
    check_trace: bool = False

    @property
    def experiment(self) -> str:
        return self.base["experiment"]

    @property
    def overrides(self) -> dict:
        return self.base["overrides"]

    def n_traj(self, seconds: float) -> int:
        return max(MIN_TRAJ, round(E2E_SHARE * seconds / self.traj_cost_s))

    def oracle_repeats(self, seconds: float) -> int:
        return max(MIN_ORACLE_REPEATS, round(ORACLE_SHARE * seconds / self.oracle_cost_s))


def _base(experiment: str, overrides: dict, **fields) -> dict:
    return {"experiment": experiment, "preset": "lattice-particle",
            "overrides": overrides, "T": 1.0, "n_samples": 10, **fields}


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "jump-lattice",
            "single-particle jump event loop, about 20 events and 10 samples per "
            "trajectory, and the largest trajectories.jsonl; no mixing, no diffusion",
            _base("jump", {"d": 8, "nu": 20.0}, mode="normalized", observables=["R", "H"]),
            "jump-averaged",
            traj_cost_s=1.2e-3,
            oracle_cost_s=0.16,
            expected_events=20.0,
        ),
        Workload(
            "many-mixing",
            "label-averaged mixing events at D=64 (d=4, M=3), dense D x D work "
            "dominates; the only workload whose RK4 oracle is costly",
            _base("many", {"d": 4, "M": 3, "nu": 5.0, "interaction": "nearest-neighbor",
                           "interaction_strength": 0.5},
                  mode="normalized", observables=["R", "projector:0"]),
            "jump-averaged",
            traj_cost_s=24e-3,
            oracle_cost_s=1.8,
            expected_events=15.0,
            check_min_eig=True,
        ),
        Workload(
            "diffuse-density",
            "batched diffusive density equation (d=2, M=2) through run_ensemble, "
            "10^4 steps per path, no per-trajectory Python loop, trivial records",
            _base("diffuse", {"d": 2, "M": 2, "gamma": 1.0},
                  equation="density", dt=1e-4, observables=["R"]),
            "diffusive",
            traj_cost_s=5.9e-3,
            oracle_cost_s=0.23,
            check_trace=True,
        ),
        Workload(
            "diffuse-coupled",
            "unbatched coupled SSE, one path at a time over 10^3 steps; shares no "
            "code with the density kernel",
            _base("diffuse", {"d": 2, "gamma": 1.0},
                  equation="coupled", dt=1e-3, observables=["R", "H"]),
            "diffusive",
            traj_cost_s=11.8e-3,
            oracle_cost_s=0.09,
        ),
    )
}


def simulation_seed(name: str, seed: int) -> int:
    """Simulation seed of a workload run: a hash of (workload, seed), so the
    workloads draw unrelated streams from one benchmark seed."""
    digest = hashlib.sha256(f"{name}/{int(seed)}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def run_spec(w: Workload, seed: int, n_traj: int) -> dict:
    """CLI specification of the timed call."""
    return {**w.base, "seed": simulation_seed(w.name, seed), "n_traj": int(n_traj)}


def oracle_spec(w: Workload, seed: int) -> dict:
    """``qtraj master`` specification for the same model and sample times."""
    spec = {k: v for k, v in w.base.items() if k not in ("mode", "equation", "dt")}
    spec.update(
        experiment="master",
        equation=w.oracle_equation,
        dt=ORACLE_DT,
        seed=simulation_seed(w.name, seed),
    )
    return spec
