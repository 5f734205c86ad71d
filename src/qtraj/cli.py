"""Batch front end: run specifications, experiment orchestration and data
emission.

A run specification is a JSON object (documented field by field in the
README).  Every default that resolution applies is echoed into the output
manifest together with a content hash of the resolved specification, and all
emitted files carry that hash and the seed in a header line.  Outputs are
byte-identical for a fixed specification and seed, independent of the worker
count.

Exit codes: 0 success, 2 configuration errors, 3 numerical errors,
4 capacity errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diffusion import DiffusionConfig
from .ensemble import (
    MasterConfig,
    jump_to_diffusion_bridge,
    master_generator,
    rk4_solve,
    run_ensemble,
    run_trajectories,
    trajectory_stats,
)
from .errors import CapacityError, SimulationError, ValidationError
from .jumps import JumpConfig
from .linalg import MAX_PARTICLES, HermitianOperator, StateVector, embed_at_slot
from .manybody import ManyBodyConfig, nearest_neighbor_coupling
from .meter import MeterModel, gaussian_pointer, coverage_half_width
from .presets import get_preset, preset_meter
from .records import (
    density_trajectory_record,
    fmt,
    json_dumps_stable,
    jump_trajectory_record,
    spec_hash,
    write_jsonl,
    write_table,
)

EXPERIMENTS = ("kick", "jump", "many", "diffuse", "master", "bridge")
DIFFUSE_EQUATIONS = ("linear", "coupled", "density")
MASTER_EQUATIONS = ("jump-averaged", "diffusive")
OVERRIDE_KEYS = (
    "d",
    "M",
    "kappa",
    "nu",
    "gamma",
    "hbar",
    "pointer_points",
    "pointer_phase_slope",
    "interaction",
    "interaction_strength",
)
SPEC_KEYS = (
    "experiment",
    "preset",
    "overrides",
    "T",
    "dt",
    "n_samples",
    "mode",
    "equation",
    "n_traj",
    "seed",
    "threads",
    "observables",
    "nus",
    "initial_state",
    "kick_lambdas",
    "out",
)


@dataclass
class RunSpec:
    """Validated run specification with all defaults resolved."""

    experiment: str
    preset: str
    overrides: dict = field(default_factory=dict)
    T: float = 1.0
    dt: float = 1e-3
    n_samples: int = 10
    mode: str = "normalized"
    equation: str = "linear"
    n_traj: int = 100
    seed: int = 0
    threads: int = 1
    observables: list = field(default_factory=lambda: ["R"])
    nus: list = field(default_factory=lambda: [100.0, 1000.0, 10000.0])
    initial_state: object = "uniform"
    kick_lambdas: list | None = None
    out: str = "runs"


def _require(cond: bool, message: str):
    if not cond:
        raise ValidationError(message)


def spec_from_dict(raw: dict) -> RunSpec:
    """Validate a parsed specification object and apply defaults."""
    _require(isinstance(raw, dict), "specification must be a JSON object")
    unknown = sorted(set(raw) - set(SPEC_KEYS))
    _require(not unknown, f"unknown specification fields: {unknown}")
    _require("experiment" in raw, "field 'experiment' is required")
    experiment = raw["experiment"]
    _require(
        experiment in EXPERIMENTS,
        f"experiment must be one of {EXPERIMENTS}, got {experiment!r}",
    )
    preset = raw.get("preset", "two-atoms" if experiment == "many" else "two-level")
    overrides = raw.get("overrides", {})
    _require(isinstance(overrides, dict), "overrides must be an object")
    unknown = sorted(set(overrides) - set(OVERRIDE_KEYS))
    _require(not unknown, f"unknown override fields: {unknown}")
    spec = RunSpec(
        experiment=experiment,
        preset=str(preset),
        overrides=dict(overrides),
        T=float(raw.get("T", 1.0)),
        dt=float(raw.get("dt", 1e-3)),
        n_samples=int(raw.get("n_samples", 10)),
        mode=str(raw.get("mode", "normalized")),
        equation=str(
            raw.get("equation", "jump-averaged" if experiment == "master" else "linear")
        ),
        n_traj=int(raw.get("n_traj", 100)),
        seed=int(raw.get("seed", 0)),
        threads=int(raw.get("threads", 1)),
        observables=list(raw.get("observables", ["R"])),
        nus=[float(x) for x in raw.get("nus", [100.0, 1000.0, 10000.0])],
        initial_state=raw.get("initial_state", "uniform"),
        kick_lambdas=(
            None if raw.get("kick_lambdas") is None
            else [float(x) for x in raw["kick_lambdas"]]
        ),
        out=str(raw.get("out", "runs")),
    )
    _require(spec.T > 0, "T > 0 required")
    _require(spec.dt > 0, "dt > 0 required")
    _require(spec.n_samples >= 1, "n_samples >= 1 required")
    _require(spec.mode in ("normalized", "linear"), "mode must be 'normalized' or 'linear'")
    _require(spec.n_traj >= 1, "n_traj >= 1 required")
    _require(spec.seed >= 0, "seed >= 0 required")
    _require(spec.threads >= 1, "threads >= 1 required")
    if experiment == "diffuse":
        _require(
            spec.equation in DIFFUSE_EQUATIONS,
            f"equation must be one of {DIFFUSE_EQUATIONS} for diffuse runs",
        )
    if experiment == "master":
        _require(
            spec.equation in MASTER_EQUATIONS,
            f"equation must be one of {MASTER_EQUATIONS} for master runs",
        )
    if "nu" in spec.overrides:
        _require(float(spec.overrides["nu"]) >= 0, "nu >= 0 required")
    if "hbar" in spec.overrides:
        _require(float(spec.overrides["hbar"]) > 0, "hbar > 0 required")
    if "kappa" in spec.overrides:
        _require(np.isfinite(float(spec.overrides["kappa"])), "kappa must be finite")
    if "M" in spec.overrides:
        M = int(spec.overrides["M"])
        _require(M >= 1, "M >= 1 required")
        if M > MAX_PARTICLES:
            raise CapacityError(f"at most {MAX_PARTICLES} particles supported, got M={M}")
    if "pointer_points" in spec.overrides:
        _require(int(spec.overrides["pointer_points"]) >= 16, "pointer_points >= 16 required")
    if "interaction" in spec.overrides:
        _require(
            spec.overrides["interaction"] in ("none", "nearest-neighbor"),
            "interaction must be 'none' or 'nearest-neighbor'",
        )
    return spec


def load_runspec(path) -> RunSpec:
    """Read and validate a specification file."""
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"specification file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"parse error in {p} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return spec_from_dict(raw)


def dump_runspec(spec: RunSpec) -> dict:
    """Fully resolved specification as a plain JSON-compatible object."""
    return {
        "experiment": spec.experiment,
        "preset": spec.preset,
        "overrides": dict(spec.overrides),
        "T": spec.T,
        "dt": spec.dt,
        "n_samples": spec.n_samples,
        "mode": spec.mode,
        "equation": spec.equation,
        "n_traj": spec.n_traj,
        "seed": spec.seed,
        "threads": spec.threads,
        "observables": list(spec.observables),
        "nus": list(spec.nus),
        "initial_state": spec.initial_state,
        "kick_lambdas": spec.kick_lambdas,
        "out": spec.out,
    }


@dataclass
class _Model:
    M: int
    d: int
    H: HermitianOperator
    R: HermitianOperator
    kappa: float
    nu: float
    gamma: float
    hbar: float
    meter: MeterModel
    W: np.ndarray | None
    eta_single: StateVector


def _initial_single(spec: RunSpec, d: int) -> StateVector:
    init = spec.initial_state
    if isinstance(init, str):
        if init == "uniform":
            return StateVector(np.ones(d, dtype=complex) / np.sqrt(d))
        if init.startswith("basis:"):
            k = int(init.split(":", 1)[1])
            _require(0 <= k < d, f"initial_state basis index must lie in 0..{d - 1}")
            v = np.zeros(d, dtype=complex)
            v[k] = 1.0
            return StateVector(v)
        raise ValidationError(
            f"initial_state must be 'uniform', 'basis:k' or an amplitude list, got {init!r}"
        )
    amps = np.array([_parse_scalar(x) for x in init], dtype=complex)
    _require(amps.size == d, f"initial_state must have {d} amplitudes")
    return StateVector(amps).normalized()


def _parse_scalar(x) -> complex:
    if isinstance(x, (int, float)):
        return complex(x)
    if isinstance(x, (list, tuple)) and len(x) == 2:
        return complex(float(x[0]), float(x[1]))
    raise ValidationError(f"matrix/state entries must be numbers or [re, im] pairs, got {x!r}")


def _resolve_model(spec: RunSpec) -> _Model:
    ov = spec.overrides
    preset = get_preset(spec.preset, d=int(ov["d"]) if "d" in ov else None)
    d = preset.d
    M = int(ov.get("M", preset.M))
    kappa = float(ov.get("kappa", preset.kappa))
    nu = float(ov.get("nu", preset.nu))
    gamma = float(ov.get("gamma", preset.gamma))
    hbar = float(ov.get("hbar", 1.0))
    n_points = int(ov.get("pointer_points", 1024))
    phase_slope = float(ov.get("pointer_phase_slope", 0.0))
    meter = preset_meter(preset, kappa=kappa, n_points=n_points, phase_slope=phase_slope)
    W = None
    if ov.get("interaction", "none") == "nearest-neighbor":
        W = nearest_neighbor_coupling(d, float(ov.get("interaction_strength", 0.5)))
    eta = _initial_single(spec, d)
    return _Model(
        M=M, d=d, H=preset.H, R=preset.R, kappa=kappa, nu=nu, gamma=gamma,
        hbar=hbar, meter=meter, W=W, eta_single=eta,
    )


def _lift_average(op: np.ndarray, M: int) -> np.ndarray:
    if M == 1:
        return op
    return sum(embed_at_slot(op, k, M) for k in range(1, M + 1)) / M


def _observable_matrices(spec: RunSpec, model: _Model, M: int) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    for entry in spec.observables:
        if isinstance(entry, str):
            if entry == "R":
                single = model.R.entries
            elif entry == "H":
                single = model.H.entries
            elif entry.startswith("projector:"):
                k = int(entry.split(":", 1)[1])
                _require(0 <= k < model.d, f"projector index must lie in 0..{model.d - 1}")
                single = np.zeros((model.d, model.d), dtype=complex)
                single[k, k] = 1.0
            else:
                raise ValidationError(
                    f"observable {entry!r} not recognized; use 'R', 'H', 'projector:k' "
                    "or an inline matrix"
                )
            out[entry] = _lift_average(single, M)
        elif isinstance(entry, dict):
            _require(
                "name" in entry and "matrix" in entry,
                "inline observables need 'name' and 'matrix' fields",
            )
            rows = [[_parse_scalar(x) for x in row] for row in entry["matrix"]]
            mat = HermitianOperator(np.array(rows, dtype=complex)).entries
            _require(
                mat.shape[0] in (model.d, model.d ** M),
                f"inline observable must act on d={model.d} or d^M={model.d ** M}",
            )
            out[str(entry["name"])] = _lift_average(mat, M) if mat.shape[0] == model.d else mat
        else:
            raise ValidationError(f"bad observable entry: {entry!r}")
    return out


def _sample_times(spec: RunSpec) -> np.ndarray:
    return np.linspace(spec.T / spec.n_samples, spec.T, spec.n_samples)


def _product_state(eta: StateVector, M: int) -> StateVector:
    amps = eta.amps
    for _ in range(M - 1):
        amps = np.kron(amps, eta.amps)
    return StateVector(amps)


def _meta(spec: RunSpec, resolved: dict) -> dict:
    return {"spec_hash": spec_hash(resolved), "seed": spec.seed}


def _write_manifest(outdir: Path, spec: RunSpec, resolved: dict):
    manifest = {
        "spec_hash": spec_hash(resolved),
        "seed": spec.seed,
        "resolved": resolved,
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2, allow_nan=False) + "\n"
    )


def _resolved_for_hash(spec: RunSpec) -> dict:
    resolved = dump_runspec(spec)
    # Execution-only knobs must not influence the data or its hash.
    resolved.pop("out")
    resolved.pop("threads")
    return resolved


def _stats_columns(stats) -> list[tuple[str, np.ndarray]]:
    cols: list[tuple[str, np.ndarray]] = [("t", stats.sample_times)]
    cols.append(("weight_mean", stats.weight_mean))
    cols.append(("weight_se", stats.weight_se))
    for o, name in enumerate(stats.names):
        cols.append((f"{name}_mean", stats.obs_mean[:, o]))
        cols.append((f"{name}_se", stats.obs_se[:, o]))
    if stats.entropy_mean is not None:
        cols.append(("entropy_mean", stats.entropy_mean))
        cols.append(("entropy_se", stats.entropy_se))
    return cols


def _run_kick(spec: RunSpec, model: _Model, outdir: Path, resolved: dict):
    meter = model.meter
    eta = model.eta_single
    p = meter.output_density(eta)
    weights = meter.pointer.weights
    meta = _meta(spec, resolved)
    write_table(outdir / "kick_density.tsv", meta, [("lambda", meter.grid), ("density", p)])
    if spec.kick_lambdas is None:
        cdf = np.cumsum(p * weights)
        cdf /= cdf[-1]
        lams = [
            float(meter.grid[int(np.searchsorted(cdf, q))]) for q in (0.25, 0.5, 0.75)
        ]
    else:
        lams = list(spec.kick_lambdas)
    cols: list[tuple[str, np.ndarray]] = [("lambda", np.asarray(lams))]
    posts = [meter.posterior_state(eta, lam) for lam in lams]
    for i in range(model.d):
        cols.append((f"re_{i}", np.array([ps.amps[i].real for ps in posts])))
        cols.append((f"im_{i}", np.array([ps.amps[i].imag for ps in posts])))
    write_table(outdir / "kick_posteriors.tsv", meta, cols)


def _run_jump(spec: RunSpec, model: _Model, outdir: Path, resolved: dict):
    cfg = JumpConfig(
        H=model.H, meter=model.meter, nu=model.nu, hbar=model.hbar,
        seed=spec.seed, mode=spec.mode,
    )
    obs = _observable_matrices(spec, model, 1)
    trajs = run_trajectories(cfg, model.eta_single, spec.T, spec.n_traj, observables=obs,
                             sample_times=_sample_times(spec), n_workers=spec.threads)
    meta = _meta(spec, resolved)
    write_jsonl(
        outdir / "trajectories.jsonl",
        meta,
        [jump_trajectory_record(t, i, spec.seed) for i, t in enumerate(trajs)],
    )
    write_table(outdir / "timeseries.tsv", meta, _stats_columns(trajectory_stats(trajs, spec.mode)))


def _run_many(spec: RunSpec, model: _Model, outdir: Path, resolved: dict):
    cfg = ManyBodyConfig(
        M=model.M, d=model.d, H_single=model.H, meter=model.meter, nu=model.nu,
        W=model.W, hbar=model.hbar, seed=spec.seed,
    )
    obs = _observable_matrices(spec, model, model.M)
    rho0 = _product_state(model.eta_single, model.M).density()
    trajs = run_trajectories(cfg, rho0, spec.T, spec.n_traj, observables=obs,
                             sample_times=_sample_times(spec), n_workers=spec.threads,
                             mode=spec.mode)
    meta = _meta(spec, resolved)
    write_jsonl(
        outdir / "trajectories.jsonl",
        meta,
        [density_trajectory_record(t, i, spec.seed) for i, t in enumerate(trajs)],
    )
    cols = _stats_columns(trajectory_stats(trajs, spec.mode))
    min_eig = np.min(np.stack([t.min_eig_series for t in trajs]), axis=0)
    cols.append(("min_eig_min", min_eig))
    write_table(outdir / "timeseries.tsv", meta, cols)


def _run_diffuse(spec: RunSpec, model: _Model, outdir: Path, resolved: dict):
    pointer = model.meter.pointer
    cfg = DiffusionConfig(
        H=model.H, R=model.R, gamma=model.gamma, pointer=pointer, dt=spec.dt,
        hbar=model.hbar, seed=spec.seed, M=model.M if spec.equation == "density" else 1,
    )
    obs = _observable_matrices(spec, model, cfg.M)
    times = _sample_times(spec)
    initial = (
        _product_state(model.eta_single, cfg.M).density()
        if spec.equation == "density"
        else model.eta_single
    )
    stats = run_ensemble(
        cfg, initial, spec.T, spec.n_traj, observables=obs,
        sample_times=times, n_workers=spec.threads, equation=spec.equation,
    )
    write_table(outdir / "timeseries.tsv", _meta(spec, resolved), _stats_columns(stats))


def _run_master(spec: RunSpec, model: _Model, outdir: Path, resolved: dict):
    times = _sample_times(spec)
    if spec.equation == "jump-averaged":
        if model.M > 1:
            mb = ManyBodyConfig(
                M=model.M, d=model.d, H_single=model.H, meter=model.meter,
                nu=model.nu, W=model.W, hbar=model.hbar, seed=spec.seed,
            )
            mcfg = MasterConfig.from_manybody(mb)
        else:
            mcfg = MasterConfig(
                mode="jump-averaged", H=model.H, hbar=model.hbar,
                meter=model.meter, nu=model.nu,
            )
        obs = _observable_matrices(spec, model, model.M)
        rho0 = _product_state(model.eta_single, model.M).density()
    else:
        dcfg = DiffusionConfig(
            H=model.H, R=model.R, gamma=model.gamma, pointer=model.meter.pointer,
            dt=spec.dt, hbar=model.hbar, seed=spec.seed, M=model.M,
        )
        mcfg = MasterConfig.from_diffusion(dcfg)
        obs = _observable_matrices(spec, model, model.M)
        rho0 = _product_state(model.eta_single, model.M).density()
    _, rhos = rk4_solve(master_generator(mcfg), rho0, spec.T, spec.dt, record_times=times)
    cols: list[tuple[str, np.ndarray]] = [("t", times)]
    cols.append(("trace", np.einsum("nii->n", rhos).real))
    for name, X in obs.items():
        cols.append((name, np.einsum("ij,nji->n", X, rhos).real))
    write_table(outdir / "master.tsv", _meta(spec, resolved), cols)


def _run_bridge(spec: RunSpec, model: _Model, outdir: Path, resolved: dict):
    pointer = model.meter.pointer
    base = DiffusionConfig(
        H=model.H, R=model.R, gamma=model.gamma, pointer=pointer, dt=spec.dt,
        hbar=model.hbar, seed=spec.seed, M=1,
    )
    report = jump_to_diffusion_bridge(base, spec.nus)
    meta = _meta(spec, resolved)
    write_table(
        outdir / "bridge.tsv",
        meta,
        [("nu", report.nus), ("kappa", report.kappas), ("error", report.errors)],
    )
    summary = {
        "monotone_decreasing": report.monotone_decreasing,
        "final_error": report.final_error,
    }
    (outdir / "bridge_summary.json").write_text(json_dumps_stable(summary) + "\n")


def execute(spec: RunSpec) -> int:
    """Run one experiment and write its artifact files; returns 0."""
    outdir = Path(spec.out)
    outdir.mkdir(parents=True, exist_ok=True)
    resolved = _resolved_for_hash(spec)
    model = _resolve_model(spec)
    runner = {
        "kick": _run_kick,
        "jump": _run_jump,
        "many": _run_many,
        "diffuse": _run_diffuse,
        "master": _run_master,
        "bridge": _run_bridge,
    }[spec.experiment]
    runner(spec, model, outdir, resolved)
    _write_manifest(outdir, spec, resolved)
    return 0


def _run_selftest(args) -> int:
    from .acceptance import format_table, run_criteria

    only = None
    if args.only:
        only = [int(x) for x in str(args.only).split(",") if x.strip()]
    results = run_criteria(only)
    table = format_table(results)
    print(table)
    outdir = Path(args.out or "runs")
    outdir.mkdir(parents=True, exist_ok=True)
    summary = {
        "criteria": [
            {"id": r.cid, "title": r.title, "passed": r.passed, "detail": r.detail}
            for r in results
        ],
        "all_passed": all(r.passed for r in results),
    }
    (outdir / "acceptance_summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n"
    )
    (outdir / "acceptance_table.txt").write_text(table + "\n")
    return 0 if summary["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtraj",
        description="Monitored quantum system simulator: jump, mixing and diffusion runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--spec", help="path to a JSON run specification")
        p.add_argument("--seed", type=int, help="override the seed")
        p.add_argument("--traj", type=int, help="override the trajectory count")
        p.add_argument("--threads", type=int, help="worker cap (does not affect results)")
        p.add_argument("--out", help="output directory")
    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--only", help="comma-separated criterion numbers")
    p.add_argument("--out", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return _run_selftest(args)
        if args.spec:
            spec = load_runspec(args.spec)
            _require(
                spec.experiment == args.command,
                f"specification is for experiment {spec.experiment!r}, "
                f"but the {args.command!r} subcommand was invoked",
            )
        else:
            spec = spec_from_dict({"experiment": args.command})
        if args.seed is not None:
            spec.seed = args.seed
            _require(spec.seed >= 0, "seed >= 0 required")
        if args.traj is not None:
            spec.n_traj = args.traj
            _require(spec.n_traj >= 1, "n_traj >= 1 required")
        if args.threads is not None:
            spec.threads = args.threads
            _require(spec.threads >= 1, "threads >= 1 required")
        if args.out is not None:
            spec.out = args.out
        return execute(spec)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def console_main():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
