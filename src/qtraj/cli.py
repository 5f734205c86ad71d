"""Batch front end: run specifications, experiment orchestration and data
emission.

A run specification is a JSON object whose fields are documented in
``RunSpec``.  Every default that resolution applies is echoed into the output
manifest together with a content hash of the resolved specification, and all
emitted files carry that hash and the seed in a header line.  jump, many
and diffuse share one runner: ``timeseries.tsv`` holds the statistics of
the chunks of ``trajectory_chunks``, run on worker processes, and, for the
event runs jump and many, ``trajectories.jsonl`` one record per trajectory,
its lines rendered in the workers.  A ``master`` run also
records its RK4 stability margin, dt * ||generator|| against the bound,
under ``diagnostics`` in the manifest.  Outputs are byte-identical for a
fixed specification and seed, independent of the worker count.  An event
run writes ``trajectories.jsonl`` chunk by chunk as its trajectories are
drawn, under a temporary name that is renamed once every chunk is written
and removed, with the output directory if the run made it, on any failure.
Every other file is written once its run has finished, and the first file
written makes the output directory, so a rejected run leaves no directory
behind.

Exit codes: 0 success, 2 configuration errors, 3 numerical errors,
4 capacity errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from contextlib import closing, contextmanager, nullcontext
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .diffusion import EQUATIONS as DIFFUSION_EQUATIONS, DiffusionConfig
from .ensemble import (
    MASTER_MODES,
    RK4_BOUND,
    MasterConfig,
    check_result_size,
    jump_to_diffusion_bridge,
    master_generator,
    rk4_solve,
    series_columns,
    trajectory_chunks,
    trajectory_stats,
    usable_cpus,
)
from .errors import SimulationError, ValidationError, check_memory
from .jumps import JumpConfig
from .linalg import HermitianOperator, StateVector, check_model, kron_power, slot_sum
from .manybody import ManyBodyConfig, nearest_neighbor_coupling
from .meter import DEFAULT_GRID_SIZE, MeterModel
from .presets import get_preset, preset_meter
from .records import json_dumps_stable, spec_hash, trajectory_writer, write_table

EXPERIMENTS = ("kick", "jump", "many", "diffuse", "master", "bridge")
EQUATIONS = {"diffuse": DIFFUSION_EQUATIONS, "master": MASTER_MODES}
INTERACTIONS = ("none", "nearest-neighbor")
# Spec fields each experiment reads besides experiment, preset, overrides,
# seed (in every file header) and the execution knobs out and threads.
READS = {
    "kick": {"initial_state", "kick_lambdas"},
    "jump": {"T", "n_samples", "mode", "n_traj", "observables", "initial_state"},
    "many": {"T", "n_samples", "mode", "n_traj", "observables", "initial_state"},
    "diffuse": {"equation", "T", "dt", "n_samples", "n_traj", "observables", "initial_state"},
    "master": {"equation", "T", "dt", "n_samples", "observables", "initial_state"},
    "bridge": {"nus"},
}
ALWAYS_READ = {"experiment", "preset", "overrides", "seed", "out", "threads"}
# Model overrides: conversion, range check (None: any value) and its message.
OVERRIDES = {
    "d": (int, None, None),
    "M": (int, None, None),
    "kappa": (float, None, None),
    "nu": (float, None, None),
    "gamma": (float, None, None),
    "hbar": (float, None, None),
    "pointer_points": (int, lambda n: n >= 16, "pointer_points >= 16 required"),
    "pointer_phase_slope": (float, None, None),
    "interaction": (str, INTERACTIONS.__contains__,
                    "interaction must be 'none' or 'nearest-neighbor'"),
    "interaction_strength": (float, None, None),
}
# Override keys each run reads, keyed by experiment, and for the experiments
# of ``EQUATIONS`` by (experiment, equation): d picks the preset's dimension,
# and kappa and the pointer_* keys size the pointer grid of every run.  The
# state equations are single-particle, and only the jump equations read the
# jump rate nu and the pair potential.
_POINTER_KEYS = {"d", "kappa", "pointer_points", "pointer_phase_slope"}
_DIFFUSIVE_KEYS = _POINTER_KEYS | {"gamma", "hbar"}
OVERRIDES_READ = {
    "kick": _POINTER_KEYS,
    "jump": _POINTER_KEYS | {"nu", "hbar"},
    "many": set(OVERRIDES) - {"gamma"},
    ("diffuse", "linear"): _DIFFUSIVE_KEYS,
    ("diffuse", "coupled"): _DIFFUSIVE_KEYS,
    ("diffuse", "density"): _DIFFUSIVE_KEYS | {"M"},
    ("master", "jump-averaged"): set(OVERRIDES) - {"gamma"},
    ("master", "diffusive"): _DIFFUSIVE_KEYS | {"M"},
    "bridge": _DIFFUSIVE_KEYS,
}


def _require(cond: bool, message: str):
    if not cond:
        raise ValidationError(message)


@contextmanager
def _reading(name: str):
    """Report a TypeError, ValueError or OverflowError raised while reading
    spec content as a ValidationError that names the field."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"invalid {name}: {exc}") from exc


def _check_finite(name: str, value):
    """Reject a non-finite number anywhere in value, naming the field it sits in."""
    if isinstance(value, float):
        _require(math.isfinite(value), f"{name} must be finite, got {value!r}")
    elif isinstance(value, dict):
        for key, item in value.items():
            _check_finite(f"{name}.{key}", item)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_finite(f"{name}[{i}]", item)


def _array(value) -> list:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected an array, got {type(value).__name__}")
    return list(value)


def _floats(value) -> list:
    return [float(x) for x in _array(value)]


def _optional_floats(value) -> list | None:
    return None if value is None else _floats(value)


def _object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return dict(value)


def _field(convert, default=MISSING):
    """A RunSpec field read through ``convert``; list and dict defaults are copied."""
    if isinstance(default, (list, dict)):
        return field(default_factory=default.copy, metadata={"convert": convert})
    return field(default=default, metadata={"convert": convert})


def _experiment_defaults(experiment) -> dict:
    """The preset and equation defaults, the two that depend on the experiment."""
    return {
        "preset": "two-atoms" if experiment == "many" else "two-level",
        "equation": "jump-averaged" if experiment == "master" else "linear",
    }


@dataclass
class RunSpec:
    """Validated run specification with all defaults resolved.

    The fields of the JSON object, with their defaults in parentheses:

    - experiment: one of ``EXPERIMENTS`` (required).
    - preset: "two-level", "lattice-particle" or "two-atoms" ("two-atoms"
      for many, else "two-level").
    - equation: for diffuse "linear" (default), "coupled" or "density"; for
      master "jump-averaged" (default) or "diffusive".
    - overrides ({}): model parameters that replace the preset's: d (only
      lattice-particle takes a d other than its own), M (1 to
      ``MAX_PARTICLES``), kappa, nu, gamma, hbar (1), pointer_points >= 16
      (1024), pointer_phase_slope (0), interaction "none" (default) or
      "nearest-neighbor", interaction_strength (0.5); stored converted, so
      {"nu": 5} and {"nu": 5.0} hash alike.
    - T (1): final time; dt (1e-3): step of diffuse and master;
      n_samples >= 1 (10): record times T/n, 2T/n, ..., T.
    - mode: "normalized" (default) or "linear" jump and mixing trajectories.
    - n_traj >= 2 (100), as a standard error needs two trajectories; seed
      >= 0 (0) and threads >= 1 (every CPU the process may use), the cap on
      the worker processes that run the trajectories, itself capped at
      those CPUs, with no effect on the outputs; diffusion runs split only
      at blocks of 512 paths.
    - observables (["R"]): array of "R", "H", "projector:k" and inline
      {"name", "matrix"} objects with number or [re, im] entries; an
      operator on one particle is averaged over the particles.
    - nus ([100, 1000, 10000]): increasing jump rates of bridge.
    - initial_state ("uniform"): one-particle state, "uniform", "basis:k" or
      an amplitude array; M particles start in the product state.
    - kick_lambdas (null, the quartiles of the outcome density): pointer
      readings whose posterior states kick reports.
    - out ("runs"): output directory.  Neither out nor threads changes the
      output or its hash.

    ``READS`` lists the fields each experiment reads and ``OVERRIDES_READ``
    the override keys of each experiment and equation; ``execute`` rejects a
    non-default value of any other field and any other override key, and
    also interaction and interaction_strength when M is 1 and
    interaction_strength without the nearest-neighbor interaction.  Every
    number, nested ones included, must be finite.  The engines alone check
    T > 0, dt > 0, the mode, nu >= 0 and hbar > 0, before any output.
    """

    experiment: str = _field(str)
    preset: str = _field(str)
    equation: str = _field(str)
    overrides: dict = _field(_object, {})
    T: float = _field(float, 1.0)
    dt: float = _field(float, 1e-3)
    n_samples: int = _field(int, 10)
    mode: str = _field(str, "normalized")
    n_traj: int = _field(int, 100)
    seed: int = _field(int, 0)
    threads: int = field(default_factory=usable_cpus, metadata={"convert": int})
    observables: list = _field(_array, ["R"])
    nus: list = _field(_floats, [100.0, 1000.0, 10000.0])
    initial_state: object = _field(lambda state: state, "uniform")
    kick_lambdas: list | None = _field(_optional_floats, None)
    out: str = _field(str, "runs")

    def __post_init__(self):
        for f in fields(self):
            with _reading(f.name):
                setattr(self, f.name, f.metadata["convert"](getattr(self, f.name)))
            _check_finite(f.name, getattr(self, f.name))
        _require(
            self.experiment in EXPERIMENTS,
            f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}",
        )
        _require(self.n_samples >= 1, "n_samples >= 1 required")
        _require(self.n_traj >= 2, f"n_traj must be >= 2, got {self.n_traj}")
        _require(self.seed >= 0, "seed >= 0 required")
        _require(self.threads >= 1, "threads >= 1 required")
        if self.experiment in EQUATIONS:
            allowed = EQUATIONS[self.experiment]
            _require(
                self.equation in allowed,
                f"equation must be one of {allowed} for {self.experiment} runs",
            )
        self.overrides = _model_overrides(self.overrides)


def _model_overrides(overrides: dict) -> dict:
    """Converted and range-checked values of a spec's overrides."""
    unknown = sorted(set(overrides) - set(OVERRIDES))
    _require(not unknown, f"unknown override fields: {unknown}")
    values = {}
    for key, raw in overrides.items():
        convert, ok, message = OVERRIDES[key]
        with _reading(f"overrides.{key}"):
            values[key] = convert(raw)
        _check_finite(f"overrides.{key}", values[key])
        _require(ok is None or ok(values[key]), message)
    check_model(values.get("M", 1))
    return values


def spec_from_dict(raw: dict, command: str | None = None) -> RunSpec:
    """Validate a parsed specification object and apply defaults.

    ``command``, when given, is the experiment the specification must name.
    """
    _require(isinstance(raw, dict), "specification must be a JSON object")
    unknown = sorted(set(raw) - {f.name for f in fields(RunSpec)})
    _require(not unknown, f"unknown specification fields: {unknown}")
    _require("experiment" in raw, "field 'experiment' is required")
    spec = RunSpec(**{**_experiment_defaults(raw["experiment"]), **raw})
    _require(
        command in (None, spec.experiment),
        f"specification is for experiment {spec.experiment!r}, "
        f"but the {command!r} subcommand was invoked",
    )
    return spec


def read_spec_file(path) -> dict:
    """Parse a specification file; returns its JSON object, not yet checked
    against ``RunSpec``."""
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"specification file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"parse error in {p} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    _require(isinstance(raw, dict), "specification must be a JSON object")
    return raw


def _check_fields_read(spec: RunSpec):
    """Reject a non-default value of a field, or an override key, that the
    experiment never reads: it would enter the manifest and the spec hash
    without changing the data."""
    default = spec_from_dict({"experiment": spec.experiment})
    ignored = [
        f.name for f in fields(RunSpec)
        if f.name not in ALWAYS_READ | READS[spec.experiment]
        and getattr(spec, f.name) != getattr(default, f.name)
    ]
    _require(not ignored, f"{spec.experiment} runs do not read {ignored}; omit these fields")
    key = (spec.experiment, spec.equation) if spec.experiment in EQUATIONS else spec.experiment
    keys = sorted(set(spec.overrides) - OVERRIDES_READ[key])
    _require(not keys, f"{spec.experiment} runs do not read overrides {keys}; omit these keys")
    # Of the runs that get here, many and jump-averaged master take the pair
    # potential; they read it only for M > 1, and its strength only for the
    # nearest-neighbor potential.
    ov = spec.overrides
    pair = sorted(set(ov) & {"interaction", "interaction_strength"})
    _require(
        not pair or ov.get("M", get_preset(spec.preset, d=ov.get("d")).M) > 1,
        f"{spec.experiment} runs with M = 1 have no particle pairs and do not read "
        f"overrides {pair}; omit these keys",
    )
    _require(
        "interaction_strength" not in ov or ov.get("interaction") == "nearest-neighbor",
        "overrides.interaction_strength is read only with interaction 'nearest-neighbor'; "
        "omit it",
    )


@dataclass
class _Model:
    M: int
    d: int
    H: HermitianOperator
    R: HermitianOperator
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
    preset = get_preset(spec.preset, d=ov.get("d"))
    meter = preset_meter(
        preset, kappa=ov.get("kappa"), n_points=ov.get("pointer_points", DEFAULT_GRID_SIZE),
        phase_slope=ov.get("pointer_phase_slope", 0.0),
    )
    W = None
    if ov.get("interaction") == "nearest-neighbor":
        W = nearest_neighbor_coupling(preset.d, ov.get("interaction_strength", 0.5))
    with _reading("initial_state"):
        eta = _initial_single(spec, preset.d)
    return _Model(
        M=ov.get("M", preset.M), d=preset.d, H=preset.H, R=preset.R,
        nu=ov.get("nu", preset.nu), gamma=ov.get("gamma", preset.gamma),
        hbar=ov.get("hbar", 1.0), meter=meter, W=W, eta_single=eta,
    )


def _lift_average(op: np.ndarray, M: int) -> np.ndarray:
    if M == 1:
        return op
    return slot_sum(op, M) / M


def _observable_matrices(spec: RunSpec, model: _Model, M: int) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    with _reading("observables"):
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
    return StateVector(kron_power(eta.amps, M))


def _resolved_for_hash(spec: RunSpec) -> dict:
    # Execution-only knobs must not influence the data or its hash.
    return {k: v for k, v in asdict(spec).items() if k not in ("out", "threads")}


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


def _run_kick(spec: RunSpec, model: _Model, outdir: Path, meta: dict):
    meter = model.meter
    eta = model.eta_single
    p = meter.output_density(eta)
    if spec.kick_lambdas is None:
        cdf = np.cumsum(p * meter.pointer.weights)
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
    write_table(outdir / "kick_density.tsv", meta, [("lambda", meter.grid), ("density", p)])
    write_table(outdir / "kick_posteriors.tsv", meta, cols)


def _manybody_config(spec: RunSpec, model: _Model) -> ManyBodyConfig:
    return ManyBodyConfig(
        M=model.M, d=model.d, H_single=model.H, meter=model.meter, nu=model.nu,
        W=model.W, hbar=model.hbar, seed=spec.seed,
    )


def _diffusion_config(spec: RunSpec, model: _Model, M: int) -> DiffusionConfig:
    return DiffusionConfig(
        H=model.H, R=model.R, gamma=model.gamma, pointer=model.meter.pointer, dt=spec.dt,
        hbar=model.hbar, seed=spec.seed, M=M,
    )


def _run_ensemble(spec: RunSpec, model: _Model, outdir: Path, meta: dict):
    """jump, many and diffuse: trajectories, their statistics and, for event
    runs, their records.  The chunks are consumed in index order as they
    finish: an event chunk's records are written, and every chunk's series
    kept for the statistics, while the workers draw the chunks ahead."""
    if spec.experiment == "jump":
        cfg = JumpConfig(H=model.H, meter=model.meter, nu=model.nu, hbar=model.hbar,
                         seed=spec.seed, mode=spec.mode)
        M, equation = 1, None
    elif spec.experiment == "many":
        cfg, M, equation = _manybody_config(spec, model), model.M, spec.mode
    else:
        M = model.M if spec.equation == "density" else 1
        cfg, equation = _diffusion_config(spec, model, M), spec.equation
    initial = model.eta_single
    if spec.experiment == "many" or equation == "density":
        initial = _product_state(model.eta_single, M).density()
    obs = _observable_matrices(spec, model, M)
    check_result_size(spec.n_traj, spec.n_samples, len(obs))
    keep = "series" if spec.experiment == "diffuse" else "records"
    chunks = trajectory_chunks(cfg, initial, spec.T, spec.n_traj, observables=obs,
                               sample_times=_sample_times(spec), n_workers=spec.threads,
                               equation=equation, keep=keep)
    records = nullcontext(lambda chunk: chunk)  # diffusion paths have no records
    if keep == "records":
        records = trajectory_writer(outdir / "trajectories.jsonl", meta)
    with closing(chunks), records as write:  # closing joins the workers of a failed run
        cols = series_columns(map(write, chunks), spec.n_traj)
    table = _stats_columns(trajectory_stats(cols))
    if spec.experiment == "many":
        table.append(("min_eig_min", np.min(cols.min_eig, axis=0)))
    write_table(outdir / "timeseries.tsv", meta, table)


def _run_master(spec: RunSpec, model: _Model, outdir: Path, meta: dict):
    # rk4_solve holds every record, a time and a D x D density, until it returns.
    check_memory("n_samples", spec.n_samples, 8 + 16 * model.d ** (2 * model.M), "records")
    times = _sample_times(spec)
    if spec.equation == "diffusive":
        mcfg = MasterConfig.from_diffusion(_diffusion_config(spec, model, model.M))
    else:
        mcfg = MasterConfig.from_manybody(_manybody_config(spec, model))
    obs = _observable_matrices(spec, model, model.M)
    rho0 = _product_state(model.eta_single, model.M).density()
    gen = master_generator(mcfg)
    _, rhos = rk4_solve(gen, rho0, spec.T, spec.dt, record_times=times)
    cols: list[tuple[str, np.ndarray]] = [("t", times)]
    cols.append(("trace", np.einsum("nii->n", rhos).real))
    for name, X in obs.items():
        cols.append((name, np.einsum("ij,nji->n", X, rhos).real))
    write_table(outdir / "master.tsv", meta, cols)
    return {"rk4_dt_norm": spec.dt * gen.norm, "rk4_bound": RK4_BOUND}


def _run_bridge(spec: RunSpec, model: _Model, outdir: Path, meta: dict):
    report = jump_to_diffusion_bridge(_diffusion_config(spec, model, 1), spec.nus)
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
    _check_fields_read(spec)
    model = _resolve_model(spec)
    outdir = Path(spec.out)
    resolved = _resolved_for_hash(spec)
    meta = {"spec_hash": spec_hash(resolved), "seed": spec.seed}
    runner = {
        "kick": _run_kick,
        "jump": _run_ensemble,
        "many": _run_ensemble,
        "diffuse": _run_ensemble,
        "master": _run_master,
        "bridge": _run_bridge,
    }[spec.experiment]
    diagnostics = runner(spec, model, outdir, meta)
    manifest = {**meta, "resolved": resolved}
    if diagnostics:
        manifest["diagnostics"] = diagnostics
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2, allow_nan=False) + "\n"
    )
    return 0


def _run_selftest(args) -> int:
    from .acceptance import format_table, run_criteria

    only = None
    if args.only is not None:
        with _reading("--only"):
            only = [int(x) for x in str(args.only).split(",") if x.strip()]
    results = run_criteria(only)
    table = format_table(results)
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
    try:
        print(table, flush=True)
    except BrokenPipeError:
        # The reader closed stdout early (`qtraj selftest | head -1`); the
        # files above hold the whole table.  Point stdout at the null device so
        # the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if summary["all_passed"] else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: it holds no state
    between calls, since parse_args returns a new namespace each time."""
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
        p.add_argument("--threads", type=int,
                       help="worker processes (default: every usable CPU; does not affect "
                            "the outputs)")
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
        raw = read_spec_file(args.spec) if args.spec else {"experiment": args.command}
        flags = {"seed": args.seed, "n_traj": args.traj, "threads": args.threads, "out": args.out}
        raw.update((key, value) for key, value in flags.items() if value is not None)
        spec = spec_from_dict(raw, command=args.command)
        return execute(spec)
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def console_main():
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
