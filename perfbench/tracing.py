"""Traced run: drive each qtraj module through its public functions, with a
span around every call into a layer and counts at the same boundaries.

Spans (name, start, end, parent) and their counts (events, samples,
path-steps, bytes) are kept in memory and written to one JSON file at the end
of the run.  After a warm-up at minimum sizes, the whole drive runs twice,
first with a tracer that records nothing and then with the recording tracer;
the difference in wall time is the tracing overhead.

Each engine layer is driven on the model of the workload that exercises it
(``jumps`` on jump-lattice, ``manybody`` and the RK4 oracle on many-mixing,
the density kernel on diffuse-density, the coupled SSE on diffuse-coupled).
``meter`` and ``records`` are driven on the model of the workload named on
the command line.  Where a layer has no public entry, its nearest public
caller is timed instead:

* ``diffusion.density_ns_per_path_step`` times a one-chunk
  ``run_ensemble(..., equation="density")``, the public caller of the batched
  density kernel; ``ensemble.run_ensemble_traj_per_s`` is paths per second
  of the same call.
* ``ensemble.overhead_ms`` is the time of ``run_ensemble`` on the jump model
  minus the summed ``evolve_jump`` spans at the same trajectory indices.
* ``ensemble.rk4_step_us`` times ``rk4_solve`` on the many-mixing master
  generator (D = 64), including its one-off generator-norm estimate.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from qtraj import (
    MasterConfig,
    evolve_coupled_sse,
    evolve_density,
    evolve_jump,
    rk4_solve,
    run_ensemble,
)
from qtraj.ensemble import master_generator
from qtraj.records import (
    density_trajectory_record,
    jump_trajectory_record,
    write_jsonl,
    write_table,
)
from qtraj.rng import stream

from gate import Z_MAX, Check, mean_se, z_score
from model import build_meter, build_model, make_config
from workloads import WORKLOADS, Workload

# Trace sizes at a 20-second run; they scale with the run length.
BASE_SECONDS = 20.0
SIZES = {
    "config_repeats": 11,
    "rng_streams": 2000,
    "jump_traj": 1000,
    "many_traj": 200,
    "free_steps": 500,
    "density_paths": 512,
    "coupled_paths": 500,
    "rk4_steps": 100,
}
# Small enough for a smoke run, large enough for the 5-SE checks.
MIN_SIZES = {"jump_traj": 50, "many_traj": 8, "density_paths": 16, "coupled_paths": 8,
             "rng_streams": 20, "free_steps": 20, "rk4_steps": 10, "config_repeats": 3}
FREE_STEP_DT = 0.05
NORM_TOL = 1e-9
SPAN_COST_REPEATS = 10000


class Tracer:
    """In-memory spans with counts; ``span`` yields the span record so the
    caller can attach counts to it."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
               "name": name, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def durations(self, name: str) -> np.ndarray:
        return np.array([s["end"] - s["start"] for s in self.named(name)])

    def dump(self, path: Path, meta: dict) -> None:
        totals: dict[str, dict[str, float]] = {}
        for s in self.spans:
            agg = totals.setdefault(s["name"], {"spans": 0, "seconds": 0.0})
            agg["spans"] += 1
            agg["seconds"] += s["end"] - s["start"]
            for key, val in s["counts"].items():
                agg[key] = agg.get(key, 0) + val
        path.write_text(json.dumps({"meta": meta, "totals": totals, "spans": self.spans}))


class NullTracer:
    """Same interface as :class:`Tracer`, recording nothing."""

    def __init__(self):
        self._sink: dict = {"counts": {}}

    def span(self, name: str):
        return nullcontext(self._sink)


def trace_sizes(seconds: float) -> dict[str, int]:
    scale = seconds / BASE_SECONDS
    return {k: max(MIN_SIZES[k], round(v * scale)) for k, v in SIZES.items()}


def _column_mean_se(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and SE over trajectories (axis 0) of every other index."""
    flat = x.reshape(x.shape[0], -1)
    stats = np.array([mean_se(flat[:, j].tolist()) for j in range(flat.shape[1])])
    return stats[:, 0].reshape(x.shape[1:]), stats[:, 1].reshape(x.shape[1:])


def _table(times, names, weights, obs, entropy=None, min_eig=None):
    """Timeseries columns in the CLI's layout from per-trajectory arrays;
    ``entropy`` and ``min_eig`` add the columns of the ``many`` experiment."""
    w_mean, w_se = _column_mean_se(weights)
    cols = [("t", times), ("weight_mean", w_mean), ("weight_se", w_se)]
    est_mean, est_se = _column_mean_se(weights[:, :, None] * obs)
    for o, name in enumerate(names):
        cols += [(f"{name}_mean", est_mean[:, o]), (f"{name}_se", est_se[:, o])]
    if entropy is not None:
        ent_mean, ent_se = _column_mean_se(entropy)
        cols += [("entropy_mean", ent_mean), ("entropy_se", ent_se)]
    if min_eig is not None:
        cols.append(("min_eig_min", np.min(min_eig, axis=0)))
    return cols


def _stats_table(stats) -> list[tuple[str, np.ndarray]]:
    cols = [("t", stats.sample_times), ("weight_mean", stats.weight_mean),
            ("weight_se", stats.weight_se)]
    for o, name in enumerate(stats.names):
        cols += [(f"{name}_mean", stats.obs_mean[:, o]), (f"{name}_se", stats.obs_se[:, o])]
    if stats.entropy_mean is not None:
        cols += [("entropy_mean", stats.entropy_mean), ("entropy_se", stats.entropy_se)]
    return cols


def _repeat_spans(tr, name: str, repeats: int, fn) -> None:
    for _ in range(repeats):
        with tr.span(name):
            fn()


def drive(tr, primary: Workload, seed: int, sizes: dict[str, int], out_dir: Path) -> dict:
    """One pass over every layer; returns what the checks need."""
    models = {name: build_model(w, seed) for name, w in WORKLOADS.items()}
    jm, mm = models["jump-lattice"], models["many-mixing"]
    dm, cm = models["diffuse-density"], models["diffuse-coupled"]
    reps = sizes["config_repeats"]

    _repeat_spans(tr, "meter.build", reps, lambda: build_meter(primary))
    for span_name, m in (("jumps.config", jm), ("manybody.config", mm),
                         ("diffusion.config", dm)):
        w = m.workload
        p, mt = build_meter(w)
        _repeat_spans(tr, span_name, reps, lambda: make_config(w, seed, p, mt))

    for i in range(sizes["rng_streams"]):
        with tr.span("rng.stream"):
            stream(jm.cfg.seed, i)

    # jumps: the single-particle event loop, then run_ensemble on the same indices.
    jump_trajs = []
    with tr.span("jumps.loop"):
        for i in range(sizes["jump_traj"]):
            with tr.span("jumps.evolve_jump") as s:
                traj = evolve_jump(jm.cfg, jm.initial, jm.T, index=i,
                                   sample_times=jm.sample_times, observables=jm.observables)
                s["counts"].update(events=traj.count, samples=jm.sample_times.size)
            jump_trajs.append(traj)
    with tr.span("ensemble.run_ensemble.jump") as s:
        jump_stats = run_ensemble(jm.cfg, jm.initial, jm.T, sizes["jump_traj"],
                                  observables=jm.observables, sample_times=jm.sample_times)
        s["counts"].update(trajectories=sizes["jump_traj"])

    # manybody: free steps at D = d^M, then the mixing event loop.
    rho0 = mm.initial.entries
    for _ in range(sizes["free_steps"]):
        with tr.span("manybody.free_step"):
            mm.cfg.free_step(rho0, FREE_STEP_DT)
    many_trajs = []
    with tr.span("manybody.loop"):
        for i in range(sizes["many_traj"]):
            with tr.span("manybody.evolve_density") as s:
                traj = evolve_density(mm.cfg, mm.initial, mm.T, mode=mm.workload.base["mode"],
                                      index=i, sample_times=mm.sample_times,
                                      observables=mm.observables)
                s["counts"].update(events=traj.count, samples=mm.sample_times.size)
            many_trajs.append(traj)

    # diffusion: one chunk of the batched density kernel, then coupled paths.
    n_steps = round(dm.T / dm.cfg.dt)
    with tr.span("diffusion.density_via_run_ensemble") as s:
        density_stats = run_ensemble(dm.cfg, dm.initial, dm.T, sizes["density_paths"],
                                     observables=dm.observables, sample_times=dm.sample_times,
                                     equation="density")
        s["counts"].update(paths=sizes["density_paths"],
                           path_steps=sizes["density_paths"] * n_steps)
    coupled_paths = []
    c_steps = round(cm.T / cm.cfg.dt)
    with tr.span("diffusion.coupled_loop"):
        for i in range(sizes["coupled_paths"]):
            with tr.span("diffusion.evolve_coupled_sse") as s:
                path = evolve_coupled_sse(cm.cfg, cm.initial, cm.T, index=i,
                                          record_times=cm.sample_times)
                s["counts"].update(path_steps=c_steps, samples=cm.sample_times.size)
            coupled_paths.append(path)

    # ensemble: RK4 steps of the D = 64 master oracle.
    mcfg = MasterConfig.from_manybody(mm.cfg)
    dt = 1e-3
    with tr.span("ensemble.rk4_solve") as s:
        rk4_solve(master_generator(mcfg), rho0, sizes["rk4_steps"] * dt, dt)
        s["counts"].update(steps=sizes["rk4_steps"])

    # records: what the primary workload's CLI experiment writes.
    rec_dir = out_dir / "records"
    rec_dir.mkdir(parents=True, exist_ok=True)
    # The CLI's header: the simulation seed and a 16-digit spec hash.
    sim_seed = models[primary.name].cfg.seed
    meta = {"seed": sim_seed, "spec_hash": "0" * 16}
    with tr.span("records.write") as s:
        files = [rec_dir / "timeseries.tsv"]
        if primary.name == "jump-lattice":
            write_jsonl(files[0].with_name("trajectories.jsonl"), meta,
                        [jump_trajectory_record(t, i, sim_seed) for i, t in enumerate(jump_trajs)])
            files.append(files[0].with_name("trajectories.jsonl"))
            columns = _stats_table(jump_stats)
        elif primary.name == "many-mixing":
            write_jsonl(files[0].with_name("trajectories.jsonl"), meta,
                        [density_trajectory_record(t, i, sim_seed)
                         for i, t in enumerate(many_trajs)])
            files.append(files[0].with_name("trajectories.jsonl"))
            columns = _table(mm.sample_times, list(mm.observables),
                             np.stack([t.trace_series for t in many_trajs]),
                             np.stack([np.stack([t.observable_series[n] for n in mm.observables],
                                                axis=1) for t in many_trajs]),
                             entropy=np.stack([t.entropy_series for t in many_trajs]),
                             min_eig=np.stack([t.min_eig_series for t in many_trajs]))
        elif primary.name == "diffuse-density":
            columns = _stats_table(density_stats)
        else:
            columns = _table(cm.sample_times, list(cm.observables),
                             np.stack([p.norm2 for p in coupled_paths]),
                             np.stack([_path_obs(p, cm.observables) for p in coupled_paths]))
        write_table(files[0], meta, columns)
        s["counts"].update(bytes=sum(f.stat().st_size for f in files))

    return {"models": models, "jump_trajs": jump_trajs, "jump_stats": jump_stats,
            "many_trajs": many_trajs, "density_stats": density_stats,
            "coupled_paths": coupled_paths}


def _path_obs(path, observables) -> np.ndarray:
    vals = [np.einsum("ni,ij,nj->n", path.states.conj(), X, path.states).real / path.norm2
            for X in observables.values()]
    return np.stack(vals, axis=1)


def _z_events(counts, expected: float) -> float:
    mean, se = mean_se([float(c) for c in counts])
    return z_score(mean - expected, se)


def trace_checks(res: dict) -> list[tuple[Check, int]]:
    """Checks of the traced pass, each with the number of operations it covers."""
    models = res["models"]
    jm, mm = models["jump-lattice"], models["many-mixing"]
    trajs = res["jump_trajs"]
    names = list(jm.observables)
    # run_ensemble aggregates with exact summation in index order, so its
    # means must equal the same sums over the traced trajectories.
    estim = np.stack([np.stack([t.norm2_series * t.observable_series[n] for n in names], axis=1)
                      for t in trajs])
    ref = np.array([[math.fsum(estim[:, s, o].tolist()) / len(trajs) for o in range(len(names))]
                    for s in range(estim.shape[1])])
    same = bool(np.array_equal(ref, res["jump_stats"].obs_mean))
    z_jump = _z_events([t.count for t in trajs], jm.workload.expected_events)
    z_many = _z_events([t.count for t in res["many_trajs"]], mm.workload.expected_events)
    dstats = res["density_stats"]
    z_trace = float(np.max(np.abs(dstats.weight_mean - 1.0) / dstats.weight_se))
    norm_dev = max(float(np.max(np.abs(p.norm2 - 1.0))) for p in res["coupled_paths"])
    n_many = len(res["many_trajs"])
    return [
        (Check("ensemble-matches-engine", same, "run_ensemble means equal traced sums"),
         len(trajs) + 1),
        (Check("jump-events", z_jump <= Z_MAX, f"z = {z_jump:.3f}"), len(trajs)),
        (Check("many-events", z_many <= Z_MAX, f"z = {z_many:.3f}"), n_many),
        (Check("density-trace", z_trace <= Z_MAX, f"max |trace - 1|/SE = {z_trace:.3f}"), 1),
        (Check("coupled-norm", norm_dev <= NORM_TOL, f"max |norm^2 - 1| = {norm_dev:.2e}"),
         len(res["coupled_paths"])),
    ]


def _fit(tr: Tracer, name: str) -> tuple[float, float]:
    """Least-squares (slope, intercept) of span microseconds against events."""
    spans = tr.named(name)
    events = np.array([s["counts"]["events"] for s in spans], dtype=float)
    us = 1e6 * np.array([s["end"] - s["start"] for s in spans])
    slope, intercept = np.polyfit(events, us, 1)
    return float(slope), float(intercept)


def layer_metrics(tr: Tracer, overhead_s: float) -> dict[str, dict]:
    def med(name, scale):
        return float(np.median(tr.durations(name))) * scale

    def pct(name, q, scale):
        return float(np.percentile(tr.durations(name), q)) * scale

    def mean_count(name, key):
        return float(np.mean([s["counts"][key] for s in tr.named(name)]))

    def per_count(name, key, scale):
        (s,) = tr.named(name)
        return (s["end"] - s["start"]) / s["counts"][key] * scale

    jumps_slope, jumps_icpt = _fit(tr, "jumps.evolve_jump")
    many_slope, many_icpt = _fit(tr, "manybody.evolve_density")
    (dens,) = tr.named("diffusion.density_via_run_ensemble")
    (ens,) = tr.named("ensemble.run_ensemble.jump")
    coupled = tr.named("diffusion.evolve_coupled_sse")
    (rec,) = tr.named("records.write")
    values = {
        "rng.stream_us": (med("rng.stream", 1e6), "us"),
        "meter.build_ms": (med("meter.build", 1e3), "ms"),
        "jumps.config_ms": (med("jumps.config", 1e3), "ms"),
        "jumps.traj_ms.p50": (pct("jumps.evolve_jump", 50, 1e3), "ms"),
        "jumps.traj_ms.p99": (pct("jumps.evolve_jump", 99, 1e3), "ms"),
        "jumps.events_per_traj": (mean_count("jumps.evolve_jump", "events"), "count"),
        "jumps.us_per_event": (jumps_slope, "us"),
        "jumps.us_fixed_per_traj": (jumps_icpt, "us"),
        "manybody.config_ms": (med("manybody.config", 1e3), "ms"),
        "manybody.free_step_us": (med("manybody.free_step", 1e6), "us"),
        "manybody.traj_ms.p50": (pct("manybody.evolve_density", 50, 1e3), "ms"),
        "manybody.traj_ms.p99": (pct("manybody.evolve_density", 99, 1e3), "ms"),
        "manybody.events_per_traj": (mean_count("manybody.evolve_density", "events"), "count"),
        "manybody.us_per_event": (many_slope, "us"),
        "manybody.us_fixed_per_traj": (many_icpt, "us"),
        "diffusion.config_ms": (med("diffusion.config", 1e3), "ms"),
        "diffusion.density_ns_per_path_step": (
            per_count("diffusion.density_via_run_ensemble", "path_steps", 1e9), "ns"),
        "diffusion.coupled_us_per_step": (
            float(np.median([(s["end"] - s["start"]) / s["counts"]["path_steps"]
                             for s in coupled])) * 1e6, "us"),
        "diffusion.coupled_path_ms.p99": (pct("diffusion.evolve_coupled_sse", 99, 1e3), "ms"),
        "ensemble.run_ensemble_traj_per_s": (
            dens["counts"]["paths"] / (dens["end"] - dens["start"]), "1/s"),
        "ensemble.overhead_ms": (
            1e3 * ((ens["end"] - ens["start"]) - float(np.sum(tr.durations("jumps.evolve_jump")))),
            "ms"),
        "ensemble.rk4_step_us": (per_count("ensemble.rk4_solve", "steps", 1e6), "us"),
        "records.write_ms": (1e3 * (rec["end"] - rec["start"]), "ms"),
        "records.bytes": (float(rec["counts"]["bytes"]), "bytes"),
        "trace.overhead_ms": (1e3 * overhead_s, "ms"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def span_cost_s() -> float:
    """Wall time of one empty span on a fresh tracer."""
    tr = Tracer()
    t0 = time.perf_counter()
    for _ in range(SPAN_COST_REPEATS):
        with tr.span("empty"):
            pass
    return (time.perf_counter() - t0) / SPAN_COST_REPEATS


def run_trace(primary: Workload, seed: int, seconds: float, workdir: Path, trace_file: Path,
              sizes: dict[str, int] | None = None) -> dict:
    """Untraced pass, traced pass, checks and per-layer metrics."""
    sizes = trace_sizes(seconds) if sizes is None else sizes
    workdir.mkdir(parents=True, exist_ok=True)
    drive(NullTracer(), primary, seed, MIN_SIZES, workdir)  # warm-up: first-call costs
    t0 = time.perf_counter()
    drive(NullTracer(), primary, seed, sizes, workdir)
    untraced = time.perf_counter() - t0
    tr = Tracer()
    t0 = time.perf_counter()
    res = drive(tr, primary, seed, sizes, workdir)
    traced = time.perf_counter() - t0
    checks = trace_checks(res)
    metrics = layer_metrics(tr, traced - untraced)
    tr.dump(trace_file, {"workload": primary.name, "seed": seed, "sizes": sizes,
                         "traced_s": traced, "untraced_s": untraced})
    attempted = sum(ops for _, ops in checks)
    failed = sum(ops for c, ops in checks if not c.passed)
    return {
        "workload": primary.name,
        "seed": seed,
        "sizes": sizes,
        "traced_s": traced,
        "untraced_s": untraced,
        "spans": len(tr.spans),
        # The pass difference is dominated by the machine's speed swings;
        # spans times the cost of an empty span bounds the recording cost.
        "span_cost_us": 1e6 * span_cost_s(),
        "trace_file": str(trace_file),
        "checks": [c.__dict__ for c, _ in checks],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
