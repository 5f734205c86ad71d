"""Serialization of runs: delimited tables, line-delimited trajectory
records, and stable JSON.

Numbers are written with 17 significant digits (round-trip exact for IEEE
doubles) and all dictionary output is key-sorted, so a rerun with the same
configuration and seed reproduces every output byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


def fmt(x) -> str:
    """Decimal representation with 17 significant digits."""
    return f"{float(x):.17g}"


def json_dumps_stable(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def spec_hash(resolved: dict) -> str:
    """Short content hash of a resolved run specification."""
    return hashlib.sha256(json_dumps_stable(resolved).encode()).hexdigest()[:16]


def write_table(path, meta: dict, columns: list[tuple[str, np.ndarray]]) -> None:
    """Write named columns as a tab-separated table with '#' header lines."""
    lines = []
    for key in sorted(meta):
        lines.append(f"# {key}={meta[key]}")
    names = [name for name, _ in columns]
    lines.append("# columns: " + "\t".join(names))
    arrays = [np.asarray(col, dtype=float) for _, col in columns]
    n = arrays[0].shape[0]
    for arr in arrays:
        if arr.shape[0] != n:
            raise ValueError("all table columns must have equal length")
    for i in range(n):
        lines.append("\t".join(fmt(arr[i]) for arr in arrays))
    Path(path).write_text("\n".join(lines) + "\n")


def write_jsonl(path, meta: dict, records: list[dict]) -> None:
    """Write a meta line followed by one JSON record per line."""
    lines = [json_dumps_stable({"type": "meta", **meta})]
    for rec in records:
        lines.append(json_dumps_stable(rec))
    Path(path).write_text("\n".join(lines) + "\n")


def jump_trajectory_record(traj, index: int, seed: int) -> dict:
    """Record for one jump trajectory: events, final squared norm and any
    sampled observable series."""
    rec = {
        "type": "trajectory",
        "index": int(index),
        "seed": int(seed),
        "events": [[t, lam] for t, lam in traj.events],
        "final_norm2": traj.state.norm2(),
        "log_weight": traj.log_weight,
    }
    if traj.sample_times is not None:
        rec["sample_times"] = traj.sample_times.tolist()
        rec["norm2"] = traj.norm2_series.tolist()
        rec["observables"] = {
            name: series.tolist() for name, series in sorted(traj.observable_series.items())
        }
    return rec


def density_trajectory_record(traj, index: int, seed: int) -> dict:
    """Record for one density trajectory, adding trace, entropy and minimum
    eigenvalue per sample time."""
    rec = {
        "type": "trajectory",
        "index": int(index),
        "seed": int(seed),
        "events": [[t, lam] for t, lam in traj.events],
        "final_trace": traj.rho.trace(),
        "log_weight": traj.log_weight,
    }
    if traj.sample_times is not None:
        rec["sample_times"] = traj.sample_times.tolist()
        rec["trace"] = traj.trace_series.tolist()
        rec["entropy"] = traj.entropy_series.tolist()
        rec["min_eig"] = traj.min_eig_series.tolist()
        rec["observables"] = {
            name: series.tolist() for name, series in sorted(traj.observable_series.items())
        }
    return rec
