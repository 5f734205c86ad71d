"""Serialization of runs: delimited tables, line-delimited trajectory
records, and stable JSON.

Numbers are written with 17 significant digits (round-trip exact for IEEE
doubles) and all dictionary output is key-sorted, so a rerun with the same
configuration and seed reproduces every output byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import NumericError


def fmt(x) -> str:
    """Decimal representation with 17 significant digits."""
    return f"{float(x):.17g}"


def json_dumps_stable(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def spec_hash(resolved: dict) -> str:
    """Short content hash of a resolved run specification."""
    return hashlib.sha256(json_dumps_stable(resolved).encode()).hexdigest()[:16]


def write_table(path, meta: dict, columns: list[tuple[str, np.ndarray]]) -> None:
    """Write named columns as a tab-separated table with '#' header lines,
    creating the directory that holds it."""
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
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


def write_jsonl(path, meta: dict, records: list[dict]) -> None:
    """Write a meta line followed by one JSON record per line."""
    lines = [json_dumps_stable({"type": "meta", **meta})]
    for rec in records:
        lines.append(json_dumps_stable(rec))
    Path(path).write_text("\n".join(lines) + "\n")


def _rows(a: np.ndarray) -> list[str]:
    """The rows of a 2-D float array as JSON arrays, each float written by
    float.__repr__ as json.dumps writes it; equal rows are rendered once."""
    seen: dict[bytes, str] = {}
    return [seen.get(key) or seen.setdefault(key, "[" + ",".join(map(float.__repr__, row)) + "]")
            for key, row in zip(map(np.ndarray.tobytes, a), a.tolist())]


def _objects(fields: dict, n: int):
    """n JSON objects of the fields' rendered values, keys sorted and escaped."""
    keys = sorted(fields)
    heads = [json.dumps(key) + ":" for key in keys]
    return ("{" + ",".join(map(str.__add__, heads, row)) + "}"
            for _, *row in zip(range(n), *(fields[key] for key in keys)))


def write_trajectories(path, meta: dict, cols, seed: int) -> None:
    """Write the trajectories.jsonl of a jump or mixing run from its event
    columns: line r equals json_dumps_stable of jump_trajectory_record
    (density_trajectory_record) of row r's trajectory, with each pointer
    reading, the sample times and each distinct weight row rendered once.
    A non-finite value raises NumericError naming the seed and the
    trajectory index before anything is written, or the directory that
    holds path is created."""
    n, seed = len(cols.indices), int(seed)
    density = cols.entropy is not None
    numeric = {"final_trace" if density else "final_norm2": cols.final,
               "log_weight": cols.log_weight, "trace" if density else "norm2": cols.weights}
    numeric.update({"entropy": cols.entropy, "min_eig": cols.min_eig} if density else {})
    shared = {"events": cols.times, "sample_times": cols.sample_times, "observables": cols.values}
    for key, a in {**shared, **numeric}.items():
        if not np.isfinite(a).all():
            bad = np.nonzero(~np.isfinite(a))[int(key == "observables")]
            rows = {"events": np.searchsorted(cols.offsets, bad, side="right") - 1,
                    "sample_times": [0]}.get(key, bad)
            raise NumericError(
                f"non-finite {key} value in the record of trajectory index="
                f"{cols.indices[min(rows)]} (seed={seed}); rerun that index alone to reproduce"
            )
    grid = list(map(float.__repr__, cols.grid.tolist()))
    events = [f"[{t},{grid[k]}]"
              for t, k in zip(map(float.__repr__, cols.times.tolist()), cols.outcomes.tolist())]
    off = cols.offsets.tolist()
    fields = {key: _rows(a) if a.ndim == 2 else map(float.__repr__, a.tolist())
              for key, a in numeric.items()}
    fields.update(events=("[" + ",".join(events[a:b]) + "]" for a, b in zip(off, off[1:])),
                  index=map(str, cols.indices.tolist()), seed=repeat(str(seed)),
                  type=repeat('"trajectory"'),
                  sample_times=repeat(_rows(cols.sample_times[None])[0]),
                  observables=_objects({name: _rows(cols.values[o])
                                        for o, name in enumerate(cols.names)}, n))
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(json_dumps_stable({"type": "meta", **meta}) + "\n")
        f.writelines(map("{}\n".format, _objects(fields, n)))


def _record(traj, index: int, seed: int, final: dict, series: dict) -> dict:
    """A trajectory record with the given final value and sampled series."""
    return {"type": "trajectory", "index": int(index), "seed": int(seed),
            "events": [[t, lam] for t, lam in traj.events], "log_weight": traj.log_weight,
            **final, **{key: values.tolist() for key, values in series.items()},
            "sample_times": traj.sample_times.tolist(),
            "observables": {name: values.tolist()
                            for name, values in sorted(traj.observable_series.items())}}


def jump_trajectory_record(traj, index: int, seed: int) -> dict:
    """Record for one jump trajectory: events, final squared norm and the
    sampled series."""
    return _record(traj, index, seed, {"final_norm2": traj.state.norm2()},
                   {"norm2": traj.norm2_series})


def density_trajectory_record(traj, index: int, seed: int) -> dict:
    """Record for one density trajectory, adding trace, entropy and minimum
    eigenvalue per sample time."""
    return _record(traj, index, seed, {"final_trace": traj.rho.trace()},
                   {"trace": traj.trace_series, "entropy": traj.entropy_series,
                    "min_eig": traj.min_eig_series})
