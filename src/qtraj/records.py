"""Serialization of runs: delimited tables, line-delimited trajectory
records, and stable JSON.

Numbers are written with 17 significant digits (round-trip exact for IEEE
doubles) and all dictionary output is key-sorted, so a rerun with the same
configuration and seed reproduces every output byte for byte.

trajectories.jsonl is written from chunks of event columns, each in two
passes: a scan of every column for non-finite values, which writes
nothing, then blocks of consecutive rows, each rendered and written before
the next.  A block renders at most BLOCK_NUMBERS numbers, or one row, so
the writer holds the text of one block beyond the columns at any one time,
whatever the event and sample counts.  :func:`trajectory_writer` writes a
run chunk by chunk, as its chunks are drawn: each chunk is scanned, then
written block by block, to a temporary name beside the file, which is
renamed to the file once every chunk is written and removed if any step
fails, so a rejected run leaves no partial file, and no directory it made,
behind.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager, suppress
from functools import partial
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import NumericError

# Bound on the numbers one block of trajectories.jsonl rows renders, where
# a row's keys weigh 17 numbers beyond its index, log weight and final
# value (see _blocks).  Traced text costs about 20 bytes a sample number,
# 100 an event and 470 a row's rest, so a block holds about 280 jump-lattice
# rows (about 100 numbers each: 20 events and 10 samples of three series),
# and the writer peaks at about 1.1 MB there.  A row beyond the bound is a
# block of its own.
BLOCK_NUMBERS = 28_000


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
    # Python floats from tolist() format as the numpy scalars would, faster.
    lines.extend("\t".join(map(fmt, row)) for row in zip(*(arr.tolist() for arr in arrays)))
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


def _blocks(cols):
    """Row bounds (a, b) of consecutive blocks covering every row of cols, in
    order, each rendering at most BLOCK_NUMBERS numbers, except that a block
    always holds at least one row.  A row renders two numbers per event,
    its index, log weight and final value, with its keys weighing 17 more,
    and per sample its time, weight, observables and, for densities,
    entropy and minimum eigenvalue."""
    series = 2 + len(cols.names) + 2 * (cols.entropy is not None)
    n, a = len(cols.offsets) - 1, 0
    numbers = 2 * cols.offsets + (20 + series * cols.sample_times.size) * np.arange(n + 1)
    while a < n:
        b = max(a + 1, int(np.searchsorted(numbers, numbers[a] + BLOCK_NUMBERS, "right")) - 1)
        yield a, b
        a = b


def _lines(cols, numeric: dict, grid: list[str], seed: str, a: int, b: int):
    """An iterator over the lines of rows a:b of the trajectories.jsonl of
    cols; the block's strings are freed once it is consumed and dropped."""
    lo, hi = cols.offsets[a], cols.offsets[b]
    events = [f"[{t},{grid[k]}]" for t, k in zip(map(float.__repr__, cols.times[lo:hi].tolist()),
                                                 cols.outcomes[lo:hi].tolist())]
    off = (cols.offsets[a:b + 1] - lo).tolist()
    fields = {key: _rows(v[a:b]) if v.ndim == 2 else map(float.__repr__, v[a:b].tolist())
              for key, v in numeric.items()}
    fields.update(events=("[" + ",".join(events[i:j]) + "]" for i, j in zip(off, off[1:])),
                  index=map(str, cols.indices[a:b].tolist()), seed=repeat(seed),
                  type=repeat('"trajectory"'),
                  sample_times=repeat(_rows(cols.sample_times[None])[0]),
                  observables=_objects({name: _rows(cols.values[o, a:b])
                                        for o, name in enumerate(cols.names)}, b - a))
    return map("{}\n".format, _objects(fields, b - a))


def _non_finite(cols, key: str, a: np.ndarray, seed: int) -> NumericError:
    """The error of a non-finite value in column a of cols, stored under key:
    it names the seed and the first row that holds such a value."""
    bad = np.nonzero(~np.isfinite(a))[int(key == "observables")]
    rows = {"events": np.searchsorted(cols.offsets, bad, side="right") - 1,
            "sample_times": [0]}.get(key, bad)
    return NumericError(f"non-finite {key} value in the record of trajectory index="
                        f"{cols.indices[min(rows)]} (seed={seed}); rerun that index alone to "
                        "reproduce")


def _append(f, seed: int, cols):
    """Scan one chunk's columns for non-finite values, then write its lines
    to f block by block; returns cols."""
    density = cols.entropy is not None
    numeric = {"final_trace" if density else "final_norm2": cols.final,
               "log_weight": cols.log_weight, "trace" if density else "norm2": cols.weights}
    numeric.update({"entropy": cols.entropy, "min_eig": cols.min_eig} if density else {})
    shared = {"events": cols.times, "sample_times": cols.sample_times, "observables": cols.values}
    for key, a in {**shared, **numeric}.items():
        if not np.isfinite(a).all():
            raise _non_finite(cols, key, a, seed)
    grid = list(map(float.__repr__, cols.grid.tolist()))
    for a, b in _blocks(cols):
        f.writelines(_lines(cols, numeric, grid, str(seed), a, b))
    return cols


@contextmanager
def trajectory_writer(path, meta: dict, seed: int):
    """Write the trajectories.jsonl of a jump or mixing run chunk by chunk:
    yields write(cols), which appends the lines of a chunk of event columns
    (the next rows in index order) and returns cols.  Line r of a chunk
    equals json_dumps_stable of jump_trajectory_record
    (density_trajectory_record) of row r's trajectory.  The rows are
    rendered and written block by block (:func:`_blocks`), each pointer
    reading rendered once, and the sample times and each distinct series
    row once per block.

    write scans its chunk first, and a non-finite value raises
    NumericError, naming the seed and the first such row of the chunk,
    before the chunk is written.  The file is written under the temporary
    name path + ".part", in path's directory, and renamed to path when the
    block ends.  If the block raises, the partial
    file is removed, and so is every directory made for it, before the
    error propagates."""
    path = Path(path)
    made = [d for d in (path.parent, *path.parent.parents) if not d.exists()]
    part = path.with_name(path.name + ".part")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(part, "w") as out:
            out.write(json_dumps_stable({"type": "meta", **meta}) + "\n")
            yield partial(_append, out, int(seed))
        part.replace(path)
    except BaseException:
        part.unlink(missing_ok=True)
        with suppress(OSError):  # a directory that holds anything else stays
            for d in filter(Path.exists, made):
                d.rmdir()
        raise


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
