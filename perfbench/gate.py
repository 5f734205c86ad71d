"""Oracle gate: check a CLI run's output against ``qtraj master``.

Every ``*_mean`` column of ``timeseries.tsv`` that has a deterministic
counterpart is compared with the master equation at each sample time, to
within ``Z_MAX`` standard errors.  ``weight_mean`` is compared with the
master trace; ``entropy_mean`` has no master counterpart (the master state's
entropy is not the mean of the trajectory entropies) and is skipped.  Extra
checks per workload: mean events per trajectory against nu*T or M*nu*T,
the minimum eigenvalue floor, and the mean trace of the linear density
equation.

Z_MAX is 5 rather than the acceptance suite's 3 so that a correct engine
essentially never fails on an arbitrary workload seed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import Workload

Z_MAX = 5.0
# Absolute slack added to Z_MAX * SE.  Columns whose spread is rounding only
# (weight_mean in normalized mode, the pathwise norm of the coupled SSE) have
# an SE of zero or ~1e-17 and must match the oracle to this tolerance.
EXACT_TOL = 1e-9
MIN_EIG_FLOOR = -1e-10
SKIPPED_COLUMNS = ("entropy_mean",)


@dataclass
class Check:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        self.passed = bool(self.passed)


def read_table(path: Path) -> dict[str, np.ndarray]:
    """Columns of a table written by ``qtraj.records.write_table``."""
    names = None
    rows = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("# columns: "):
            names = line[len("# columns: "):].split("\t")
        elif line and not line.startswith("#"):
            rows.append([float(x) for x in line.split("\t")])
    if names is None:
        raise ValueError(f"{path} has no column header")
    data = np.array(rows, dtype=float).reshape(len(rows), len(names))
    return {name: data[:, j] for j, name in enumerate(names)}


def mean_se(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / max(n - 1, 1)
    return mean, math.sqrt(var / n)


def z_score(dev: float, se: float) -> float:
    """Deviation in standard errors, counting the absolute slack as zero."""
    excess = max(abs(dev) - EXACT_TOL, 0.0)
    if excess == 0.0:
        return 0.0
    return excess / se if se > 0 else math.inf


def oracle_checks(series: dict[str, np.ndarray], master: dict[str, np.ndarray]) -> list[Check]:
    checks = []
    same_times = series["t"].shape == master["t"].shape and np.allclose(
        series["t"], master["t"], rtol=0, atol=1e-12)
    checks.append(Check("sample-times", bool(same_times), "run and oracle sample times agree"))
    if not same_times:
        return checks
    for col in series:
        if not col.endswith("_mean") or col in SKIPPED_COLUMNS:
            continue
        base = col[: -len("_mean")]
        ref = master["trace" if base == "weight" else base]
        se = series[base + "_se"]
        z = max(z_score(m - r, s) for m, r, s in zip(series[col], ref, se))
        checks.append(Check(f"oracle:{base}", z <= Z_MAX, f"max |MC - master|/SE = {z:.3f}"))
    return checks


def event_counts(jsonl: Path) -> list[float]:
    counts = []
    with open(jsonl) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("type") == "trajectory":
                counts.append(float(len(rec["events"])))
    return counts


def run_checks(w: Workload, run_dir: Path, oracle_dir: Path) -> list[Check]:
    """All gate checks of one timed CLI run."""
    series = read_table(run_dir / "timeseries.tsv")
    checks = oracle_checks(series, read_table(oracle_dir / "master.tsv"))
    if w.expected_events is not None:
        mean, se = mean_se(event_counts(run_dir / "trajectories.jsonl"))
        z = z_score(mean - w.expected_events, se)
        checks.append(Check("events", z <= Z_MAX,
                            f"mean events {mean:.4f} vs {w.expected_events}, z = {z:.3f}"))
    if w.check_min_eig:
        low = float(np.min(series["min_eig_min"]))
        checks.append(Check("min-eig", low >= MIN_EIG_FLOOR, f"min eigenvalue {low:.3e}"))
    if w.check_trace:
        z = max(z_score(m - 1.0, s) for m, s in zip(series["weight_mean"], series["weight_se"]))
        checks.append(Check("trace", z <= Z_MAX, f"max |trace - 1|/SE = {z:.3f}"))
    return checks


def digest(directory: Path) -> str:
    """SHA-256 over the names and bytes of every file in a run directory."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(directory).rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
