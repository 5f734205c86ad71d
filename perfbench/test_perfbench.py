"""Self-tests of the benchmark: spec generation, metric names, the oracle
gate, output digests, a tiny run of every workload, and the traced records
against the CLI's files.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from e2e import run_e2e  # noqa: E402
from gate import oracle_checks, read_table  # noqa: E402
from qtraj import cli  # noqa: E402
from tracing import MIN_SIZES, NullTracer, drive, run_trace  # noqa: E402
from workloads import WORKLOADS, oracle_spec, run_spec, simulation_seed  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# Trajectory counts small enough for a quick run, large enough for 5-SE gates.
SMOKE_TRAJ = {"jump-lattice": 200, "many-mixing": 16, "diffuse-density": 64,
              "diffuse-coupled": 40}


def test_spec_generation_is_deterministic():
    for w in WORKLOADS.values():
        assert run_spec(w, 7, 100) == run_spec(w, 7, 100)
        assert oracle_spec(w, 7) == oracle_spec(w, 7)
        assert simulation_seed(w.name, 7) != simulation_seed(w.name, 8)
        run, oracle = run_spec(w, 7, 100), oracle_spec(w, 7)
        for key in ("preset", "overrides", "T", "n_samples", "observables"):
            assert run[key] == oracle[key]


def test_benchmark_json_names_every_workload_and_metric():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in BENCH["end_to_end"]] == [
        "traj_per_s", "setup_s", "oracle_s", "peak_rss_mb"]
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in BENCH[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_passes_oracle_gate(name, tmp_path):
    report = run_e2e(WORKLOADS[name], 3, 1, tmp_path, n_traj=SMOKE_TRAJ[name], oracle_repeats=1)
    assert report["failed"] == 0, report["checks"]
    assert all(c["passed"] for c in report["checks"])
    assert {c["name"] for c in report["checks"]} >= {"exit", "sample-times"}
    assert set(report["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    for metric in BENCH["end_to_end"]:
        assert report["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert report["metrics"][metric["name"]]["value"] > 0


def test_same_seed_gives_same_digest(tmp_path):
    w = WORKLOADS["jump-lattice"]
    first = run_e2e(w, 5, 1, tmp_path / "a", n_traj=50, oracle_repeats=1)
    again = run_e2e(w, 5, 1, tmp_path / "b", n_traj=50, oracle_repeats=1)
    other = run_e2e(w, 6, 1, tmp_path / "c", n_traj=50, oracle_repeats=1)
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]


def test_gate_rejects_a_shifted_mean(tmp_path):
    w = WORKLOADS["diffuse-coupled"]
    run_e2e(w, 3, 1, tmp_path, n_traj=40, oracle_repeats=1)
    series = read_table(tmp_path / "run" / "timeseries.tsv")
    master = read_table(tmp_path / "oracle-0" / "master.tsv")
    assert all(c.passed for c in oracle_checks(series, master))
    series["R_mean"] = series["R_mean"] + 6.0 * series["R_se"]
    failed = [c.name for c in oracle_checks(series, master) if not c.passed]
    assert failed == ["oracle:R"]


def test_trace_reports_every_per_layer_metric(tmp_path):
    report = run_trace(WORKLOADS["many-mixing"], 3, 1, tmp_path / "work",
                       tmp_path / "spans.json", sizes=MIN_SIZES)
    assert report["failed"] == 0, report["checks"]
    assert set(report["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for metric in BENCH["per_layer"]:
        assert report["metrics"][metric["name"]]["unit"] == metric["unit"]
    spans = json.loads((tmp_path / "spans.json").read_text())
    assert spans["totals"]["jumps.evolve_jump"]["events"] > 0
    assert spans["totals"]["records.write"]["bytes"] > 0


# Trajectory counts the traced drive uses at MIN_SIZES, per workload.
TRACE_TRAJ = {"jump-lattice": "jump_traj", "many-mixing": "many_traj",
              "diffuse-density": "density_paths", "diffuse-coupled": "coupled_paths"}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_records_match_cli_output(name, tmp_path):
    w = WORKLOADS[name]
    spec = run_spec(w, 3, MIN_SIZES[TRACE_TRAJ[name]])
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert cli.main([spec["experiment"], "--spec", str(spec_path), "--out",
                     str(tmp_path / "cli")]) == 0
    drive(NullTracer(), w, 3, MIN_SIZES, tmp_path / "trace")
    written = sorted(p.name for p in (tmp_path / "trace" / "records").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "cli").iterdir()
                             if p.name != "manifest.json")

    def body(path):
        return [line for line in path.read_text().splitlines()
                if "spec_hash" not in line]

    for fname in written:
        cli_file, traced = tmp_path / "cli" / fname, tmp_path / "trace" / "records" / fname
        assert body(traced) == body(cli_file), fname
        assert traced.stat().st_size == cli_file.stat().st_size, fname


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "jump-lattice", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
