"""The column-wise trajectories.jsonl encoder: equal to the reference record
helpers line for line, and a non-finite value ends the run with exit 3."""

import numpy as np
import pytest
from test_engine import TIMES, jump_setup, mixing_setup

from qtraj import NumericError, cli, evolve_density, evolve_jump, run_trajectories
from qtraj.records import (
    density_trajectory_record,
    jump_trajectory_record,
    write_jsonl,
    write_trajectories,
)

# An observable name that JSON must escape, sorting after "R" and "H".
ESCAPED = 'x "quoted" \\ é\t'
META = {"seed": 41, "spec_hash": "0123456789abcdef"}


def run_case(engine, mode, sampled, n=30):
    """Event columns of n trajectories (two chunks), and the reference
    records of the same trajectories built one by one."""
    times = TIMES if sampled else None
    if engine == "jump":
        cfg, eta, obs = jump_setup(mode)
        obs = {**obs, ESCAPED: obs["R"]}
        cols = run_trajectories(cfg, eta, 1.0, n, obs, times, n_workers=2)
        refs = [jump_trajectory_record(evolve_jump(cfg, eta, 1.0, i, times, obs), i, cfg.seed)
                for i in range(n)]
    else:
        cfg, rho0, obs = mixing_setup()
        obs = {**obs, ESCAPED: obs["R"]}
        cols = run_trajectories(cfg, rho0, 1.0, n, obs, times, n_workers=2, equation=mode)
        refs = [density_trajectory_record(evolve_density(cfg, rho0, 1.0, mode, i, times, obs),
                                          i, cfg.seed)
                for i in range(n)]
    return cfg, cols, refs


@pytest.mark.parametrize("sampled", [True, False], ids=["sampled", "unsampled"])
@pytest.mark.parametrize("mode", ["normalized", "linear"])
@pytest.mark.parametrize("engine", ["jump", "mixing"])
def test_encoder_equals_reference_helpers(tmp_path, engine, mode, sampled):
    cfg, cols, refs = run_case(engine, mode, sampled)
    assert cols.counts.sum() > 0
    write_trajectories(tmp_path / "columns.jsonl", META, cols, cfg.seed)
    write_jsonl(tmp_path / "reference.jsonl", META, refs)
    got = (tmp_path / "columns.jsonl").read_text().splitlines()
    want = (tmp_path / "reference.jsonl").read_text().splitlines()
    assert len(got) == 31 and got == want
    assert (tmp_path / "columns.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes()


def poison(cols, column, row):
    """Put a NaN into the first entry of the given row of a column."""
    a = getattr(cols, column)
    if column == "times":
        a[cols.offsets[row]] = np.nan
    elif column == "values":
        a[0, row, 2] = np.nan
    else:
        a[row] = np.nan


@pytest.mark.parametrize("engine, column, key", [
    ("jump", "times", "events"),
    ("jump", "final", "final_norm2"),
    ("jump", "log_weight", "log_weight"),
    ("jump", "weights", "norm2"),
    ("jump", "values", "observables"),
    ("mixing", "entropy", "entropy"),
    ("mixing", "min_eig", "min_eig"),
    ("mixing", "weights", "trace"),
])
def test_non_finite_value_names_seed_and_index(tmp_path, engine, column, key):
    cfg, cols, _ = run_case(engine, "linear", True, n=8)
    row = int(np.flatnonzero(cols.counts)[2])
    poison(cols, column, row)
    path = tmp_path / "t.jsonl"
    with pytest.raises(NumericError) as err:
        write_trajectories(path, META, cols, cfg.seed)
    assert str(err.value) == (
        f"non-finite {key} value in the record of trajectory index={row} "
        f"(seed={cfg.seed}); rerun that index alone to reproduce"
    )
    assert not path.exists()


@pytest.mark.parametrize("experiment, column", [("jump", "values"), ("many", "entropy")])
def test_cli_non_finite_record_exits_3(tmp_path, monkeypatch, capsys, experiment, column):
    real = cli.run_trajectories

    def poisoned(*args, **kwargs):
        cols = real(*args, **kwargs)
        poison(cols, column, 3)
        return cols

    monkeypatch.setattr(cli, "run_trajectories", poisoned)
    assert cli.main([experiment, "--traj", "8", "--out", str(tmp_path)]) == 3
    key = {"values": "observables", "entropy": "entropy"}[column]
    assert capsys.readouterr().err == (
        f"error: non-finite {key} value in the record of trajectory index=3 (seed=0); "
        "rerun that index alone to reproduce\n"
    )
