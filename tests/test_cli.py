import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qtraj import acceptance
from qtraj.cli import main
from qtraj.ensemble import _DIFFUSION_CHUNK

SRC = Path(__file__).resolve().parents[1] / "src"
COUPLED_TRAJ = _DIFFUSION_CHUNK + 88  # two chunks, the second one partial


def write_spec(path: Path, **fields) -> Path:
    path.write_text(json.dumps(fields))
    return path


def run_module(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qtraj", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return False
    return all(filecmp.cmp(a / n, b / n, shallow=False) for n in names)


class TestSelftest:
    def test_summary_written_for_numpy_bool(self, tmp_path, monkeypatch):
        # criteria often return numpy.bool_, which json cannot serialize
        monkeypatch.setattr(
            acceptance, "CRITERIA", [(1, "numpy verdict", lambda: (np.bool_(True), "ok"))]
        )
        assert main(["selftest", "--only", "1", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "acceptance_summary.json").read_text())
        assert summary["all_passed"] is True
        assert summary["criteria"][0]["passed"] is True


class TestModuleEntryPoint:
    def test_bad_spec_exits_2(self, tmp_path):
        spec = write_spec(tmp_path / "bad.json", experiment="diffuse", equation="bogus")
        proc = run_module(["diffuse", "--spec", str(spec), "--out", str(tmp_path / "o")], tmp_path)
        assert proc.returncode == 2
        assert "equation must be one of" in proc.stderr

    def test_small_run_exits_0(self, tmp_path):
        spec = write_spec(tmp_path / "ok.json", experiment="diffuse", T=0.1, n_samples=2, n_traj=4)
        proc = run_module(["diffuse", "--spec", str(spec), "--out", str(tmp_path / "o")], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "o" / "timeseries.tsv").is_file()


class TestCoupledDiffuse:
    @pytest.fixture
    def spec(self, tmp_path):
        return write_spec(
            tmp_path / "coupled.json", experiment="diffuse", equation="coupled",
            T=0.2, n_samples=4, n_traj=COUPLED_TRAJ, observables=["R", "H"], seed=5,
        )

    def run(self, spec, out, *extra):
        return main(["diffuse", "--spec", str(spec), "--out", str(out), *extra])

    def test_bytes_independent_of_threads(self, spec, tmp_path):
        assert self.run(spec, tmp_path / "t1", "--threads", "1") == 0
        assert self.run(spec, tmp_path / "t2", "--threads", "2") == 0
        assert same_files(tmp_path / "t1", tmp_path / "t2")

    def test_same_seed_rerun_identical(self, spec, tmp_path):
        assert self.run(spec, tmp_path / "a") == 0
        assert self.run(spec, tmp_path / "b") == 0
        assert same_files(tmp_path / "a", tmp_path / "b")

    def test_single_trajectory_rejected(self, spec, tmp_path, capsys):
        assert self.run(spec, tmp_path / "one", "--traj", "1") == 2
        assert "n_traj must be >= 2" in capsys.readouterr().err


class TestParticleCap:
    @pytest.mark.parametrize("experiment", ["many", "diffuse", "master"])
    def test_too_many_particles_exits_4(self, tmp_path, capsys, experiment):
        spec = write_spec(tmp_path / "m5.json", experiment=experiment, overrides={"M": 5})
        assert main([experiment, "--spec", str(spec), "--out", str(tmp_path / "o")]) == 4
        assert "at most 4 particles supported, got M=5" in capsys.readouterr().err

    def test_zero_particles_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "m0.json", experiment="many", overrides={"M": 0})
        assert main(["many", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert "M >= 1 required" in capsys.readouterr().err
