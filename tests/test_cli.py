import filecmp
import json
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from qtraj import acceptance
from qtraj.cli import (
    EXPERIMENTS,
    RunSpec,
    _check_fields_read,
    _resolved_for_hash,
    main,
    spec_from_dict,
)
from qtraj.ensemble import _DIFFUSION_CHUNK
from qtraj.records import spec_hash

SRC = Path(__file__).resolve().parents[1] / "src"
COUPLED_TRAJ = _DIFFUSION_CHUNK + 88  # two chunks, the second one partial


def write_spec(path: Path, **fields) -> Path:
    path.write_text(json.dumps(fields))
    return path


def module_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_module(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "qtraj", *args],
        cwd=cwd, env=module_env(), capture_output=True, text=True, timeout=120,
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

    def test_closed_stdout_exits_with_verdict(self, tmp_path):
        # `qtraj selftest | head -1`: the reader is gone before the table prints
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qtraj", "selftest", "--only", "1,2",
                 "--out", str(tmp_path)],
                cwd=tmp_path, env=module_env(), stdout=write_end, stderr=subprocess.PIPE,
                text=True, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads((tmp_path / "acceptance_summary.json").read_text())["all_passed"]
        table = (tmp_path / "acceptance_table.txt").read_text()
        assert table.endswith("2/2 criteria passed\n")


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


# Hashes of the default specifications, as written by the spec layer that
# preceded the RunSpec schema; a change here changes every manifest.
DEFAULT_SPEC_HASHES = {
    "kick": "e8abb8584e94be92",
    "jump": "428f3e6e97a1112a",
    "many": "44e678cf26c95fef",
    "diffuse": "cad78483e924013d",
    "master": "8fc260e1028d3aeb",
    "bridge": "73af967892263cf5",
}

EVERY_FIELD = {
    "experiment": "many",
    "preset": "lattice-particle",
    "equation": "linear",
    "overrides": {
        "d": 3, "M": 2, "kappa": 0.4, "nu": 2.5, "gamma": 0.8, "hbar": 1.5,
        "pointer_points": 512, "pointer_phase_slope": 0.1,
        "interaction": "nearest-neighbor", "interaction_strength": 0.3,
    },
    "T": 0.5,
    "dt": 0.01,
    "n_samples": 5,
    "mode": "linear",
    "n_traj": 7,
    "seed": 3,
    "threads": 2,
    "observables": ["R", "projector:2", {"name": "X", "matrix": [[0, [0, 1]], [[0, -1], 0]]}],
    "nus": [10.0, 20.0],
    "initial_state": [1, [0, 1], 0],
    "kick_lambdas": [0.1, -0.2],
    "out": "somewhere",
}


class TestRunSpec:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_default_round_trip(self, experiment):
        spec = spec_from_dict({"experiment": experiment})
        assert spec_from_dict(asdict(spec)) == spec

    def test_every_field_round_trip(self):
        assert set(EVERY_FIELD) == {f.name for f in fields(RunSpec)}
        spec = spec_from_dict(EVERY_FIELD)
        assert asdict(spec) == EVERY_FIELD
        assert spec_from_dict(asdict(spec)) == spec

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_default_spec_hash_pinned(self, experiment):
        spec = spec_from_dict({"experiment": experiment})
        assert spec_hash(_resolved_for_hash(spec)) == DEFAULT_SPEC_HASHES[experiment]

    def test_experiment_dependent_defaults(self):
        assert spec_from_dict({"experiment": "many"}).preset == "two-atoms"
        assert spec_from_dict({"experiment": "master"}).equation == "jump-averaged"
        assert spec_from_dict({"experiment": "diffuse"}).equation == "linear"

    def test_flags_replace_spec_values(self, tmp_path):
        spec = write_spec(tmp_path / "s.json", experiment="kick", seed=1, threads=1)
        out = tmp_path / "o"
        assert main(["kick", "--spec", str(spec), "--seed", "9", "--threads", "3",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 9
        assert "threads" not in manifest["resolved"]


MALFORMED = [
    pytest.param("jump", {"n_traj": "abc"}, "invalid n_traj", id="n_traj-string"),
    pytest.param("jump", {"T": None}, "invalid T", id="T-null"),
    pytest.param("jump", {"overrides": {"nu": "x"}}, "invalid overrides.nu", id="nu-string"),
    pytest.param("jump", {"overrides": [["nu", 1.0]]}, "invalid overrides", id="overrides-array"),
    pytest.param("jump", {"observables": 5}, "invalid observables", id="observables-number"),
    pytest.param("jump", {"observables": "R"}, "invalid observables", id="observables-string"),
    pytest.param("bridge", {"nus": "123"}, "invalid nus", id="nus-string"),
    pytest.param("kick", {"kick_lambdas": "1"}, "invalid kick_lambdas", id="kick_lambdas-string"),
    pytest.param("jump", {"initial_state": "basis:x"}, "invalid initial_state", id="basis-x"),
    pytest.param("jump", {"observables": ["projector:x"]}, "invalid observables",
                 id="projector-x"),
    pytest.param("jump", {"observables": [{"name": "X", "matrix": [[1, 0], [0]]}]},
                 "invalid observables", id="ragged-matrix"),
    pytest.param("jump", {"overrides": {"d": 3}},
                 "preset 'two-level' has d=2; it cannot take d=3", id="d-two-level"),
    pytest.param("many", {"overrides": {"d": 4}},
                 "preset 'two-atoms' has d=2; it cannot take d=4", id="d-two-atoms"),
]


class TestExitCodes:
    @pytest.mark.parametrize("command, spec_fields, message", MALFORMED)
    def test_malformed_spec_exits_2(self, tmp_path, capsys, command, spec_fields, message):
        spec = write_spec(tmp_path / "bad.json", experiment=command, **spec_fields)
        assert main([command, "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("only, message", [
        ("x", "invalid --only"),
        ("12", "no acceptance criterion numbered 12"),
        ("1,12", "no acceptance criterion numbered 12"),
    ])
    def test_unknown_criterion_exits_2(self, tmp_path, capsys, only, message):
        assert main(["selftest", "--only", only, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "acceptance_summary.json").exists()

    def test_kick_outside_grid_prints_plain_floats(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "k.json", experiment="kick", kick_lambdas=[100])
        assert main(["kick", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "error: lambda=100.0 outside pointer grid range [-6.3, 6.3]\n"

    def test_blow_up_exits_3(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "b.json", experiment="diffuse", overrides={"gamma": 30},
                          dt=0.01, n_traj=4)
        assert main(["diffuse", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: squared norm ") and "exceeded" in err

    @pytest.mark.parametrize("equation, T, what", [
        pytest.param("linear", 50.0, "squared norm", id="linear"),
        pytest.param("density", 200.0, "density trace", id="density"),
    ])
    def test_non_finite_blow_up_exits_3(self, tmp_path, capsys, equation, T, what):
        # the paths overflow to nan before the only record time, where a
        # comparison with the limit alone would pass them
        spec = write_spec(tmp_path / "nan.json", experiment="diffuse", equation=equation,
                          overrides={"gamma": 40.0}, dt=0.25, T=T, n_samples=1, n_traj=2)
        assert main(["diffuse", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == (
            f"error: {what} exceeded 1e+06 at t={T} (seed=0, path index=0); "
            "reduce dt, or rerun that index alone to reproduce\n"
        )


def load_workloads():
    """The benchmark's workload table, loaded from perfbench/workloads.py."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(module_spec)
    sys.modules[module_spec.name] = module  # dataclasses resolve names through it
    module_spec.loader.exec_module(module)
    return module


class TestUnreadFields:
    @pytest.mark.parametrize("command, spec_fields, names", [
        pytest.param("kick", {"equation": "bogus"}, "['equation']", id="kick-equation"),
        pytest.param("kick", {"observables": ["bogus"], "equation": "bogus", "mode": "linear"},
                     "['equation', 'mode', 'observables']", id="kick-three"),
        pytest.param("bridge", {"initial_state": "basis:1"}, "['initial_state']",
                     id="bridge-initial-state"),
        pytest.param("master", {"n_traj": 5}, "['n_traj']", id="master-n_traj"),
        pytest.param("diffuse", {"mode": "linear"}, "['mode']", id="diffuse-mode"),
        pytest.param("jump", {"dt": 0.01, "nus": [1.0, 2.0]}, "['dt', 'nus']", id="jump-dt-nus"),
    ])
    def test_non_default_unread_field_exits_2(self, tmp_path, capsys, command, spec_fields,
                                              names):
        spec = write_spec(tmp_path / "s.json", experiment=command, **spec_fields)
        out = tmp_path / "o"
        assert main([command, "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {command} runs do not read {names}; omit these fields\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, spec_fields, keys", [
        pytest.param("kick", {"overrides": {"M": 3, "nu": 7.0, "gamma": 2.0}},
                     "['M', 'gamma', 'nu']", id="kick-M-nu-gamma"),
        pytest.param("jump", {"overrides": {"M": 2, "nu": 3.0}}, "['M']", id="jump-M"),
        pytest.param("many", {"overrides": {"gamma": 2.0}}, "['gamma']", id="many-gamma"),
        pytest.param("diffuse", {"overrides": {"nu": 5.0, "interaction": "nearest-neighbor"}},
                     "['interaction', 'nu']", id="diffuse-nu-interaction"),
        pytest.param("bridge", {"overrides": {"M": 2, "interaction_strength": 0.1}},
                     "['M', 'interaction_strength']", id="bridge-M-strength"),
        # the state equations run one particle whatever M says
        pytest.param("diffuse", {"equation": "coupled", "overrides": {"M": 3}, "T": 0.1,
                                 "n_traj": 4}, "['M']", id="diffuse-coupled-M"),
        pytest.param("diffuse", {"overrides": {"M": 2}}, "['M']", id="diffuse-linear-M"),
        pytest.param("master", {"equation": "diffusive", "T": 0.1, "overrides": {
            "nu": 50.0, "interaction": "nearest-neighbor", "interaction_strength": 0.2}},
                     "['interaction', 'interaction_strength', 'nu']",
                     id="master-diffusive-nu-interaction"),
        pytest.param("master", {"overrides": {"gamma": 7.0}, "T": 0.1}, "['gamma']",
                     id="master-jump-gamma"),
    ])
    def test_unread_override_key_exits_2(self, tmp_path, capsys, command, spec_fields, keys):
        spec = write_spec(tmp_path / "s.json", experiment=command, **spec_fields)
        out = tmp_path / "o"
        assert main([command, "--spec", str(spec), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {command} runs do not read overrides {keys}; omit these keys\n"
        assert not out.exists()

    def test_pointer_override_keys_read_by_kick(self, tmp_path):
        spec = write_spec(tmp_path / "s.json", experiment="kick", overrides={
            "d": 2, "kappa": 0.5, "pointer_points": 512, "pointer_phase_slope": 0.1})
        assert main(["kick", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 0

    def test_default_values_of_unread_fields_accepted(self, tmp_path):
        spec = write_spec(tmp_path / "s.json", experiment="kick", T=1, mode="normalized",
                          equation="linear", observables=["R"], threads=2)
        assert main(["kick", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 0

    def test_benchmark_specs_read_every_field(self):
        workloads = load_workloads()
        for w in workloads.WORKLOADS.values():
            for raw in (workloads.run_spec(w, 1, 8), workloads.oracle_spec(w, 1)):
                _check_fields_read(spec_from_dict(raw))
