import filecmp
import json
import multiprocessing
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from qtraj import (
    DiffusionConfig,
    NumericError,
    StateVector,
    ValidationError,
    acceptance,
    ensemble,
    get_preset,
    jump_to_diffusion_bridge,
    preset_meter,
    records,
)
from qtraj.cli import (
    EXPERIMENTS,
    RunSpec,
    _check_fields_read,
    _resolved_for_hash,
    build_parser,
    main,
    spec_from_dict,
)
from qtraj.ensemble import _CHUNK
from qtraj.jumps import _event_charge
from qtraj.records import spec_hash

SRC = Path(__file__).resolve().parents[1] / "src"
COUPLED_TRAJ = _CHUNK + 88  # two chunks, the second one partial


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


def chunk_sizes(monkeypatch) -> list[int]:
    """The rows of each chunk that the next run draws, in order, recorded
    in the parent as each chunk is handed to its worker."""
    sizes, run = [], ensemble._map_chunks
    monkeypatch.setattr(ensemble, "_map_chunks", lambda worker, chunks, n: run(
        worker, (sizes.append(len(idx)) or idx for idx in chunks), n))
    return sizes


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

    @pytest.mark.parametrize("ids", [[1, 1], [2, 1, 2], [], [1, 3]])
    def test_bad_criterion_list_rejected_before_any_runs(self, monkeypatch, ids):
        ran = []
        monkeypatch.setattr(acceptance, "CRITERIA", [
            (c, f"criterion {c}", lambda c=c: (ran.append(c) or True, "ok")) for c in (1, 2)
        ])
        with pytest.raises(ValidationError):
            acceptance.run_criteria(ids)
        assert ran == []
        assert [r.cid for r in acceptance.run_criteria([2, 1])] == [2, 1]
        assert ran == [2, 1]


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

    def test_no_experiment_imports_scipy(self, tmp_path):
        # Every experiment, at desk size, in one fresh interpreter: the
        # engines need numpy alone, so scipy's ~45 MB stay out of every run.
        runs = [("kick", {}), ("jump", {"T": 0.2, "n_traj": 2}),
                ("many", {"T": 0.2, "n_traj": 2}), ("master", {"T": 0.1}),
                ("master", {"equation": "diffusive", "T": 0.1}), ("bridge", {"nus": [10, 100]})]
        runs += [("diffuse", {"equation": eq, "T": 0.01, "n_traj": 2}) for eq in
                 ("linear", "coupled", "density")]
        args = []
        for k, (experiment, fields) in enumerate(runs):
            spec = write_spec(tmp_path / f"{k}.json", experiment=experiment, **fields)
            args += [experiment, str(spec), str(tmp_path / f"out{k}")]
        script = ("import sys\nfrom qtraj.cli import main\n"
                  "a = sys.argv[1:]\n"
                  "codes = [main([a[k], '--spec', a[k + 1], '--out', a[k + 2]])"
                  " for k in range(0, len(a), 3)]\n"
                  "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        proc = subprocess.run([sys.executable, "-c", script, *args], cwd=tmp_path,
                              env=module_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{[0] * len(runs)} []"


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


class TestManifestDiagnostics:
    @pytest.mark.parametrize("equation", ["jump-averaged", "diffusive"])
    def test_master_records_rk4_margin(self, tmp_path, capsys, equation):
        spec = write_spec(tmp_path / "s.json", experiment="master", equation=equation, T=0.1)
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert main(["master", "--spec", str(spec), "--out", str(out)]) == 0
        assert same_files(*outs)
        diag = json.loads((outs[0] / "manifest.json").read_text())["diagnostics"]
        assert sorted(diag) == ["rk4_bound", "rk4_dt_norm"]
        assert diag["rk4_bound"] == 0.1
        assert 0 < diag["rk4_dt_norm"] <= 0.1
        # 100 times the step crosses the bound, and the gate reports the same norm.
        big = write_spec(tmp_path / "big.json", experiment="master", equation=equation,
                         T=1.0, dt=0.1)
        assert main(["master", "--spec", str(big), "--out", str(tmp_path / "c")]) == 2
        assert f"dt * ||generator|| = {100 * diag['rk4_dt_norm']:.3e}" in capsys.readouterr().err

    def test_other_experiments_write_no_diagnostics(self, tmp_path):
        assert main(["kick", "--out", str(tmp_path)]) == 0
        assert "diagnostics" not in json.loads((tmp_path / "manifest.json").read_text())


class TestParticleCap:
    @pytest.mark.parametrize("experiment", ["kick", "many", "diffuse", "master"])
    def test_too_many_particles_exits_4(self, tmp_path, capsys, experiment):
        spec = write_spec(tmp_path / "m5.json", experiment=experiment, overrides={"M": 5})
        assert main([experiment, "--spec", str(spec), "--out", str(tmp_path / "o")]) == 4
        assert "at most 4 particles supported, got M=5" in capsys.readouterr().err

    def test_zero_particles_exits_2(self, tmp_path, capsys):
        spec = write_spec(tmp_path / "m0.json", experiment="many", overrides={"M": 0})
        assert main(["many", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert "M must be >= 1, got 0" in capsys.readouterr().err


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

    def test_override_spellings_of_one_value_give_one_manifest(self, tmp_path):
        manifests = []
        for nu in (5, 5.0):
            spec = write_spec(tmp_path / "s.json", experiment="kick", overrides={"kappa": nu})
            out = tmp_path / str(nu)
            assert main(["kick", "--spec", str(spec), "--out", str(out)]) == 0
            manifests.append((out / "manifest.json").read_text())
        assert manifests[0] == manifests[1]
        assert json.loads(manifests[0])["resolved"]["overrides"] == {"kappa": 5.0}

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

    def test_a_call_reads_no_flag_of_the_call_before(self, tmp_path):
        # The parser is built once per process, and a call's flags are its own.
        assert build_parser() is build_parser()
        assert main(["jump", "--seed", "7", "--traj", "3", "--out", str(tmp_path / "a")]) == 0
        fields = {"experiment": "jump", "n_traj": 2}
        spec = write_spec(tmp_path / "s.json", **fields, out=str(tmp_path / "b"))
        assert main(["jump", "--spec", str(spec)]) == 0
        manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
        resolved = _resolved_for_hash(spec_from_dict(fields))
        assert manifest["seed"] == 0
        assert manifest["resolved"] == json.loads(json.dumps(resolved))
        assert manifest["resolved"]["n_traj"] == 2


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
    pytest.param("bridge", {"nus": [1000, 100]}, "nu list must be increasing",
                 id="nus-decreasing"),
    pytest.param("kick", {"initial_state": "basis:2"},
                 "initial_state basis index must lie in 0..1", id="basis-out-of-range"),
    pytest.param("kick", {"initial_state": [[0.6, 0.0, 1.0], 0.8]}, "[re, im] pairs",
                 id="amplitude-triple"),
    pytest.param("kick", {"initial_state": [1, 0, 0]}, "initial_state must have 2 amplitudes",
                 id="amplitude-count"),
    pytest.param("master", {"observables": ["projector:2"]},
                 "projector index must lie in 0..1", id="projector-out-of-range"),
    pytest.param("master", {"observables": [{"name": "X", "matrix": np.eye(3).tolist()}]},
                 "inline observable must act on d=2 or d^M=2", id="inline-size"),
    pytest.param("master", {"overrides": {"M": 2},
                            "observables": [{"name": "X", "matrix": np.triu(np.ones((4, 4)))
                                             .tolist()}]},
                 "not Hermitian", id="inline-d^M-not-hermitian"),
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

    @pytest.mark.parametrize("command, text, message", [
        pytest.param("kick", None, "specification file not found: ", id="missing-file"),
        pytest.param("kick", '{"experiment": "kick",\n  "T": }',
                     "at line 2, column 8: Expecting value", id="malformed-json"),
        pytest.param("kick", '{"experiment": "kick", "initial_state": "bogus"}',
                     "initial_state must be 'uniform', 'basis:k' or an amplitude list, "
                     "got 'bogus'", id="initial-state-name"),
        pytest.param("jump", '{"experiment": "jump", "observables": ["Q"]}',
                     "observable 'Q' not recognized", id="observable-name"),
        pytest.param("jump", '{"experiment": "jump", "observables": [5]}',
                     "bad observable entry: 5", id="observable-number"),
    ])
    def test_spec_file_error_exits_2(self, tmp_path, capsys, command, text, message):
        spec = tmp_path / "s.json"
        if text is not None:
            spec.write_text(text)
        assert main([command, "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err

    @pytest.mark.parametrize("only, message", [
        ("x", "invalid --only"),
        ("12", "no acceptance criterion numbered 12"),
        ("1,12", "no acceptance criterion numbered 12"),
        ("1,1", "acceptance criterion 1 given twice"),
        ("2,1,2", "acceptance criterion 2 given twice"),
        (",", "no acceptance criterion numbers given"),
        ("", "no acceptance criterion numbers given"),
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

    @pytest.mark.parametrize("command, spec_fields, code, message", [
        pytest.param("jump", {"observables": ["Q"]}, 2, "error: observable 'Q' not recognized",
                     id="jump-unknown-observable"),
        pytest.param("kick", {"kick_lambdas": [100]}, 2, "error: lambda=100.0 outside",
                     id="kick-outside-grid"),
        pytest.param("kick", {"kick_lambdas": [5.9]}, 3,
                     "error: zero-likelihood outcome lambda=5.9", id="kick-zero-likelihood"),
    ])
    def test_rejected_run_leaves_no_output(self, tmp_path, capsys, command, spec_fields, code,
                                           message):
        # the runner fails before its first write, so not even the directory is made
        spec = write_spec(tmp_path / "s.json", experiment=command, **spec_fields)
        assert main([command, "--spec", str(spec), "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, spec_fields, value", [
        pytest.param("jump", {"T": -1}, "-1.0", id="jump-T-negative"),
        pytest.param("jump", {"T": 0}, "0.0", id="jump-T-zero"),
        pytest.param("many", {"T": 0}, "0.0", id="many-T-zero"),
        pytest.param("diffuse", {"T": -1}, "-1.0", id="diffuse-T-negative"),
        pytest.param("master", {"T": 0}, "0.0", id="master-T-zero"),
        pytest.param("diffuse", {"dt": 0}, "0.0", id="diffuse-dt"),
        pytest.param("master", {"dt": 0}, "dt=0.0", id="master-dt"),
        pytest.param("jump", {"mode": "bogus"}, "'bogus'", id="jump-mode"),
        pytest.param("many", {"mode": "bogus"}, "'bogus'", id="many-mode"),
        pytest.param("jump", {"overrides": {"nu": -1}}, "-1.0", id="jump-nu"),
        pytest.param("many", {"overrides": {"nu": -1}}, "-1.0", id="many-nu"),
        pytest.param("master", {"overrides": {"nu": -1}}, "-1.0", id="master-nu"),
        pytest.param("jump", {"overrides": {"hbar": 0}}, "0.0", id="jump-hbar"),
        pytest.param("bridge", {"overrides": {"hbar": 0}}, "0.0", id="bridge-hbar"),
    ])
    def test_engine_range_check_exits_2(self, tmp_path, capsys, command, spec_fields, value):
        # The engines own these checks; the spec layer does not repeat them.
        spec = write_spec(tmp_path / "s.json", experiment=command, **spec_fields)
        assert main([command, "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and value in err, err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["jump", "many", "diffuse"])
    def test_single_trajectory_rejected(self, tmp_path, capsys, command):
        # A standard error needs two trajectories.
        assert main([command, "--traj", "1", "--out", str(tmp_path / "one")]) == 2
        assert capsys.readouterr().err == "error: n_traj must be >= 2, got 1\n"

    @pytest.mark.parametrize("command, n_traj", [
        pytest.param("jump", 10 ** 18, id="jump"),
        pytest.param("diffuse", 10 ** 18, id="diffuse"),
        # Addressable by numpy, but far beyond any machine's memory.
        pytest.param("jump", 10 ** 16, id="jump-beyond-memory"),
    ])
    def test_unaddressable_n_traj_exits_2(self, tmp_path, capsys, monkeypatch, command, n_traj):
        # Rejected before any result column is allocated or any chunk runs.
        def no_chunks(*_):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr("qtraj.ensemble._map_chunks", no_chunks)
        spec = tmp_path / "big.json"
        spec.write_text(f'{{"experiment": "{command}", "n_traj": {float(n_traj)!r}}}')
        assert main([command, "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n_traj must be at most "), err
        assert err.endswith(f", got {n_traj}\n")

    @pytest.mark.parametrize("command", ["jump", "many", "diffuse", "master"])
    def test_n_samples_beyond_memory_exits_2(self, tmp_path, capsys, monkeypatch, command):
        # Rejected before any sample array exists: building one would raise
        # here, not allocate 8 GB.
        def no_samples(*_):
            raise AssertionError("sample times were built")

        monkeypatch.setattr("qtraj.cli._sample_times", no_samples)
        spec = tmp_path / "samples.json"
        spec.write_text(f'{{"experiment": "{command}", "n_samples": 1e9}}')
        assert main([command, "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n_samples must be at most "), err
        assert err.endswith(", got 1000000000\n") and err.count("\n") == 1

    def test_result_rows_beyond_memory_exit_2_before_samples(self, tmp_path, capsys,
                                                             monkeypatch):
        # A row keeps 64 MB of series, so six fit in 400 MB and a hundred do
        # not; the sample times (16 MB) must not be built before that is
        # known.
        monkeypatch.setattr("qtraj.errors.physical_memory", lambda: 400_000_000)
        spec = tmp_path / "rows.json"
        spec.write_text('{"experiment": "many", "n_samples": 2e6}')
        tracemalloc.start()
        try:
            code = main(["many", "--spec", str(spec), "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 4_000_000
        assert capsys.readouterr().err == (
            "error: n_traj must be at most 6 for 64000032-byte result rows, got 100\n")

    @pytest.mark.parametrize("command, spec_fields, message", [
        # The CLI keeps no events, only 352 bytes of row and samples; a row
        # in flight is charged 320 bytes for each of 4 sigma above nu T
        # events, and 1280 for its samples.
        pytest.param("jump", {"overrides": {"nu": 1e9}, "n_traj": 2},
                     "rows of a chunk beside the kept columns must be at most 0 for "
                     "320040478435-byte rows beyond 10944 fixed bytes, got 1",
                     id="jump-rows-of-events"),
        pytest.param("many", {"overrides": {"nu": 1e300}, "n_traj": 2},
                     "rows of a chunk beside the kept columns must be at most 0 for "
                     "6.4e+302-byte rows beyond 10944 fixed bytes, got 1",
                     id="many-rows-of-events"),
        # 284 090 kept rows fit at nu T = 1e5, as at any rate.
        pytest.param("jump", {"overrides": {"nu": 1e5}, "n_traj": 10 ** 6},
                     "n_traj must be at most 284090 for 352-byte result rows, got 1000000",
                     id="jump-n_traj"),
        # The kept columns of 200 000 rows fit, with no room for a chunk of
        # one row (32.4 MB of events in flight, 101264.9 events) beside them.
        pytest.param("jump", {"overrides": {"nu": 1e5}, "n_traj": 200_000},
                     "rows of a chunk beside the kept columns must be at most 0 for "
                     "32406052-byte rows beyond 70410240 fixed bytes, got 1",
                     id="jump-chunk"),
    ])
    def test_events_beyond_memory_exit_2_before_any_draw(self, tmp_path, capsys, monkeypatch,
                                                         command, spec_fields, message):
        def no_chunks(*_):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr("qtraj.ensemble._map_chunks", no_chunks)
        monkeypatch.setattr("qtraj.errors.physical_memory", lambda: 100_000_000)
        spec = write_spec(tmp_path / "s.json", experiment=command, **spec_fields)
        assert main([command, "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_high_rate_rows_pass_the_gate_with_no_events_kept(self, tmp_path, monkeypatch):
        # At nu = 1e5 a row that the CLI keeps is 352 bytes of series, and
        # no events, so 100 rows pass a 100 MB gate; they run in chunks of
        # the 3 rows whose 32.4 MB of events in flight fit beside them, and
        # in-process, since a pool's window of three such chunks does not
        # fit.  The chunks are recorded, not drawn.
        class Undrawn(Exception):
            pass

        def record(worker, chunks, n_workers):
            seen.append((n_workers, [len(idx) for idx in chunks]))
            raise Undrawn

        seen = []
        monkeypatch.setattr("qtraj.ensemble._map_chunks", record)
        monkeypatch.setattr("qtraj.errors.physical_memory", lambda: 100_000_000)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        spec = write_spec(tmp_path / "s.json", experiment="jump", overrides={"nu": 1e5},
                          n_traj=100)
        with pytest.raises(Undrawn):
            main(["jump", "--spec", str(spec), "--out", str(tmp_path / "o")])
        assert seen == [(1, [3] * 33 + [1])]

    @pytest.mark.parametrize("overrides, fields, message", [
        # the step kernel's D^2 x D^2 matrices
        pytest.param({"d": 8, "M": 3}, {"n_traj": 2, "n_samples": 1, "T": 0.001},
                     "rows of a chunk beside the kept columns must be at most 0 for "
                     "54525952-byte rows beyond 4398046511232 fixed bytes, got 2", id="kernel"),
        # the records of one batch of 512 paths
        pytest.param({"d": 8, "M": 2}, {"n_traj": 512, "n_samples": 1000},
                     "rows of a chunk beside the kept columns must be at most 242 for "
                     "66322432-byte rows beyond 1090142208 fixed bytes, got 512",
                     id="records"),
    ])
    def test_density_beyond_memory_exits_2(self, tmp_path, capsys, monkeypatch, overrides,
                                           fields, message):
        # Rejected before the kernel is built or a record allocated, against
        # a fixed 16 GiB bound; if the check let the run through, the kernel
        # build would raise here instead of allocating.
        def no_kernel(*_):
            raise AssertionError("the step kernel was built")

        monkeypatch.setattr("qtraj.errors.physical_memory", lambda: 2 ** 34)
        monkeypatch.setattr("qtraj.diffusion._density_kernel", no_kernel)
        spec = write_spec(tmp_path / "big.json", experiment="diffuse", equation="density",
                          preset="lattice-particle", overrides=overrides, **fields)
        tracemalloc.start()
        try:
            code = main(["diffuse", "--spec", str(spec), "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 32_000_000, peak
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("fields, memory, builders, message", [
        # the pointer grid
        pytest.param({"experiment": "jump", "overrides": {"pointer_points": 10 ** 6}}, 2 ** 25,
                     ["qtraj.meter.trapezoid_weights"],
                     "n_points must be at most 381300 for 88-byte pointer points, got 1000000",
                     id="pointer"),
        # the preset's d x d operators
        pytest.param({"experiment": "jump", "preset": "lattice-particle",
                      "overrides": {"d": 1024}}, 2 ** 25, ["qtraj.presets._hopping_matrix"],
                     "d^2 must be at most 262144 for 128-byte operator entries, got 1048576",
                     id="lattice"),
        # the d^M product space, before the mixing config lifts H
        pytest.param({"experiment": "many", "preset": "lattice-particle",
                      "overrides": {"d": 8, "M": 3}}, 2 ** 24, ["qtraj.manybody.slot_sum"],
                     "d^(2M) must be at most 34952 for 480-byte copy-basis entries, got 262144",
                     id="mixing"),
        # and before the CLI builds a density run's initial state and lifts
        # its observables
        pytest.param({"experiment": "diffuse", "equation": "density",
                      "preset": "lattice-particle", "overrides": {"d": 8, "M": 3}}, 2 ** 24,
                     ["qtraj.cli.kron_power", "qtraj.cli.slot_sum"],
                     "d^(2M) must be at most 174762 for 96-byte product-space operator "
                     "entries, got 262144", id="density"),
    ])
    def test_model_sizes_beyond_memory_exit_2_before_any_build(self, tmp_path, capsys,
                                                               monkeypatch, fields, memory,
                                                               builders, message):
        def no_build(*_, **__):
            raise AssertionError("an array of that size was built")

        monkeypatch.setattr("qtraj.errors.physical_memory", lambda: memory)
        for builder in builders:
            monkeypatch.setattr(builder, no_build)
        spec = write_spec(tmp_path / "s.json", **fields)
        assert main([fields["experiment"], "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("equation", ["linear", "coupled"])
    def test_state_batch_beyond_memory_exits_2_before_any_draw(self, tmp_path, capsys,
                                                               monkeypatch, equation):
        # The kept rows fit in 128 MiB (16 MB); a batch of 512 paths'
        # records and the copies made of them (275 MB) does not.
        def no_draws(*_):
            raise AssertionError("noise was drawn")

        monkeypatch.setattr("qtraj.errors.physical_memory", lambda: 2 ** 27)
        monkeypatch.setattr("qtraj.diffusion._noise_blocks", no_draws)
        spec = write_spec(tmp_path / "s.json", experiment="diffuse", equation=equation,
                          preset="lattice-particle", overrides={"d": 16}, n_traj=512,
                          n_samples=1000)
        tracemalloc.start()
        try:
            code = main(["diffuse", "--spec", str(spec), "--out", str(tmp_path / "o")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 4_000_000, peak
        assert capsys.readouterr().err == (
            "error: rows of a chunk beside the kept columns must be at most 219 for "
            "536576-byte rows beyond 16400384 fixed bytes, got 512\n")

    @pytest.mark.parametrize("command", ["jump", "many"])
    def test_event_samples_are_charged(self, tmp_path, capsys, monkeypatch, command):
        # A batch's timeline, records and columns cost about 80 to 125 bytes
        # per row and sample, and 570 to 970 per sample whatever its rows,
        # beside the series that the 16 rows keep.  At 4 MiB, 2800 samples
        # leave no room for a chunk of one row, and nothing is drawn; 930
        # samples at 3 MiB and 2800 at 8 MiB run in chunks of fewer rows,
        # within 1.1 times the bound, on one worker, in-process, where the
        # peak is traced.  A first run, in-process too, loads what a process
        # loads once, and no charge covers (numpy.ma, at the first np.unique
        # call, is 1 MB).
        assert main([command, "--traj", "2", "--threads", "1",
                     "--out", str(tmp_path / "first")]) == 0
        for n_samples, bound, want in [(2800, 2 ** 22, 2), (930, 3 << 20, 0),
                                       (2800, 2 ** 23, 0)]:
            monkeypatch.setattr("qtraj.errors.physical_memory", lambda: bound)
            sizes = chunk_sizes(monkeypatch)
            spec = write_spec(tmp_path / "s.json", experiment=command, n_traj=16,
                              n_samples=n_samples)
            tracemalloc.start()
            try:
                code = main([command, "--spec", str(spec), "--threads", "1",
                             "--out", str(tmp_path / "o")])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            err = capsys.readouterr().err
            assert code == want and peak < 1.1 * bound, (n_samples, code, peak, err)
            if want:
                assert sizes == [] and err.startswith(
                    "error: rows of a chunk beside the kept columns must be at most 0 "), err
            else:
                assert sum(sizes) == 16 and max(sizes) < 16 and err == "", sizes

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
            f"error: {what} exceeded 1e+06 at t={T} (seed=0, trajectory index=0); "
            "reduce dt, or rerun that index alone to reproduce\n"
        )


class TestStreamedRuns:
    """An event run is drawn, written and aggregated one chunk at a time."""

    @pytest.mark.parametrize("mode", ["normalized", "linear"])
    @pytest.mark.parametrize("command", ["jump", "many"])
    def test_thread_counts_give_the_same_bytes(self, tmp_path, monkeypatch, command, mode):
        # A guard: the bytes were independent of the thread count before
        # runs streamed, too.  Chunks of 8 rows make 30 trajectories four
        # chunks at every thread count, and three CPUs run windows of three.
        monkeypatch.setattr("qtraj.ensemble._CHUNK", 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        spec = write_spec(tmp_path / "s.json", experiment=command, mode=mode, n_traj=30,
                          n_samples=3)
        for threads in (1, 2, 3):
            assert main([command, "--spec", str(spec), "--threads", str(threads),
                         "--out", str(tmp_path / str(threads))]) == 0
        assert same_files(tmp_path / "1", tmp_path / "2")
        assert same_files(tmp_path / "1", tmp_path / "3")

    def test_memory_grows_by_the_kept_series_alone(self, tmp_path):
        # Four times the rows may add only what each added row keeps for the
        # statistics, its index, weights and values (8 + 2 * 10 * 8 bytes),
        # and 10%.  A run that held every row's events, records and final
        # state to its end added about 2.5 times the kept series.  One
        # worker, in-process, where the whole run is traced.
        def peak(n_traj):
            spec = write_spec(tmp_path / "s.json", experiment="jump", n_traj=n_traj)
            tracemalloc.start()
            try:
                assert main(["jump", "--spec", str(spec), "--threads", "1",
                             "--out", str(tmp_path / "o")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        n = 1000
        small, large = peak(n), peak(4 * n)
        kept = 3 * n * (8 + 2 * 10 * 8)
        assert large - small <= kept + 0.1 * small, (small, large, kept)

    def test_high_rate_rows_run_in_chunks_that_fit(self, tmp_path, monkeypatch):
        # At nu = 1e5 a row is charged 0.7 MB for its events in flight, and
        # the CLI keeps none of them.  Four such rows do not fit in 2 MB at
        # once, but chunks of two beside the kept columns of four do, on one
        # worker, in-process, where the peak is traced; and they write the
        # bytes of an unbounded run on every usable CPU.
        spec = write_spec(tmp_path / "s.json", experiment="jump", overrides={"nu": 1e5},
                          T=0.02, n_traj=4)
        assert main(["jump", "--spec", str(spec), "--out", str(tmp_path / "free")]) == 0
        bound = 2_000_000
        assert 4 * _event_charge(1e5, 0.02, 10)[0] > bound
        monkeypatch.setattr("qtraj.errors.physical_memory", lambda: bound)
        sizes = chunk_sizes(monkeypatch)
        tracemalloc.start()
        try:
            assert main(["jump", "--spec", str(spec), "--threads", "1",
                         "--out", str(tmp_path / "bounded")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sizes == [2, 2] and peak <= 1.1 * bound, (sizes, peak / bound)
        assert same_files(tmp_path / "free", tmp_path / "bounded")

    def test_concurrent_state_batches_are_charged_together(self, tmp_path, monkeypatch):
        # One batch of 512 d = 16 paths of 200 records is charged 65 MB and
        # fits in 75 MB beside the 7 MB of series that the run keeps; a pool
        # of two workers, holding two such chunks ahead of the one the
        # parent consumes, does not, so the run takes one worker, starts no
        # process, and stays within the bound, traced in-process.  Two
        # threads running two batches at once peaked at 1.63 times 70 MB.
        bound = 75_000_000
        monkeypatch.setattr("qtraj.errors.physical_memory", lambda: bound)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        workers, run = [], ensemble._map_chunks
        monkeypatch.setattr(ensemble, "_map_chunks",
                            lambda worker, chunks, n: workers.append(n) or run(worker, chunks, n))
        spec = write_spec(tmp_path / "s.json", experiment="diffuse", equation="coupled",
                          preset="lattice-particle", overrides={"d": 16}, n_traj=1024,
                          n_samples=200)
        tracemalloc.start()
        try:
            assert main(["diffuse", "--spec", str(spec), "--threads", "2",
                         "--out", str(tmp_path / "o")]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert workers == [1] and peak <= 1.1 * bound, (workers, peak / bound)


def fail_at(monkeypatch, rows, fail):
    """Make the jump batches of the next runs call fail(row) for each of
    rows they hold, in whichever process runs them."""
    real = ensemble._jump_batch

    def batch(*args, **kwargs):
        cols = real(*args, **kwargs)
        for row in rows:
            if row in cols.indices:
                fail(row)
        return cols

    monkeypatch.setattr(ensemble, "_jump_batch", batch)


def count_starts(monkeypatch, most: int) -> list:
    """The processes the next runs start, recorded as each starts; a start
    beyond the first `most` raises instead."""
    started, start = [], multiprocessing.process.BaseProcess.start

    def counted(process):
        if len(started) == most:
            raise AssertionError(f"more than {most} processes started")
        started.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
    return started


@pytest.mark.skipif(not hasattr(os, "fork"), reason="worker processes are forked")
class TestWorkerProcesses:
    """Runs on two forked workers (two usable CPUs), which the parent joins
    on success and on failure, with the outputs and errors of one."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        yield
        assert multiprocessing.active_children() == []

    def test_the_lowest_failing_index_is_reported_at_any_worker_count(self, tmp_path,
                                                                      monkeypatch, capsys):
        # Rows 1 and 6 fail in chunks 0 and 1; chunk 0 fails last, but its
        # error is the one raised, as in-process.
        def fail(row):
            time.sleep(0.2 * (row == 1))
            raise NumericError(f"trajectory index={row} failed")

        fail_at(monkeypatch, (1, 6), fail)
        monkeypatch.setattr("qtraj.ensemble._CHUNK", 4)
        started = count_starts(monkeypatch, 2)
        ends = []
        for threads in ("1", "2"):
            code = main(["jump", "--traj", "8", "--threads", threads,
                         "--out", str(tmp_path / threads)])
            ends.append((code, capsys.readouterr().err, len(started)))
        assert ends == [(3, "error: trajectory index=1 failed\n", 0),
                        (3, "error: trajectory index=1 failed\n", 2)]
        assert list(tmp_path.iterdir()) == []

    def test_a_worker_that_dies_ends_the_run_and_leaves_nothing(self, tmp_path, monkeypatch,
                                                                capsys):
        parent = os.getpid()

        def die(row):
            assert os.getpid() != parent, "the chunk ran in-process"
            os._exit(9)

        fail_at(monkeypatch, (6,), die)
        out = tmp_path / "out" / "run"
        assert main(["jump", "--traj", "8", "--threads", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: a worker process ended abruptly")
        assert list(tmp_path.iterdir()) == []

    def test_a_failure_in_the_parent_joins_the_workers(self, tmp_path, monkeypatch):
        # The writer fails at the second chunk, in the parent, while the
        # workers draw the chunks ahead; they are joined before main ends,
        # though the error's traceback still holds the run's frames.
        written, write = [], records._write

        def fail_second(f, chunk):
            written.append(chunk)
            if len(written) == 2:
                raise OSError("no space left")
            return write(f, chunk)

        monkeypatch.setattr(records, "_write", fail_second)
        monkeypatch.setattr("qtraj.ensemble._CHUNK", 2)
        with pytest.raises(OSError, match="no space left") as failed:
            main(["jump", "--traj", "8", "--out", str(tmp_path / "o")])
        assert multiprocessing.active_children() == [] and list(tmp_path.iterdir()) == []
        assert failed.tb is not None

    def test_a_run_joins_its_workers(self, tmp_path, monkeypatch):
        started = count_starts(monkeypatch, 2)
        assert main(["jump", "--traj", "8", "--out", str(tmp_path / "o")]) == 0
        assert len(started) == 2 and not any(p.is_alive() for p in started)

    def test_a_huge_thread_count_starts_one_worker_per_usable_cpu(self, tmp_path, monkeypatch):
        started = count_starts(monkeypatch, 2)
        assert main(["jump", "--traj", "100", "--threads", str(10 ** 6),
                     "--out", str(tmp_path / "o")]) == 0
        assert len(started) == 2

    def test_a_one_chunk_run_and_master_start_no_process(self, tmp_path, monkeypatch):
        started = count_starts(monkeypatch, 0)
        assert main(["diffuse", "--traj", "512", "--out", str(tmp_path / "d")]) == 0
        assert main(["master", "--out", str(tmp_path / "m")]) == 0
        assert started == []


# Spec fields holding the placeholder NONFINITE, the experiment and the name
# the error must give.
NON_FINITE = [
    pytest.param("jump", {"T": "NONFINITE"}, "T", id="T"),
    pytest.param("bridge", {"nus": [100, "NONFINITE"]}, "nus[1]", id="nus"),
    pytest.param("kick", {"kick_lambdas": ["NONFINITE"]}, "kick_lambdas[0]", id="kick_lambdas"),
    pytest.param("jump", {"observables": [{"name": "X", "matrix": [["NONFINITE", 0], [0, 1]]}]},
                 "observables[0].matrix[0][0]", id="inline-observable"),
    pytest.param("diffuse", {"overrides": {"gamma": "NONFINITE"}}, "overrides.gamma", id="gamma"),
    pytest.param("jump", {"overrides": {"nu": "NONFINITE"}}, "overrides.nu", id="nu"),
    pytest.param("jump", {"overrides": {"hbar": "NONFINITE"}}, "overrides.hbar", id="hbar"),
    pytest.param("jump", {"overrides": {"kappa": "NONFINITE"}}, "overrides.kappa", id="kappa"),
    pytest.param("many", {"overrides": {"interaction": "nearest-neighbor",
                                        "interaction_strength": "NONFINITE"}},
                 "overrides.interaction_strength", id="interaction_strength"),
]


class TestNonFiniteSpec:
    @pytest.mark.parametrize("literal", ["1e400", "-1e400", "NaN"])
    @pytest.mark.parametrize("command, spec_fields, name", NON_FINITE)
    def test_non_finite_number_exits_2(self, tmp_path, capsys, command, spec_fields, name,
                                       literal):
        self.check(tmp_path, capsys, command, spec_fields, name, literal)

    @pytest.mark.parametrize("command, spec_fields, name", [
        pytest.param("jump", {"T": "NONFINITE"}, "T", id="T"),
        pytest.param("jump", {"overrides": {"kappa": "NONFINITE"}}, "overrides.kappa",
                     id="kappa"),
    ])
    def test_non_finite_string_exits_2(self, tmp_path, capsys, command, spec_fields, name):
        # numbers given as strings are converted, and checked after conversion
        self.check(tmp_path, capsys, command, spec_fields, name, '"inf"')

    def check(self, tmp_path, capsys, command, spec_fields, name, literal):
        spec = tmp_path / "s.json"
        text = json.dumps({"experiment": command, **spec_fields})
        spec.write_text(text.replace('"NONFINITE"', literal))
        assert main([command, "--spec", str(spec), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be finite, got "), err
        assert not (tmp_path / "o").exists()


def read_table(path: Path) -> dict[str, np.ndarray]:
    """The columns of a written table, by name."""
    lines = path.read_text().splitlines()
    names = next(x for x in lines if x.startswith("# columns: "))[len("# columns: "):]
    rows = [[float(v) for v in x.split("\t")] for x in lines if not x.startswith("#")]
    return dict(zip(names.split("\t"), np.array(rows).T))


class TestSpecForms:
    """Spec forms the default runs do not take, each run through the CLI and
    checked against the engine API."""

    def run(self, tmp_path, command, **spec_fields):
        spec = write_spec(tmp_path / "s.json", experiment=command, **spec_fields)
        assert main([command, "--spec", str(spec), "--out", str(tmp_path / "o")]) == 0
        return tmp_path / "o"

    def test_bridge_outputs_match_engine(self, tmp_path):
        out = self.run(tmp_path, "bridge", nus=[50.0, 400.0])
        preset = get_preset("two-level")
        base = DiffusionConfig(H=preset.H, R=preset.R, gamma=preset.gamma,
                               pointer=preset_meter(preset).pointer, dt=1e-3)
        report = jump_to_diffusion_bridge(base, [50.0, 400.0])
        table = read_table(out / "bridge.tsv")
        for name, want in [("nu", report.nus), ("kappa", report.kappas),
                           ("error", report.errors)]:
            assert np.array_equal(table[name], want), name
        summary = json.loads((out / "bridge_summary.json").read_text())
        assert summary == {"monotone_decreasing": report.monotone_decreasing,
                           "final_error": report.final_error}

    @pytest.mark.parametrize("state, amps", [
        pytest.param("basis:1", [0.0, 1.0], id="basis"),
        pytest.param([[0.6, 0.0], [0.0, 0.8]], [0.6, 0.8j], id="re-im-pairs"),
        pytest.param([3, [0, -4]], [0.6, -0.8j], id="unnormalized"),
    ])
    def test_initial_state_forms(self, tmp_path, state, amps):
        lams = [-0.4, 0.7]
        out = self.run(tmp_path, "kick", initial_state=state, kick_lambdas=lams)
        meter = preset_meter(get_preset("two-level"))
        eta = StateVector(np.array(amps, dtype=complex))
        density = read_table(out / "kick_density.tsv")["density"]
        assert np.max(np.abs(density - meter.output_density(eta))) <= 1e-12
        table = read_table(out / "kick_posteriors.tsv")
        for j, lam in enumerate(lams):
            post = meter.posterior_state(eta, lam).amps
            got = [table[f"re_{i}"][j] + 1j * table[f"im_{i}"][j] for i in range(2)]
            assert np.max(np.abs(np.array(got) - post)) <= 1e-12

    @pytest.mark.parametrize("kappa", [6.0, 40.0])
    def test_kick_where_the_pointer_vanishes(self, tmp_path, kappa):
        # The upper quartile of the bimodal outcome density lies near
        # lambda = kappa, where f0(lambda) is below 1e-12; the posterior there
        # is the R = 1 eigenstate.
        out = self.run(tmp_path, "kick", overrides={"kappa": kappa})
        meter = preset_meter(get_preset("two-level"), kappa=kappa)
        table = read_table(out / "kick_posteriors.tsv")
        lam = table["lambda"][2]
        assert abs(meter.pointer.evaluate(lam)) < 1e-12
        got = [table[f"re_{i}"][2] + 1j * table[f"im_{i}"][2] for i in range(2)]
        assert np.max(np.abs(np.array(got) - [0.0, 1.0])) <= 1e-12

    @pytest.mark.parametrize("M", [1, 2])
    def test_projector_and_inline_observables(self, tmp_path, M):
        # the two-level R is the projector on level 1; one-particle observables,
        # the inline P0 too, are averaged over the particles, and P0_full is
        # that average written out at d^M
        lifted = np.diag([1.0, 0.5, 0.5, 0.0]) if M == 2 else np.diag([1.0, 0.0])
        observables = ["R", "projector:0", "projector:1",
                       {"name": "P0", "matrix": [[1, 0], [0, [0, 0]]]},
                       {"name": "P0_full", "matrix": lifted.tolist()}]
        out = self.run(tmp_path, "master", T=0.2, overrides={"M": M}, initial_state="basis:0",
                       observables=observables)
        table = read_table(out / "master.tsv")
        assert np.array_equal(table["projector:1"], table["R"])
        assert np.array_equal(table["P0"], table["projector:0"])
        assert np.max(np.abs(table["P0_full"] - table["projector:0"])) <= 1e-14
        assert np.max(np.abs(table["projector:0"] + table["projector:1"] - table["trace"])) \
            <= 1e-12
        assert np.ptp(table["projector:0"]) > 0.01


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
        # the bridge compares generators; it steps nothing
        pytest.param("bridge", {"dt": 0.5}, "['dt']", id="bridge-dt"),
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

    @pytest.mark.parametrize("command, spec_fields, message", [
        # master and many at M = 1 drop the pair potential
        pytest.param("master", {"overrides": {"interaction": "nearest-neighbor",
                                              "interaction_strength": 3.0}, "T": 0.1},
                     "master runs with M = 1 have no particle pairs and do not read overrides "
                     "['interaction', 'interaction_strength']", id="master-M1"),
        pytest.param("many", {"preset": "lattice-particle", "T": 0.1, "n_traj": 4,
                              "overrides": {"interaction": "none"}},
                     "many runs with M = 1 have no particle pairs and do not read overrides "
                     "['interaction']", id="many-M1"),
        pytest.param("many", {"overrides": {"interaction_strength": 3.0}, "T": 0.1,
                              "n_traj": 4},
                     "overrides.interaction_strength is read only with interaction "
                     "'nearest-neighbor'", id="many-strength-without-potential"),
    ])
    def test_unread_pair_potential_exits_2(self, tmp_path, capsys, command, spec_fields,
                                           message):
        spec = write_spec(tmp_path / "s.json", experiment=command, **spec_fields)
        out = tmp_path / "o"
        assert main([command, "--spec", str(spec), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}; omit")
        assert not out.exists()

    def test_pair_potential_read_with_pairs(self, tmp_path):
        spec = write_spec(tmp_path / "s.json", experiment="master", T=0.1, overrides={
            "M": 2, "interaction": "nearest-neighbor", "interaction_strength": 3.0})
        assert main(["master", "--spec", str(spec), "--out", str(tmp_path / "o")]) == 0

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
