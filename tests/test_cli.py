import filecmp
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from qtraj import (
    DiffusionConfig,
    StateVector,
    acceptance,
    get_preset,
    jump_to_diffusion_bridge,
    preset_meter,
)
from qtraj.cli import (
    EXPERIMENTS,
    RunSpec,
    _check_fields_read,
    _resolved_for_hash,
    main,
    spec_from_dict,
)
from qtraj.ensemble import _CHUNK
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
        # One 64 MB row fits in 100 MB, a hundred do not; the sample times
        # (16 MB) must not be built before that is known.
        for module in ("ensemble", "cli"):
            monkeypatch.setattr(f"qtraj.{module}.physical_memory", lambda: 100_000_000)
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
            "error: n_traj must be at most 1 for 64000032-byte result rows, got 100\n")

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
