"""The benchmark driver's aggregation, fed canned result lines of
perfbench/run.py: no workload runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench", ROOT / "bench" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def output(rate: float, rss: float, failed: int = 0, wall: float | None = None,
           factor: float = 0.9) -> str:
    """The standard output of one perfbench/run.py run; the timed call ran
    at wall trajectories/s on the wall clock (rate by default), with the
    probe's speed factor over it."""
    metrics = {"traj_per_s": {"unit": "1/s", "value": rate},
               "peak_rss_mb": {"unit": "MB", "value": rss}}
    report = {"digest": "x", "wall_clock": {"traj_per_s": rate if wall is None else wall,
                                            "setup_s": 0.01, "oracle_s": 0.2},
              "speed_factor": {"setup": 1.0, "call": factor}}
    return "\n".join(json.dumps(line) for line in [
        {"env": {"python": "3.11"}}, {"report": report, "loadavg_end": [0.1]},
        {"correct": failed == 0, "attempted": 5, "failed": failed, "metrics": metrics}])


def runs(values, walls=None) -> list[dict]:
    out = []
    for seed, (rate, rss) in enumerate(values, 1):
        wall = None if walls is None else walls[seed - 1]
        env, report, result = bench.parse_run(output(rate, rss, wall=wall, factor=0.8 + seed / 10))
        assert env == {"python": "3.11"} and report["digest"] == "x"
        out.append({"workload": "jump-lattice", "seed": seed, "result": result, "report": report})
    return out


def test_runs_aggregate_to_medians_quartiles_and_deltas():
    head = runs([(100.0, 50.0), (110.0, 49.0), (90.0, 49.5), (105.0, 48.0)])
    parent = runs([(100.0, 56.0), (100.0, 56.5), (100.0, 55.5), (100.0, 56.0)])
    measured = {"head": {"runs": head, "env": {"python": "3.11"}},
                "parent": {"runs": parent, "env": {"python": "3.11"}, "tier1": {"wall_s": 60.0},
                           "criteria": [{"id": 8, "seconds": 17.0}]}}
    got = json.loads(json.dumps(bench.report(measured, SPEC, {"head": None, "parent": None})))
    rate = got["head"]["workloads"]["jump-lattice"]["metrics"]["traj_per_s"]
    assert rate["values"] == [100.0, 110.0, 90.0, 105.0]
    assert (rate["q1"], rate["median"], rate["q3"]) == (97.5, 102.5, 106.25)
    # 20% spread is within the 25% bound of traj_per_s; 4% is beyond none.
    assert rate["noisy"] is False
    summary = got["parent"]["workloads"]["jump-lattice"]
    assert summary["correct"] and summary["failed"] == 0 and summary["seeds"] == [1, 2, 3, 4]
    assert got["parent"]["tier1"] == {"wall_s": 60.0}
    assert got["parent"]["criteria"] == [{"id": 8, "seconds": 17.0}]
    # Higher traj_per_s and lower peak_rss_mb are both improvements.
    delta = got["deltas"]["jump-lattice"]
    assert delta["traj_per_s"] == pytest.approx(0.025)
    assert delta["peak_rss_mb"] == pytest.approx(6.75 / 56.0)


def test_wall_clock_timings_and_speed_factors_are_kept():
    # The corrected rate rises 2x, the wall-clock rate 1.5x, over probe
    # factors of 0.9 to 1.2.
    head = runs([(200.0, 50.0)] * 4, walls=[150.0, 160.0, 140.0, 150.0])
    parent = runs([(100.0, 50.0)] * 4, walls=[100.0, 100.0, 90.0, 110.0])
    measured = {"head": {"runs": head, "env": {}}, "parent": {"runs": parent, "env": {}}}
    got = json.loads(json.dumps(bench.report(measured, SPEC, {"head": None, "parent": None})))
    summary = got["head"]["workloads"]["jump-lattice"]
    wall = summary["wall_clock"]["traj_per_s"]
    assert wall["values"] == [150.0, 160.0, 140.0, 150.0] and wall["median"] == 150.0
    assert wall["noisy"] is False and summary["wall_clock"]["oracle_s"]["median"] == 0.2
    assert summary["speed_factor_call"]["values"] == pytest.approx([0.9, 1.0, 1.1, 1.2])
    delta = got["deltas"]["jump-lattice"]
    assert delta["traj_per_s"] == pytest.approx(1.0)
    assert delta["wall_clock.traj_per_s"] == pytest.approx(0.5)
    assert delta["wall_clock.oracle_s"] == pytest.approx(0.0)


def test_spread_beyond_the_bound_is_noisy_and_failures_count():
    head = runs([(100.0, 50.0), (130.0, 60.0), (100.0, 50.0)])
    head[1]["result"]["failed"], head[1]["result"]["correct"] = 2, False
    summary = bench.summarize(head, {"traj_per_s": 0.25, "peak_rss_mb": 0.1})["jump-lattice"]
    assert summary["metrics"]["traj_per_s"]["noisy"] is True
    assert summary["metrics"]["peak_rss_mb"]["noisy"] is True
    assert summary["correct"] is False and summary["failed"] == 2


def test_output_without_a_result_is_rejected():
    with pytest.raises(ValueError, match="not the output of perfbench/run.py"):
        bench.parse_run('{"env": {}}\nerror: no qtraj sources\n')


def test_fewer_than_three_seeds_are_refused(capsys):
    with pytest.raises(SystemExit):
        bench.main(["--pr", "0", "--seeds", "1,2"])
    assert "give at least 3 seeds, got 1,2" in capsys.readouterr().err


def test_durations_are_parsed_from_the_report_alone():
    stdout = "\n".join([
        "0.50s call     tests/test_x.py::looks_like_a_duration_before_the_report",
        "........ [100%]",
        "============================= slowest 3 durations ==============================",
        "13.90s call     tests/test_acceptance.py::test_criterion[8]",
        "2.05s setup    tests/test_cli.py::TestWorkerProcesses::test_a_run_joins_its_workers",
        "0.10s teardown tests/test_source.py::test_rule[is not Hermitian]",
        "(12 durations < 0.005s hidden.  Use -vv to show these durations.)",
        "918 passed in 64.30s (0:01:04)",
    ])
    assert bench.parse_durations(stdout) == [
        {"seconds": 13.9, "phase": "call", "test": "tests/test_acceptance.py::test_criterion[8]"},
        {"seconds": 2.05, "phase": "setup",
         "test": "tests/test_cli.py::TestWorkerProcesses::test_a_run_joins_its_workers"},
        {"seconds": 0.1, "phase": "teardown",
         "test": "tests/test_source.py::test_rule[is not Hermitian]"},
    ]
    assert bench.parse_durations("918 passed in 64.30s (0:01:04)\n") == []


def trace_output(rk4_us: float, rate: float, event_us: float, overhead_ms: float,
                 density_passed: bool = True) -> str:
    """The standard output of one perfbench/run.py --trace 1 run, with a
    few of its per-layer metrics."""
    metrics = {"ensemble.rk4_step_us": {"unit": "us", "value": rk4_us},
               "ensemble.run_ensemble_traj_per_s": {"unit": "1/s", "value": rate},
               "manybody.us_per_event": {"unit": "us", "value": event_us},
               "ensemble.overhead_ms": {"unit": "ms", "value": overhead_ms}}
    checks = [{"name": "many-events", "passed": True, "detail": "z = 0.151"},
              {"name": "density-trace", "passed": density_passed, "detail": "max |trace - 1|/SE"}]
    failed = 0 if density_passed else 1
    return "\n".join(json.dumps(line) for line in [
        {"env": {"python": "3.11"}}, {"report": {"checks": checks, "failed": failed}},
        {"correct": density_passed, "attempted": 2702, "failed": failed, "metrics": metrics}])


def test_traced_layers_get_ratios_flags_and_failed_checks():
    # The head's RK4 step is 1.6x faster, its ensemble rate 20% lower and
    # its mixing event 5% slower; its density-trace check failed by chance.
    head = bench.trace_summary(trace_output(130.0, 800.0, 273.0, -1900.0, density_passed=False))
    parent = bench.trace_summary(trace_output(208.0, 1000.0, 260.0, 12.0))
    crashed = bench.trace_summary('{"env": {}}\n', "Traceback (most recent call last):\nOSError\n")
    measured = {"head": {"runs": [], "env": {}, "traces": {"many-mixing": head,
                                                           "jump-lattice": crashed}},
                "parent": {"runs": [], "env": {}, "traces": {"many-mixing": parent,
                                                             "jump-lattice": parent}}}
    got = json.loads(json.dumps(bench.report(measured, SPEC, {"head": None, "parent": None})))
    many = got["layers"]["many-mixing"]
    assert many["head"]["correct"] is False and many["head"]["failed"] == 1
    assert many["head"]["failed_checks"] == ["density-trace"]
    assert many["parent"]["failed_checks"] == []
    assert many["ratios"] == pytest.approx({"ensemble.rk4_step_us": 0.625,
                                            "ensemble.run_ensemble_traj_per_s": 0.8,
                                            "manybody.us_per_event": 1.05})
    assert many["slower"] == ["ensemble.run_ensemble_traj_per_s"]
    # The overhead is kept raw, with no ratio and no flag.
    assert many["head"]["metrics"]["ensemble.overhead_ms"] == -1900.0
    # A run that printed no result is recorded as its error.
    jump = got["layers"]["jump-lattice"]
    assert jump["head"] == {"error": "Traceback (most recent call last):\nOSError\n"}
    assert "ratios" not in jump and jump["parent"]["metrics"]["ensemble.rk4_step_us"] == 208.0
