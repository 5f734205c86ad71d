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


def output(rate: float, rss: float, failed: int = 0) -> str:
    """The standard output of one perfbench/run.py run."""
    metrics = {"traj_per_s": {"unit": "1/s", "value": rate},
               "peak_rss_mb": {"unit": "MB", "value": rss}}
    return "\n".join(json.dumps(line) for line in [
        {"env": {"python": "3.11"}}, {"report": {"digest": "x"}, "loadavg_end": [0.1]},
        {"correct": failed == 0, "attempted": 5, "failed": failed, "metrics": metrics}])


def runs(values) -> list[dict]:
    out = []
    for seed, (rate, rss) in enumerate(values, 1):
        env, result = bench.parse_run(output(rate, rss))
        assert env == {"python": "3.11"}
        out.append({"workload": "jump-lattice", "seed": seed, "result": result})
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
