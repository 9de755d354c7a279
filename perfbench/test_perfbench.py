"""Tests of the benchmark itself: checkers, tracing, smoke runs, the manifest."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from checks import check_budget_splits, check_decision, check_replay, unlabelled_state
from run import END_TO_END_UNITS, fastest, layer_unit
from trial import replay_segments, run_trial
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
MANIFEST = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _job(job_id, app, submit, start, finish):
    return SimpleNamespace(
        job_id=job_id, name=app, submit_time=submit, start_time=start, finish_time=finish
    )


def _trace(*arrivals):
    entries = tuple(SimpleNamespace(arrival_time_s=t, app=app) for t, app in arrivals)
    return SimpleNamespace(n_jobs=len(entries), entries=entries)


def _report(*jobs):
    return SimpleNamespace(n_jobs=len(jobs), jobs=jobs)


TRACE = _trace((0.0, "stream"), (1.0, "sgemm"))


def test_replay_checker_accepts_a_valid_schedule():
    report = _report(_job(0, "stream", 0.0, 0.5, 2.0), _job(1, "sgemm", 1.0, 1.0, 3.0))
    assert check_replay(TRACE, report) == []


def test_replay_checker_rejects_a_duplicated_job():
    job = _job(0, "stream", 0.0, 0.5, 2.0)
    report = _report(job, job)
    found = check_replay(TRACE, report)
    assert any("completed 2 times" in v for v in found)
    assert any("1 missing, 1 extra" in v for v in found)


def test_replay_checker_rejects_a_job_started_before_submission():
    report = _report(_job(0, "stream", 0.0, 0.5, 2.0), _job(1, "sgemm", 1.0, 0.9, 3.0))
    assert any("job 1" in v for v in check_replay(TRACE, report))


def test_replay_checker_rejects_a_lost_job():
    report = SimpleNamespace(n_jobs=1, jobs=(_job(0, "stream", 0.0, 0.5, 2.0),))
    found = check_replay(TRACE, report)
    assert any("report has 1 jobs, trace has 2" in v for v in found)


def test_budget_checker_rejects_a_split_over_the_budget():
    assert check_budget_splits([{0: 95.0, 1: 95.0}], 190.0) == []
    found = check_budget_splits([{0: 95.0, 1: 95.0}, {0: 100.0, 1: 95.0}], 190.0)
    assert found == ["budget split 1 hands out 195.000000 W of 190.0 W"]


STATES = {2: frozenset({"4GPCs-3GPCs/Shared", "3GPCs-4GPCs/Private"})}
CAPS = (150.0, 230.0, 250.0)


def _answer(state, cap, label=None, apps=("stream", "sgemm")):
    return SimpleNamespace(
        apps=apps, state=state, state_label=label, power_cap_w=cap, predicted_rperfs=(0.5, 0.5)
    )


def _request(policy="problem1", cap=230.0):
    return SimpleNamespace(apps=("stream", "sgemm"), policy=policy, power_cap_w=cap)


def test_decision_checker_accepts_labelled_enumerated_states():
    answer = _answer("S1(4GPCs-3GPCs/Shared)", 230.0, label="S1")
    assert unlabelled_state(answer) == "4GPCs-3GPCs/Shared"
    assert check_decision(_request(), answer, STATES, CAPS, 230.0) == []


def test_decision_checker_rejects_a_state_off_the_enumerated_set():
    answer = _answer("5GPCs-3GPCs/Shared", 230.0)
    found = check_decision(_request(), answer, STATES, CAPS, 230.0)
    assert found and "not an enumerated 2-app state" in found[0]


def test_decision_checker_rejects_a_cap_off_the_grid_or_not_asked():
    off_grid = check_decision(
        _request("problem2", None), _answer("4GPCs-3GPCs/Shared", 240.0), STATES, CAPS, 230.0
    )
    assert any("off the fitted grid" in v for v in off_grid)
    not_asked = check_decision(
        _request("problem1", 150.0), _answer("4GPCs-3GPCs/Shared", 250.0), STATES, CAPS, 230.0
    )
    assert any("asked 150.0 W" in v for v in not_asked)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_each_workload_runs_clean_at_smoke_size(name):
    from repro.cluster.events import ClusterSimulator

    original_run = ClusterSimulator.__dict__["run"]
    trial = run_trial(name, seed=3, traced=True, scale=0.02)
    assert ClusterSimulator.__dict__["run"] is original_run  # tracing undone
    assert trial["setup_s"] > 0 and len(trial["repetitions"]) == 1
    record = trial["repetitions"][0]
    assert record["failed"] == 0 and record["violations"] == []
    assert record["attempted"] > 0 and record["throughput"] > 0
    assert record["latencies_ms"]
    declared = {m["name"] for m in MANIFEST["per_layer"]} - {"trace.overhead_ratio"}
    assert set(record["layers"]) == declared
    if WORKLOADS[name].kind == "replay":
        assert record["layers"]["events.events"] == record["counters"]["events"] > 0


def test_counters_repeat_between_trials_of_one_seed():
    plain = run_trial("replay-a100-pairs", seed=5, traced=False, scale=0.02)
    traced = run_trial("replay-a100-pairs", seed=5, traced=True, scale=0.02)
    again = run_trial("replay-a100-pairs", seed=5, traced=True, scale=0.02)
    plain, traced, again = (t["repetitions"][0] for t in (plain, traced, again))
    assert traced["counters"] == again["counters"]
    assert {k: traced["counters"][k] for k in plain["counters"]} == plain["counters"]


def test_forked_repetitions_of_a_trial_do_the_same_work():
    trial = run_trial("replay-a100-budget", seed=4, traced=False, scale=0.02, min_repetitions=2)
    first, second = trial["repetitions"]
    assert first["counters"] == second["counters"]
    assert len(first["segments_s"]) == len(second["segments_s"])
    assert len(first["latencies_ms"]) == len(second["latencies_ms"])


def test_replay_segments_cover_the_replay():
    stamps = [float(i) for i in range(1, 1000)]
    segments = replay_segments(0.0, stamps, 1000.0)
    assert len(segments) == 200 and sum(segments) == 1000.0
    assert replay_segments(0.0, [1.0, 2.0], 3.0) == [1.0, 2.0]


def test_fastest_takes_each_elements_minimum_over_repetitions():
    assert fastest([[3.0, 1.0], [2.0, 5.0]]) == [2.0, 1.0]
    with pytest.raises(ValueError):
        fastest([[1.0, 2.0], [1.0]])


def test_manifest_matches_the_benchmark():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]} == END_TO_END_UNITS
    for metric in MANIFEST["per_layer"]:
        assert metric["unit"] == layer_unit(metric["name"]), metric["name"]


def test_run_prints_one_result_line(tmp_path):
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", "replay-a100-budget",
            "--seed", "2", "--seconds", "0", "--trace", "0",
            "--scale", "0.02", "--results", str(tmp_path),
        ],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END_UNITS
    detail = json.loads(next(tmp_path.glob("*.json")).read_text())
    assert detail["fingerprint"]["sources_sha256"] and detail["samples"]["trials"] == 3


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-a100-pairs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_counter_check_flags_a_count_that_changed_between_trials():
    from run import counter_mismatches

    same = [{"counters": {"events": 10}}, {"counters": {"events": 10, "traced.x": 1}}]
    assert counter_mismatches(same) == []
    assert counter_mismatches(same, previous={"events": 11}) == ["events: 11 != 10"]
