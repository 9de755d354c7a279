"""One benchmark trial: set up once, then repeat the main phase in forks.

``run.py`` starts each trial in a fresh process::

    python3 perfbench/trial.py <workload> <seed> <traced 0|1> <scale> <until>

and reads the JSON object printed on the last line.  A trial builds a
``PlannerService`` session (timed as ``setup_s``).  Then, until
``time.monotonic()`` reaches ``until``, it forks repetitions:
each copy runs the workload's main phase through the public API (traced
when asked), then — untraced — the replay's decide probe and every outside
check, and reports a record.  Every repetition starts from the same
freshly set-up state, so all of them do the same work.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Iterator

if __name__ == "__main__":
    _HERE = Path(__file__).resolve().parent
    sys.path[:0] = [str(_HERE.parent / "src"), str(_HERE)]

from checks import check_budget_splits, check_decision, check_replay, unlabelled_state
from stats import percentile
from tracer import Tracer, layer_metrics, layer_table, setup_metrics, split_setup
from workloads import WORKLOADS, ReplayWorkload

from repro.api.service import PlannerService
from repro.cluster.events import ClusterSimulator, EventHeap, SimulationConfig
from repro.cluster.powerbudget import ClusterPowerManager
from repro.cluster.scheduler import CoScheduler, SchedulerConfig
from repro.errors import InfeasibleProblemError
from repro.gpu.mig import enumerate_partition_states
from repro.gpu.spec import spec_by_name

#: Segments a replay's host time is cut into, by event batch, so that
#: ``run.py`` can take each segment's fastest time over the repetitions.
REPLAY_SEGMENTS = 200


@contextmanager
def _recorded(owner: type, attr: str, keep: Callable) -> Iterator[None]:
    """Call ``keep(self, args, result)`` after every ``owner.attr`` call."""
    original = owner.__dict__[attr]

    def recorder(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        keep(self, args, result)
        return result

    setattr(owner, attr, recorder)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def replay_segments(start: float, stamps: list[float], end: float) -> list[float]:
    """Host time of each of up to :data:`REPLAY_SEGMENTS` equal runs of batches.

    ``stamps`` holds the clock after each popped event batch.  Repetitions
    of one seed pop the same batches, so segment ``i`` is the same work in
    every repetition.
    """
    n_segments = min(REPLAY_SEGMENTS, len(stamps))
    cuts = [stamps[len(stamps) * i // n_segments - 1] for i in range(1, n_segments)]
    bounds = [start, *cuts, end]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def _decide_loop(service: PlannerService, requests) -> dict:
    """Closed loop: each request is sent when the previous answer is back.

    An ``InfeasibleProblemError`` is a valid "no fair candidate" answer
    (recorded as ``None``); any other exception is a failed request.
    """
    answers, latencies_ms, failures = [], [], []
    infeasible = 0
    clock = time.perf_counter
    for request in requests:
        answer = None
        start = clock()
        try:
            answer = service.decide(request)
        except InfeasibleProblemError:
            infeasible += 1
        except Exception as exc:
            failures.append(f"{request.apps}: {type(exc).__name__}: {exc}")
        latencies_ms.append((clock() - start) * 1e3)
        answers.append(answer)
    return {
        "answers": answers,
        "latencies_ms": latencies_ms,
        "failures": failures,
        "infeasible": infeasible,
    }


def _check_answers(session, spec: str, requests, answers) -> tuple[list[str], int, dict]:
    """Check every feasible answer and run it once on the simulated GPU.

    Returns the violations, how many answers had any, and the answers'
    simulated quality: per-app completion time, energy per job and the
    model's RPerf error against what the engine delivers at the decided
    state and cap.
    """
    sizes = sorted({len(r.apps) for r in requests})
    states = {
        n: {s.describe(): s for s in enumerate_partition_states(n, spec_by_name(spec))}
        for n in sizes
    }
    names = {n: frozenset(by_name) for n, by_name in states.items()}
    violations: list[str] = []
    bad_answers = 0
    engine = session.workflow.simulator
    suite = session.workflow.suite
    elapsed, errors = [], []
    energy_j = 0.0
    for request, answer in zip(requests, answers):
        if answer is None:
            continue
        found = check_decision(
            request, answer, names, session.power_caps, session.default_power_cap_w
        )
        if found:
            violations.extend(found)
            bad_answers += 1
            continue
        kernels = [suite.get(app) for app in request.apps]
        state = states[len(request.apps)][unlabelled_state(answer)]
        run = engine.co_run(kernels, state, answer.power_cap_w)
        for predicted, app in zip(answer.predicted_rperfs, run.per_app):
            elapsed.append(app.elapsed_s)
            errors.append(abs(predicted - app.relative_performance) / app.relative_performance)
        energy_j += run.chip_power_w * max(app.elapsed_s for app in run.per_app)
    quality = {
        "sim_turnaround_p95_s": percentile(elapsed, 95.0) if elapsed else 0.0,
        "sim_energy_j_per_job": energy_j / len(elapsed) if elapsed else 0.0,
        "rperf_error_mean": statistics.fmean(errors) if errors else 0.0,
    }
    return violations, bad_answers, quality


def _replay(workload: ReplayWorkload, session, trace) -> dict:
    """The replay's main phase; recorders keep what the checks need."""
    splits: list = []
    dispatches: list = []
    config = SchedulerConfig(
        window_size=workload.window_size,
        group_size=workload.group_size,
        policy_name=workload.policy,
        power_cap_w=workload.power_cap_w or session.default_power_cap_w,
        alpha=workload.alpha,
    )
    simulator = ClusterSimulator.from_allocator(
        session.workflow.online,
        session.workflow.simulator,
        n_nodes=workload.n_nodes,
        scheduler_config=config,
        config=SimulationConfig(
            repartition_latency_s=workload.repartition_latency_s,
            power_budget_w=workload.power_budget_w,
        ),
    )

    def keep_split(_manager, _args, shares) -> None:
        splits.append(shares)

    stamps: list[float] = []
    clock = time.perf_counter

    def keep_stamp(_heap, _args, _batch) -> None:
        stamps.append(clock())

    def keep_dispatch(scheduler, args, _finish) -> None:
        plan = args[0]
        if plan.decision is not None:
            dispatches.append((plan.decision, scheduler.last_dispatch_result))

    model = session.workflow.online.allocator.model
    gathers = model.gather_cache_builds
    with _recorded(ClusterPowerManager, "distribute_demands", keep_split), _recorded(
        CoScheduler, "dispatch", keep_dispatch
    ), _recorded(EventHeap, "pop_batch", keep_stamp):
        start = clock()
        report = simulator.run(trace, suite=session.workflow.suite)
        end = clock()
    errors = [
        abs(predicted - app.relative_performance) / app.relative_performance
        for decision, result in dispatches
        for predicted, app in zip(decision.predicted_rperfs, result.per_app)
    ]
    return {
        "report": report,
        "replay_s": end - start,
        "segments_s": replay_segments(start, stamps, end),
        "batches": len(stamps),
        "splits": splits,
        "plan_stats": simulator.scheduler.stats.as_dict(),
        "gather_builds": model.gather_cache_builds - gathers,
        "quality": {
            "sim_turnaround_p95_s": report.turnaround.p95_s,
            "sim_energy_j_per_job": report.energy_wh * 3600.0 / report.n_jobs,
            "rperf_error_mean": statistics.fmean(errors) if errors else 0.0,
        },
        "co_located_dispatches": len(dispatches),
    }


def _forked(work: Callable[[], dict]) -> dict:
    """Run ``work`` in a forked copy of this process; return its JSON record.

    The copy starts from this process's state, so every repetition does
    the same work on the same warm-from-setup session and leaves nothing
    behind.  The parent waits for the copy to end before it returns.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # the copy: never returns
        status = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as out:
                json.dump(work(), out)
            status = 0
        except BaseException:
            traceback.print_exc()
            sys.stderr.flush()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"a forked repetition exited with status {status}")
    return json.loads(data)


def run_trial(
    name: str,
    seed: int,
    traced: bool,
    scale: float = 1.0,
    until: float = 0.0,
    min_repetitions: int = 1,
) -> dict:
    """One trial of workload ``name``: set up once, then repeat the main phase.

    Each repetition runs in a fork of the set-up process (:func:`_forked`)
    and reports a record; repetitions start until ``time.monotonic()``
    reaches ``until`` and ``min_repetitions`` have run.  The monotonic
    clock is system-wide, so ``run.py`` can hand out deadlines that absorb
    each trial's start-up.
    """
    workload = WORKLOADS[name]
    if isinstance(workload, ReplayWorkload):
        trace = workload.trace(seed, scale)
        requests = workload.probe(seed, scale)
    else:
        trace = None
        requests = workload.requests(seed, scale)

    tracer = Tracer()
    service = PlannerService()
    with tracer if traced else nullcontext():
        start = time.perf_counter()
        session = service.session_for(workload.spec, workload.group_size)
        setup_s = time.perf_counter() - start
        repetitions: list[dict] = []
        while len(repetitions) < min_repetitions or time.monotonic() < until:
            repetitions.append(
                _forked(
                    lambda: _repetition(
                        workload, service, session, trace, requests, tracer if traced else None
                    )
                )
            )
    return {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "setup_s": setup_s,
        "repetitions": repetitions,
    }


def _repetition(workload, service, session, trace, requests, tracer: Tracer | None) -> dict:
    """The main phase (traced when ``tracer`` is given), probe and checks."""
    if trace is not None:
        replay = _replay(workload, session, trace)
    else:
        model = session.workflow.online.allocator.model
        gathers = model.gather_cache_builds
        start = time.perf_counter()
        decided = _decide_loop(service, requests)
        loop_s = time.perf_counter() - start
        gathers = model.gather_cache_builds - gathers
    if tracer is not None:
        tracer.uninstall()

    if trace is not None:
        # The probe runs untraced, after the replay, on the same session.
        decided = _decide_loop(service, requests)
    violations, bad_answers, quality = _check_answers(
        session, workload.spec, requests, decided["answers"]
    )
    violations += decided["failures"]
    failed = bad_answers + len(decided["failures"])
    attempted = len(requests)
    counters: dict[str, float] = {
        "requests": len(requests),
        "infeasible": decided["infeasible"],
        "candidates_evaluated": sum(
            a.candidates_evaluated for a in decided["answers"] if a is not None
        ),
    }
    if trace is not None:
        report = replay["report"]
        replay_violations = check_replay(trace, report)
        if workload.power_budget_w is not None:
            replay_violations += check_budget_splits(
                replay["splits"], workload.power_budget_w
            )
        if replay_violations:
            failed += trace.n_jobs
        violations += replay_violations
        attempted += trace.n_jobs
        events = report.events_processed
        plan_stats = replay["plan_stats"]
        quality = replay["quality"]
        throughput = events / replay["replay_s"]
        segments_s = replay["segments_s"]
        counters.update(
            jobs=trace.n_jobs,
            events=events,
            batches=replay["batches"],
            distributes=len(replay["splits"]),
            co_located_dispatches=replay["co_located_dispatches"],
            repartitions=report.repartitions,
            power_rebalances=report.power_rebalances,
            gather_builds=replay["gather_builds"],
            **{f"plans.{key}": value for key, value in plan_stats.items()},
        )
    else:
        events = 0
        plan_stats = {}
        throughput = len(requests) / loop_s
        segments_s = []
        counters["gather_builds"] = gathers
    counters.update(quality)

    record = {
        "throughput": throughput,
        "latencies_ms": decided["latencies_ms"],
        "segments_s": segments_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "violations": violations[:20],
        "counters": counters,
    }
    if tracer is not None:
        setup_spans, work_spans = split_setup(tracer.finished_spans())
        layers = {
            **layer_metrics(
                work_spans,
                tracer.candidates_predicted,
                counters["gather_builds"],
                plan_stats,
                events,
            ),
            **setup_metrics(setup_spans),
        }
        record["layers"] = layers
        record["layer_table"] = {
            "setup": layer_table(setup_spans),
            "workload": layer_table(work_spans),
        }
        counters.update(
            (f"traced.{key}", value)
            for key, value in layers.items()
            if not key.endswith(("_s", "_ratio", "_per_governor"))
        )
    return record


def main(argv: list[str]) -> int:
    name, seed, traced, scale, until = argv
    trial = run_trial(name, int(seed), traced == "1", float(scale), float(until))
    print(json.dumps(trial))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
