"""Outside correctness checks: each returns a list of violations (empty = ok).

The checks read only what the public API hands back — the replay's
:class:`SimulationReport`, the budget splits the power manager returned,
and each :class:`DecisionResult` — and compare it with the benchmark's own
inputs, so a defect anywhere below the API shows up as a violation.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Sequence

#: Relative slack allowed on a budget sum (the split is computed in floats).
BUDGET_RTOL = 1e-9


def check_replay(trace, report) -> list[str]:
    """Every trace job completes exactly once, with submit <= start <= finish."""
    violations = []
    if report.n_jobs != trace.n_jobs:
        violations.append(f"report has {report.n_jobs} jobs, trace has {trace.n_jobs}")
    for job_id, times in Counter(job.job_id for job in report.jobs).items():
        if times > 1:
            violations.append(f"job {job_id} completed {times} times")
    submitted = Counter((job.submit_time, job.name) for job in report.jobs)
    arrived = Counter((entry.arrival_time_s, entry.app) for entry in trace.entries)
    if submitted != arrived:
        missing = sum((arrived - submitted).values())
        extra = sum((submitted - arrived).values())
        violations.append(
            f"completed jobs differ from the trace: {missing} missing, {extra} extra"
        )
    for job in report.jobs:
        if job.start_time is None or job.finish_time is None:
            violations.append(f"job {job.job_id} has no start or finish time")
        elif not job.submit_time <= job.start_time <= job.finish_time:
            violations.append(
                f"job {job.job_id}: submit {job.submit_time} <= start "
                f"{job.start_time} <= finish {job.finish_time} does not hold"
            )
    return violations


def check_budget_splits(
    splits: Iterable[Mapping[int, float]], budget_w: float
) -> list[str]:
    """Every power-budget split sums to at most the cluster budget."""
    violations = []
    for index, shares in enumerate(splits):
        total = sum(shares.values())
        if total > budget_w * (1.0 + BUDGET_RTOL):
            violations.append(
                f"budget split {index} hands out {total:.6f} W of {budget_w} W"
            )
    return violations


def unlabelled_state(result) -> str:
    """The answer's state description without its ``S1(...)``-style label."""
    label = result.state_label
    if label and result.state.startswith(f"{label}(") and result.state.endswith(")"):
        return result.state[len(label) + 1 : -1]
    return result.state


def check_decision(
    request,
    result,
    states: Mapping[int, frozenset[str]],
    fitted_caps: Sequence[float],
    default_cap_w: float,
) -> list[str]:
    """An answer names an enumerated state and a cap on the fitted grid.

    ``states`` maps a group size to the (unlabelled) descriptions of every
    partition state the spec enumerates for it.
    """
    violations = []
    n_apps = len(request.apps)
    if tuple(result.apps) != tuple(request.apps):
        violations.append(f"answer is for {result.apps}, asked {request.apps}")
    if unlabelled_state(result) not in states.get(n_apps, frozenset()):
        violations.append(
            f"{request.apps}: state {result.state!r} is not an enumerated "
            f"{n_apps}-app state"
        )
    if result.power_cap_w not in fitted_caps:
        violations.append(
            f"{request.apps}: cap {result.power_cap_w} W is off the fitted grid "
            f"{tuple(fitted_caps)}"
        )
    if request.policy == "problem1":
        asked = request.power_cap_w if request.power_cap_w is not None else default_cap_w
        if result.power_cap_w != asked:
            violations.append(
                f"{request.apps}: Problem 1 answered at {result.power_cap_w} W, "
                f"asked {asked} W"
            )
    if len(result.predicted_rperfs) != n_apps:
        violations.append(
            f"{request.apps}: {len(result.predicted_rperfs)} predictions for "
            f"{n_apps} apps"
        )
    return violations
