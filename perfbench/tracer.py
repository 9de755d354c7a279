"""Span tracing of the planner's layers, installed from outside ``src/``.

:class:`Tracer` replaces the public functions of each layer with thin
wrappers.  A wrapper records one span per call — ``(name, start, end,
parent)`` in host seconds — and keeps every span in memory until the
repetition ends, when :func:`layer_metrics` turns them into self times (a
span's duration minus the part its wrapped children cover), call counts
and ratios.  :meth:`Tracer.uninstall` puts every original back, so a
traced trial leaves the library exactly as it found it.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Callable, Mapping, NamedTuple

#: Wrapped functions: (module, owner attribute path, function, span name).
#: An empty owner path wraps a module-level name where ``module`` looks it
#: up, which is how the training sweeps are reached from the workflow.
TRACED_FUNCTIONS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.cluster.events.simulator", "ClusterSimulator", "run", "events.run"),
    ("repro.cluster.scheduler", "CoScheduler", "plan_next", "scheduler.plan_next"),
    ("repro.cluster.scheduler", "CoScheduler", "dispatch", "scheduler.dispatch"),
    ("repro.cluster.node", "ComputeNode", "configure", "node.configure"),
    ("repro.cluster.node", "ComputeNode", "release", "node.release"),
    ("repro.core.workflow", "OnlineAllocator", "decide", "allocator.decide"),
    ("repro.core.optimizer", "ResourcePowerAllocator", "solve", "allocator.solve"),
    ("repro.core.model", "LinearPerfModel", "predict_candidates", "model.predict_candidates"),
    ("repro.core.model", "LinearPerfModel", "predict_corun", "model.predict_corun"),
    ("repro.core.model", "LinearPerfModel", "predict_rperf", "model.predict_rperf"),
    ("repro.sim.engine", "PerformanceSimulator", "co_run", "engine.co_run"),
    ("repro.sim.engine", "PerformanceSimulator", "solo_run", "engine.solo_run"),
    ("repro.sim.engine", "PerformanceSimulator", "reference_time", "engine.reference_time"),
    ("repro.gpu.power", "PowerModel", "max_frequency_under_cap", "power.governor"),
    ("repro.gpu.power", "PowerModel", "total_power", "power.total_power"),
    (
        "repro.cluster.powerbudget",
        "ClusterPowerManager",
        "distribute_demands",
        "powerbudget.distribute_demands",
    ),
    ("repro.core.workflow", "", "collect_solo_measurements", "training.solo_sweep"),
    ("repro.core.workflow", "", "collect_corun_measurements", "training.corun_sweep"),
    ("repro.core.training", "ModelTrainer", "train", "training.fit"),
    ("repro.api.service", "PlannerService", "decide", "service.decide"),
    ("repro.api.service", "PlannerService", "session_for", "service.session_for"),
)

#: Span name -> layer (the module that owns the function).
LAYER_OF: Mapping[str, str] = {name: name.split(".", 1)[0] for *_, name in TRACED_FUNCTIONS}


class Span(NamedTuple):
    """One wrapped call: host start/end, its parent's index, and any error."""

    name: str
    start: float
    end: float
    parent: int
    error: str | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps :data:`TRACED_FUNCTIONS` and records their spans in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        #: ``(state, cap)`` rows the batched model path was asked to predict.
        self.candidates_predicted = 0
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        import importlib

        for module_name, owner_path, attr, span_name in TRACED_FUNCTIONS:
            owner: object = importlib.import_module(module_name)
            if owner_path:
                owner = getattr(owner, owner_path)
            original = owner.__dict__[attr] if owner_path else getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, span_name))
            self._originals.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    def _wrap(self, original: Callable, name: str) -> Callable:
        tracer = self
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        counts_candidates = name == "model.predict_candidates"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            if counts_candidates:  # (self, counters_list, candidates)
                tracer.candidates_predicted += len(
                    args[2] if len(args) > 2 else kwargs["candidates"]
                )
            error = None
            start = clock()
            try:
                return original(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, error)

        return traced

    def finished_spans(self) -> list[Span]:
        if self._stack:
            raise RuntimeError("spans are still open")
        return [Span._make(span) for span in self.spans]  # type: ignore[arg-type]


def self_times(spans: list[Span]) -> tuple[dict[str, float], Counter]:
    """Per-span-name self time and calls.

    Self time is a span's duration minus its direct children's: spans of
    one thread nest and never overlap.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    totals: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for index, span in enumerate(spans):
        totals[span.name] += span.duration - child_time[index]
        calls[span.name] += 1
    return dict(totals), calls


def _nearest_ancestor(spans: list[Span], index: int, name: str) -> int:
    """Index of the nearest ancestor of span ``index`` named ``name``, or -1."""
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return parent
        parent = spans[parent].parent
    return -1


def split_setup(spans: list[Span]) -> tuple[list[Span], list[Span]]:
    """Split spans into the setup tree (top-level ``session_for``) and the rest.

    Parent indices are rewritten so each part stands alone; a parent is
    always recorded before its children, so one forward pass suffices.
    """
    parts: tuple[list[Span], list[Span]] = ([], [])
    where: list[tuple[int, int]] = []  # span index -> (part, index in part)
    for span in spans:
        if span.parent < 0:
            part = 0 if span.name == "service.session_for" else 1
            parent = -1
        else:
            part, parent = where[span.parent]
        where.append((part, len(parts[part])))
        parts[part].append(span._replace(parent=parent))
    return parts


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Self time, share of all traced time and calls, per layer."""
    totals, calls = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for name, seconds in totals.items():
        row = table.setdefault(LAYER_OF[name], {"self_s": 0.0, "calls": 0})
        row["self_s"] += seconds
        row["calls"] += calls[name]
    traced_total = sum(row["self_s"] for row in table.values())
    for row in table.values():
        row["share"] = row["self_s"] / traced_total if traced_total > 0 else 0.0
    return dict(sorted(table.items()))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: list[Span],
    candidates_predicted: int,
    gather_builds: int,
    plan_stats: Mapping[str, int],
    events: int,
) -> dict[str, float]:
    """The per-layer metrics of a traced trial's main phase.

    ``candidates_predicted`` is :attr:`Tracer.candidates_predicted`,
    ``gather_builds`` the model's own coefficient-gather counter,
    ``plan_stats`` the scheduler's counters and ``events`` the events the
    replay loop processed (0 for the decide mix).
    """
    totals, calls = self_times(spans)
    t = lambda *names: sum(totals.get(n, 0.0) for n in names)  # noqa: E731
    c = lambda *names: sum(calls.get(n, 0) for n in names)  # noqa: E731

    governed_co_runs = set()
    infeasible = 0
    for index, span in enumerate(spans):
        if span.name == "power.governor":
            owner = _nearest_ancestor(spans, index, "engine.co_run")
            if owner >= 0:
                governed_co_runs.add(owner)
        elif span.name == "allocator.decide" and span.error == "InfeasibleProblemError":
            infeasible += 1
    decides = c("allocator.decide")
    solves = c("allocator.solve")
    co_runs = c("engine.co_run")
    governors = c("power.governor")
    plans = plan_stats.get("plans_requested", 0)
    return {
        "events.self_s": t("events.run"),
        "events.events": float(events),
        "scheduler.plan_s": t("scheduler.plan_next"),
        "scheduler.plan_calls": float(c("scheduler.plan_next")),
        "scheduler.plans_computed": float(plan_stats.get("plans_computed", 0)),
        "scheduler.plan_hit_ratio": _ratio(plan_stats.get("plan_cache_hits", 0), plans),
        "scheduler.dispatch_s": t("scheduler.dispatch"),
        "node.admin_s": t("node.configure", "node.release"),
        "node.admin_calls": float(c("node.configure", "node.release")),
        "allocator.decide_calls": float(decides),
        "allocator.decide_s": t("allocator.decide"),
        "allocator.solve_calls": float(solves),
        "allocator.solve_s": t("allocator.solve"),
        "allocator.memo_hit_ratio": 1.0 - _ratio(solves, decides) if decides else 0.0,
        "allocator.infeasible": float(infeasible),
        "model.batch_calls": float(c("model.predict_candidates")),
        "model.batch_s": t("model.predict_candidates"),
        "model.candidates": float(candidates_predicted),
        "model.scalar_calls": float(c("model.predict_corun", "model.predict_rperf")),
        "model.scalar_s": t("model.predict_corun", "model.predict_rperf"),
        "model.gather_builds": float(gather_builds),
        "engine.co_run_calls": float(co_runs),
        "engine.co_run_s": t("engine.co_run"),
        "engine.co_run_hit_ratio": _ratio(co_runs - len(governed_co_runs), co_runs),
        "engine.solo_calls": float(c("engine.solo_run", "engine.reference_time")),
        "engine.solo_s": t("engine.solo_run", "engine.reference_time"),
        "power.governor_calls": float(governors),
        "power.governor_s": t("power.governor"),
        "power.evals": float(c("power.total_power")),
        "power.evals_per_governor": _ratio(c("power.total_power"), governors),
        "powerbudget.distribute_calls": float(c("powerbudget.distribute_demands")),
        "powerbudget.distribute_s": t("powerbudget.distribute_demands"),
        # The session lookups left after the setup split are decide()'s own.
        "service.decide_self_s": t("service.decide", "service.session_for"),
        "service.decide_calls": float(c("service.decide")),
    }


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of the setup phase (the first ``session_for``)."""
    totals, calls = self_times(spans)
    return {
        "training.solo_sweep_s": totals.get("training.solo_sweep", 0.0),
        "training.corun_sweep_s": totals.get("training.corun_sweep", 0.0),
        "training.fit_s": totals.get("training.fit", 0.0),
        "setup.engine_s": sum(v for k, v in totals.items() if LAYER_OF[k] == "engine"),
        "setup.co_run_calls": float(calls.get("engine.co_run", 0)),
        "setup.governor_calls": float(calls.get("power.governor", 0)),
        "setup.power_s": sum(v for k, v in totals.items() if LAYER_OF[k] == "power"),
    }
