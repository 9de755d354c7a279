"""Typed response dataclasses — the output half of the service-layer API.

Responses are frozen value objects built from the engine's internal records
(:class:`~repro.core.decision.AllocationDecision`,
:class:`~repro.cluster.events.report.SimulationReport`, partition-state
enumerations) but carrying only plain data, so they round-trip through
``to_dict()``/``from_dict()`` and serialize to JSON unchanged.  Rendering
helpers (`describe()` on a decision, the carried canonical summary text on
a simulation) let the thin-client CLI print byte-identical output without
touching the engine.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.api.serde import build, checked_kwargs

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.events.report import SimulationReport
    from repro.core.decision import AllocationDecision, CandidateEvaluation
    from repro.gpu.mig import PartitionState
    from repro.gpu.spec import GPUSpec
    from repro.lint.analyzer import LintReport
    from repro.lint.findings import Finding


@dataclass(frozen=True)
class CandidateEvaluationResult:
    """Model-predicted metrics of one candidate ``(S, P)`` combination."""

    state: str
    label: str | None
    power_cap_w: float
    predicted_rperfs: tuple[float, ...]
    throughput: float
    fairness: float
    objective: float
    feasible: bool

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "predicted_rperfs", tuple(map(float, self.predicted_rperfs))
        )

    @property
    def display(self) -> str:
        """Short name for tables: the state label when one exists."""
        return self.label or self.state

    @classmethod
    def from_evaluation(
        cls, evaluation: "CandidateEvaluation"
    ) -> "CandidateEvaluationResult":
        """Convert one engine-level candidate evaluation (values pass through)."""
        return cls(
            state=evaluation.state.describe(),
            label=evaluation.state.label,
            power_cap_w=evaluation.power_cap_w,
            predicted_rperfs=evaluation.predicted_rperfs,
            throughput=evaluation.predicted_throughput,
            fairness=evaluation.predicted_fairness,
            objective=evaluation.objective,
            feasible=evaluation.feasible,
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-safe)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CandidateEvaluationResult":
        """Rebuild from :meth:`to_dict` output (unknown keys fail)."""
        return build(cls, data)


@dataclass(frozen=True)
class DecisionResult:
    """The service's answer to one :class:`~repro.api.requests.DecisionRequest`.

    ``state`` is the human-readable description of the chosen partition /
    allocation state (including its ``S1``-style label when it has one);
    ``evaluations`` lists every candidate the search examined, in search
    order, so clients can render the full comparison table or re-rank by
    their own criteria.
    """

    policy: str
    apps: tuple[str, ...]
    spec: str
    state: str
    state_label: str | None
    power_cap_w: float
    predicted_rperfs: tuple[float, ...]
    predicted_throughput: float
    predicted_fairness: float
    predicted_objective: float
    candidates_evaluated: int
    evaluations: tuple[CandidateEvaluationResult, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "apps", tuple(map(str, self.apps)))
        object.__setattr__(
            self, "predicted_rperfs", tuple(map(float, self.predicted_rperfs))
        )
        object.__setattr__(self, "evaluations", tuple(self.evaluations))

    def describe(self) -> str:
        """One-line summary, identical to the engine decision's wording."""
        return (
            f"[{self.policy}] choose {self.state} @ "
            f"{self.power_cap_w:.0f}W (objective={self.predicted_objective:.4f}, "
            f"throughput={self.predicted_throughput:.3f}, "
            f"fairness={self.predicted_fairness:.3f})"
        )

    @classmethod
    def from_decision(
        cls,
        decision: "AllocationDecision",
        apps: Sequence[str],
        spec: str,
    ) -> "DecisionResult":
        """Convert an engine-level :class:`AllocationDecision` in one pass.

        The allocator builds its records from plain Python values, so
        scalars pass straight through and only ``__post_init__`` coerces.
        """
        return cls(
            policy=decision.policy_name,
            apps=tuple(apps),
            spec=spec,
            state=decision.state.describe(),
            state_label=decision.state.label,
            power_cap_w=decision.power_cap_w,
            predicted_rperfs=decision.predicted_rperfs,
            predicted_throughput=decision.predicted_throughput,
            predicted_fairness=decision.predicted_fairness,
            predicted_objective=decision.predicted_objective,
            candidates_evaluated=decision.candidates_evaluated,
            evaluations=tuple(
                map(CandidateEvaluationResult.from_evaluation, decision.evaluations)
            ),
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-safe; nested evaluations become dicts)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DecisionResult":
        """Rebuild from :meth:`to_dict` output (unknown keys fail)."""
        kwargs = checked_kwargs(cls, data)
        kwargs["evaluations"] = tuple(
            entry
            if isinstance(entry, CandidateEvaluationResult)
            else CandidateEvaluationResult.from_dict(entry)
            for entry in kwargs.get("evaluations", ())
        )
        return build(cls, kwargs)


@dataclass(frozen=True)
class PartitionStateRow:
    """One realizable partition state in a :class:`StatesResult`."""

    state: str
    option: str
    total_gpcs: int
    mem_slices_per_app: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "mem_slices_per_app", tuple(int(v) for v in self.mem_slices_per_app)
        )

    @classmethod
    def from_state(cls, state: "PartitionState", spec: "GPUSpec") -> "PartitionStateRow":
        """Convert one engine-level partition state on ``spec``."""
        return cls(
            state=state.describe(),
            option=state.option.value,
            total_gpcs=state.total_gpcs,
            mem_slices_per_app=tuple(a.mem_slices for a in state.allocations(spec)),
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-safe)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PartitionStateRow":
        """Rebuild from :meth:`to_dict` output (unknown keys fail)."""
        return build(cls, data)


@dataclass(frozen=True)
class StatesResult:
    """The realizable partition states of one :class:`StatesRequest`.

    ``spec`` echoes the request's spec name; ``spec_description`` is the
    hardware specification's display name (used in the CLI footer line).
    """

    spec: str
    spec_description: str
    n_apps: int
    states: tuple[PartitionStateRow, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def n_states(self) -> int:
        """Number of realizable states."""
        return len(self.states)

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-safe; nested states become dicts)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StatesResult":
        """Rebuild from :meth:`to_dict` output (unknown keys fail)."""
        kwargs = checked_kwargs(cls, data)
        kwargs["states"] = tuple(
            entry
            if isinstance(entry, PartitionStateRow)
            else PartitionStateRow.from_dict(entry)
            for entry in kwargs.get("states", ())
        )
        return build(cls, kwargs)


@dataclass(frozen=True)
class LatencyStatsResult:
    """Mean and tail percentiles of one latency population (seconds)."""

    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-safe)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LatencyStatsResult":
        """Rebuild from :meth:`to_dict` output (unknown keys fail)."""
        return build(cls, data)


@dataclass(frozen=True)
class SimulationResult:
    """Online metrics of one :class:`~repro.api.requests.SimulationRequest`.

    Carries the structured metrics of the event-driven replay plus the
    canonical human-readable renderings (``trace_summary`` and
    ``report_summary``), which the thin-client CLI prints verbatim — the
    service renders once, every client displays identically.  Node ids in
    ``final_power_allocation_w`` are strings so the document survives JSON
    round-trips unchanged.
    """

    label: str
    spec: str
    n_jobs: int
    n_nodes: int
    makespan_s: float
    sustained_throughput_jobs_per_s: float
    wait: LatencyStatsResult
    turnaround: LatencyStatsResult
    utilization: float
    energy_wh: float
    co_scheduled_jobs: int
    exclusive_jobs: int
    profile_runs: int
    events_processed: int
    repartitions: int
    repartition_time_s: float
    mig_instance_changes: int
    power_rebalances: int
    final_power_allocation_w: dict[str, float]
    peak_queue_length: int
    trace_summary: str
    report_summary: str

    @classmethod
    def from_report(
        cls, report: "SimulationReport", trace_summary: str, spec: str
    ) -> "SimulationResult":
        """Convert an engine-level :class:`SimulationReport`."""
        return cls(
            label=report.label,
            spec=spec,
            n_jobs=report.n_jobs,
            n_nodes=report.n_nodes,
            makespan_s=float(report.makespan_s),
            sustained_throughput_jobs_per_s=float(
                report.sustained_throughput_jobs_per_s
            ),
            wait=LatencyStatsResult(
                mean_s=report.wait.mean_s,
                p50_s=report.wait.p50_s,
                p95_s=report.wait.p95_s,
                p99_s=report.wait.p99_s,
                max_s=report.wait.max_s,
            ),
            turnaround=LatencyStatsResult(
                mean_s=report.turnaround.mean_s,
                p50_s=report.turnaround.p50_s,
                p95_s=report.turnaround.p95_s,
                p99_s=report.turnaround.p99_s,
                max_s=report.turnaround.max_s,
            ),
            utilization=float(report.utilization),
            energy_wh=float(report.energy_wh),
            co_scheduled_jobs=report.co_scheduled_jobs,
            exclusive_jobs=report.exclusive_jobs,
            profile_runs=report.profile_runs,
            events_processed=report.events_processed,
            repartitions=report.repartitions,
            repartition_time_s=float(report.repartition_time_s),
            mig_instance_changes=report.mig_instance_changes,
            power_rebalances=report.power_rebalances,
            final_power_allocation_w={
                str(node_id): float(cap)
                for node_id, cap in sorted(report.final_power_allocation_w.items())
            },
            peak_queue_length=report.peak_queue_length,
            trace_summary=trace_summary,
            report_summary=report.summary(),
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-safe; nested latency stats become dicts)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationResult":
        """Rebuild from :meth:`to_dict` output (unknown keys fail)."""
        kwargs = checked_kwargs(cls, data)
        for field_name in ("wait", "turnaround"):
            value = kwargs.get(field_name)
            if value is not None and not isinstance(value, LatencyStatsResult):
                kwargs[field_name] = LatencyStatsResult.from_dict(value)
        allocation = kwargs.get("final_power_allocation_w")
        if allocation is not None:
            kwargs["final_power_allocation_w"] = {
                str(node_id): float(cap) for node_id, cap in allocation.items()
            }
        return build(cls, kwargs)


@dataclass(frozen=True)
class LintFindingRow:
    """One invariant violation in a :class:`LintResult`."""

    path: str
    line: int
    col: int
    rule_id: str
    severity: str
    message: str

    @classmethod
    def from_finding(cls, finding: "Finding") -> "LintFindingRow":
        """Convert one analyzer-level :class:`~repro.lint.findings.Finding`."""
        return cls(
            path=finding.path,
            line=finding.line,
            col=finding.col,
            rule_id=finding.rule_id,
            severity=finding.severity,
            message=finding.message,
        )

    def format(self) -> str:
        """The canonical one-line rendering (``path:line:col: RLxxx ...``)."""
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.severity}] {self.message}"
        )

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-safe)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LintFindingRow":
        """Rebuild from :meth:`to_dict` output (unknown keys fail)."""
        return build(cls, data)


@dataclass(frozen=True)
class LintResult:
    """The analyzer's answer to one :class:`~repro.api.requests.LintRequest`.

    ``clean`` is the exit-status verdict the CLI maps to its exit code:
    no error findings, and under ``strict`` no findings at all.  Findings
    arrive sorted (path, line, column, rule id), so two runs over the same
    tree render byte-identically.
    """

    findings: tuple[LintFindingRow, ...]
    files_scanned: int
    suppressed: int
    strict: bool
    clean: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "findings", tuple(self.findings))

    @property
    def n_errors(self) -> int:
        """Number of error-severity findings."""
        return sum(1 for f in self.findings if f.severity == "error")

    @property
    def n_warnings(self) -> int:
        """Number of warning-severity findings."""
        return sum(1 for f in self.findings if f.severity == "warning")

    @classmethod
    def from_report(cls, report: "LintReport", strict: bool) -> "LintResult":
        """Convert an analyzer-level :class:`~repro.lint.analyzer.LintReport`."""
        return cls(
            findings=tuple(
                LintFindingRow.from_finding(finding) for finding in report.findings
            ),
            files_scanned=report.files_scanned,
            suppressed=report.suppressed,
            strict=strict,
            clean=report.clean(strict),
        )

    def describe(self) -> str:
        """One line per finding plus the verdict summary line."""
        lines = [finding.format() for finding in self.findings]
        verdict = "clean" if self.clean else "FAILED"
        mode = " (strict)" if self.strict else ""
        lines.append(
            f"{verdict}{mode}: {len(self.findings)} finding(s) "
            f"({self.n_errors} error(s), {self.n_warnings} warning(s)), "
            f"{self.suppressed} suppressed, {self.files_scanned} file(s) scanned"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """Plain-data form (JSON-safe; nested findings become dicts)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "LintResult":
        """Rebuild from :meth:`to_dict` output (unknown keys fail)."""
        kwargs = checked_kwargs(cls, data)
        kwargs["findings"] = tuple(
            entry
            if isinstance(entry, LintFindingRow)
            else LintFindingRow.from_dict(entry)
            for entry in kwargs.get("findings", ())
        )
        return build(cls, kwargs)
