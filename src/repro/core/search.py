"""Search strategies over the candidate ``(S, P)`` space.

The paper's evaluation space is tiny (4 states × 6 power caps = 24
candidates), so exhaustive search is used there.  Section 6 points out that
a larger space (finer partitioning, finer power steps, more than two
applications) would call for a heuristic such as hill climbing; both are
implemented here behind the same interface so the allocator — and the
ablation benchmark comparing them — can switch freely.

Every strategy scores candidates through one batch evaluator (backed by the
model's vectorized grid prediction) and selects on the returned arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Protocol, Sequence

import numpy as np

from repro.core.decision import CandidateEvaluation
from repro.errors import OptimizationError
from repro.gpu.mig import PartitionState


@dataclass(frozen=True)
class SearchCandidate:
    """One point of the search space: a partition state and a power cap."""

    state: PartitionState
    power_cap_w: float

    def describe(self) -> str:
        """Human-readable description."""
        return f"{self.state.describe()} @ {self.power_cap_w:.0f}W"


@dataclass(frozen=True)
class EvaluatedCandidates:
    """Metrics of a batch of candidates, in candidate order.

    ``evaluations`` holds one record per candidate; ``objectives`` and
    ``feasible`` are the same values as arrays, which is what selection
    runs on.
    """

    evaluations: tuple[CandidateEvaluation, ...]
    objectives: np.ndarray
    feasible: np.ndarray

    @classmethod
    def from_evaluations(
        cls, evaluations: Iterable[CandidateEvaluation]
    ) -> "EvaluatedCandidates":
        """Wrap per-candidate records, deriving the arrays from them."""
        records = tuple(evaluations)
        return cls(
            evaluations=records,
            objectives=np.array([e.objective for e in records], dtype=float),
            feasible=np.array([e.feasible for e in records], dtype=bool),
        )

    def best_feasible(self) -> CandidateEvaluation:
        """The first feasible candidate with the largest objective.

        Ties break towards the earlier candidate, as ``max()`` over the
        records would.
        """
        indices = np.flatnonzero(self.feasible)
        if indices.size == 0:
            raise OptimizationError(
                "no evaluated candidate satisfies the fairness constraint"
            )
        return self.evaluations[int(indices[np.argmax(self.objectives[indices])])]


#: A batch evaluator maps candidates to their model-predicted metrics in
#: one call (backed by the model's vectorized grid prediction).
BatchEvaluator = Callable[[Sequence[SearchCandidate]], EvaluatedCandidates]


class SearchStrategy(Protocol):
    """Interface of a search strategy over candidates."""

    name: str

    def search(
        self,
        candidates: Sequence[SearchCandidate],
        evaluate: BatchEvaluator,
    ) -> tuple[CandidateEvaluation, tuple[CandidateEvaluation, ...]]:
        """Return the best feasible evaluation and every evaluation performed."""
        ...


class ExhaustiveSearch:
    """Evaluate every candidate (the paper's approach for the 24-point grid).

    The whole grid goes through the batch evaluator in one call, which is
    what keeps the allocator fast on the much larger N-way candidate
    spaces.
    """

    name = "exhaustive"

    def search(
        self,
        candidates: Sequence[SearchCandidate],
        evaluate: BatchEvaluator,
    ) -> tuple[CandidateEvaluation, tuple[CandidateEvaluation, ...]]:
        """Evaluate every candidate and return the best feasible one."""
        if not candidates:
            raise OptimizationError("the candidate space is empty")
        evaluated = evaluate(candidates)
        return evaluated.best_feasible(), evaluated.evaluations


class HillClimbingSearch:
    """Greedy local search over the (state index, power-cap index) grid.

    The search space is organised as a two-dimensional grid: one axis indexes
    the candidate partition states, the other the candidate power caps.
    Starting from one (or several, ``restarts``) random grid points the
    search repeatedly moves to the best improving neighbour (±1 along either
    axis).  Infeasible points are allowed as intermediate steps but can never
    be returned as the final answer.  The start cell and each step's
    not-yet-evaluated neighbours are scored in one batch call.
    """

    name = "hill-climbing"

    def __init__(self, restarts: int = 3, seed: int = 2022) -> None:
        if restarts < 1:
            raise OptimizationError(f"restarts must be >= 1, got {restarts}")
        self._restarts = restarts
        self._seed = seed

    def search(
        self,
        candidates: Sequence[SearchCandidate],
        evaluate: BatchEvaluator,
    ) -> tuple[CandidateEvaluation, tuple[CandidateEvaluation, ...]]:
        """Hill climb from ``restarts`` random starting points."""
        if not candidates:
            raise OptimizationError("the candidate space is empty")
        states: list[tuple] = []
        caps: list[float] = []
        for candidate in candidates:
            if candidate.state.key() not in states:
                states.append(candidate.state.key())
            if candidate.power_cap_w not in caps:
                caps.append(candidate.power_cap_w)
        caps.sort()
        grid: dict[tuple[int, int], SearchCandidate] = {}
        for candidate in candidates:
            grid[(states.index(candidate.state.key()), caps.index(candidate.power_cap_w))] = candidate

        rng = np.random.default_rng(self._seed)
        cache: dict[tuple[int, int], CandidateEvaluation] = {}

        def evaluate_cells(cells: list[tuple[int, int]]) -> None:
            # One batch call for the cells not scored yet, in ``cells`` order.
            fresh = [cell for cell in cells if cell not in cache]
            if fresh:
                evaluated = evaluate([grid[cell] for cell in fresh])
                cache.update(zip(fresh, evaluated.evaluations))

        def score(evaluation: CandidateEvaluation) -> float:
            # Infeasible points rank below every feasible point.
            if evaluation.feasible:
                return evaluation.objective
            return evaluation.objective - 1e6

        cells = sorted(grid)
        for _ in range(self._restarts):
            current = cells[int(rng.integers(len(cells)))]
            evaluate_cells([current])
            current_eval = cache[current]
            improved = True
            while improved:
                improved = False
                si, pi = current
                neighbours = [
                    cell
                    for cell in ((si + 1, pi), (si - 1, pi), (si, pi + 1), (si, pi - 1))
                    if cell in grid
                ]
                evaluate_cells(neighbours)
                for cell in neighbours:
                    candidate_eval = cache[cell]
                    if score(candidate_eval) > score(current_eval):
                        current, current_eval = cell, candidate_eval
                        improved = True
        evaluated = EvaluatedCandidates.from_evaluations(cache.values())
        return evaluated.best_feasible(), evaluated.evaluations
