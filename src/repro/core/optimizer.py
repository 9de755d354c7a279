"""The Resource & Power Allocator (the right-hand half of Figure 1).

Given the profiles of the applications in a co-location group, the
allocator evaluates every candidate combination of partition state and power
cap with the linear performance model, filters by the fairness constraint,
and returns the combination that maximizes the policy's objective.

Two things keep the allocator fast when the candidate space grows beyond
the paper's 24-point grid (more applications, finer partitioning):

* every candidate grid, the paper's included, is predicted in one
  **batched** NumPy call (see :meth:`LinearPerfModel.predict_candidates`),
  then scored and selected on arrays, and
* identical requests are answered from a small **LRU decision cache**
  keyed by the profile signatures, the candidate grid, and the policy.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Sequence

import numpy as np

from repro.config import DEFAULT_POWER_CAPS
from repro.core.decision import AllocationDecision, CandidateEvaluation
from repro.core.metrics import fairness as fairness_metric
from repro.core.metrics import fairness_batch, weighted_speedup, weighted_speedup_batch
from repro.core.model import LinearPerfModel
from repro.core.policies import Policy, Problem1Policy, Problem2Policy
from repro.core.search import (
    EvaluatedCandidates,
    ExhaustiveSearch,
    SearchCandidate,
    SearchStrategy,
)
from repro.errors import InfeasibleProblemError, OptimizationError
from repro.gpu.mig import CORUN_STATES, PartitionState
from repro.sim.counters import CounterVector


class DecisionCache:
    """A small LRU cache of allocation decisions.

    Keys combine the (hashable) profile signatures of the group, the
    candidate grid, and the policy parameters; values are the frozen
    :class:`~repro.core.decision.AllocationDecision` records, which are safe
    to share between callers.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize < 0:
            raise OptimizationError(f"cache maxsize must be >= 0, got {maxsize}")
        self._maxsize = maxsize
        self._entries: OrderedDict[Hashable, AllocationDecision] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def maxsize(self) -> int:
        """Capacity of the cache (0 disables caching)."""
        return self._maxsize

    def get(self, key: Hashable) -> AllocationDecision | None:
        """Look up ``key``, refreshing its recency on a hit."""
        decision = self._entries.get(key)
        if decision is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return decision

    def put(self, key: Hashable, decision: AllocationDecision) -> None:
        """Insert ``key``, evicting the least recently used entry if full."""
        if self._maxsize == 0:
            return
        self._entries[key] = decision
        self._entries.move_to_end(key)
        while len(self._entries) > self._maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0


class ResourcePowerAllocator:
    """Chooses the partition state, job allocation, and power cap for a group.

    Parameters
    ----------
    model:
        A trained :class:`~repro.core.model.LinearPerfModel`.
    candidate_states:
        Partition/allocation states to consider (Table 5's S1–S4 by default).
        Job allocation is part of the state: S1 vs S2 (and S3 vs S4) differ
        only in which application receives the larger partition.  States for
        any group size may be mixed freely; each solve only considers the
        states matching its group.
    power_caps:
        Power caps Problem 2 may choose from.
    search:
        Search strategy over the candidate space (exhaustive by default, as
        in the paper).
    cache_size:
        Capacity of the LRU decision cache (0 disables caching).
    """

    def __init__(
        self,
        model: LinearPerfModel,
        candidate_states: Sequence[PartitionState] = CORUN_STATES,
        power_caps: Sequence[float] = DEFAULT_POWER_CAPS,
        search: SearchStrategy | None = None,
        cache_size: int = 4096,
    ) -> None:
        if not candidate_states:
            raise OptimizationError("at least one candidate partition state is required")
        if not power_caps:
            raise OptimizationError("at least one candidate power cap is required")
        if any(p <= 0 for p in power_caps):
            raise OptimizationError(f"power caps must be positive, got {tuple(power_caps)}")
        self._model = model
        self._states = tuple(candidate_states)
        self._power_caps = tuple(float(p) for p in power_caps)
        self._search: SearchStrategy = search if search is not None else ExhaustiveSearch()
        self._cache = DecisionCache(cache_size)

    # ------------------------------------------------------------------
    @property
    def model(self) -> LinearPerfModel:
        """The performance model used for predictions."""
        return self._model

    @property
    def candidate_states(self) -> tuple[PartitionState, ...]:
        """The candidate partition states."""
        return self._states

    @property
    def power_caps(self) -> tuple[float, ...]:
        """The candidate power caps for Problem 2."""
        return self._power_caps

    @property
    def cache(self) -> DecisionCache:
        """The LRU decision cache (exposes hit/miss statistics)."""
        return self._cache

    # ------------------------------------------------------------------
    # Candidate evaluation
    # ------------------------------------------------------------------
    def evaluate_candidate(
        self,
        counters_list: Sequence[CounterVector],
        state: PartitionState,
        power_cap_w: float,
        policy: Policy,
    ) -> CandidateEvaluation:
        """Model-predicted metrics of one ``(S, P)`` combination.

        A per-candidate convenience for analysis code; :meth:`solve` scores
        whole grids through :meth:`evaluate_candidates_batch`.
        """
        predictions = self._model.predict_corun(counters_list, state, power_cap_w)
        throughput = weighted_speedup(predictions)
        fairness = fairness_metric(predictions)
        return CandidateEvaluation(
            state=state,
            power_cap_w=float(power_cap_w),
            predicted_rperfs=tuple(predictions),
            predicted_throughput=throughput,
            predicted_fairness=fairness,
            objective=policy.objective(throughput, power_cap_w),
            feasible=bool(policy.is_feasible(fairness)),
        )

    def evaluate_candidates_batch(
        self,
        counters_list: Sequence[CounterVector],
        candidates: Sequence[SearchCandidate],
        policy: Policy,
    ) -> EvaluatedCandidates:
        """Metrics of many ``(S, P)`` combinations via one vectorized call.

        Predictions, throughput, fairness, objective and feasibility are
        computed over the grid's arrays; the per-candidate records are then
        built in one pass from plain Python values.
        """
        predictions = self._model.predict_candidates(
            counters_list, [(c.state, c.power_cap_w) for c in candidates]
        )
        power_caps = np.array([c.power_cap_w for c in candidates], dtype=float)
        throughputs = weighted_speedup_batch(predictions)
        fairnesses = fairness_batch(predictions)
        objectives = policy.objective(throughputs, power_caps)
        feasible = np.asarray(policy.is_feasible(fairnesses), dtype=bool)
        columns = zip(
            candidates,
            power_caps.tolist(),
            predictions.tolist(),
            throughputs.tolist(),
            fairnesses.tolist(),
            objectives.tolist(),
            feasible.tolist(),
        )
        evaluations = tuple(
            CandidateEvaluation(
                state=candidate.state,
                power_cap_w=cap,
                predicted_rperfs=tuple(rperfs),
                predicted_throughput=throughput,
                predicted_fairness=fairness,
                objective=objective,
                feasible=ok,
            )
            for candidate, cap, rperfs, throughput, fairness, objective, ok in columns
        )
        return EvaluatedCandidates(evaluations, objectives, feasible)

    def _states_for(
        self, n_apps: int, states: Sequence[PartitionState] | None
    ) -> tuple[PartitionState, ...]:
        pool = self._states if states is None else tuple(states)
        matching = tuple(state for state in pool if state.n_apps == n_apps)
        if not matching:
            raise InfeasibleProblemError(
                f"no candidate partition state describes {n_apps} application(s); "
                f"available group sizes: {sorted({s.n_apps for s in pool})}"
            )
        return matching

    def _candidates(
        self, policy: Policy, states: Sequence[PartitionState]
    ) -> list[SearchCandidate]:
        return [
            SearchCandidate(state=state, power_cap_w=float(power_cap))
            for state in states
            for power_cap in policy.candidate_power_caps()
        ]

    @staticmethod
    def _policy_key(policy: Policy) -> Hashable:
        return (
            type(policy).__name__,
            policy.name,
            float(policy.alpha),
            tuple(policy.candidate_power_caps()),
        )

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        counters_list: Sequence[CounterVector],
        policy: Policy,
        states: Sequence[PartitionState] | None = None,
    ) -> AllocationDecision:
        """Pick the best feasible ``(S, P)`` combination for ``policy``.

        ``states`` optionally overrides the configured candidate states
        (used by the online layer to supply spec-derived N-way states);
        either way only states matching the group size are considered.
        """
        matching_states = self._states_for(len(counters_list), states)
        cache_key = (
            tuple(counters_list),
            tuple(state.key() for state in matching_states),
            self._policy_key(policy),
            self._model.coefficients_version,
        )
        cached = self._cache.get(cache_key)
        if cached is not None:
            return cached
        candidates = self._candidates(policy, matching_states)

        def evaluate(batch: Sequence[SearchCandidate]) -> EvaluatedCandidates:
            return self.evaluate_candidates_batch(counters_list, batch, policy)

        try:
            best, evaluations = self._search.search(candidates, evaluate)
        except OptimizationError as exc:
            raise InfeasibleProblemError(
                f"policy {policy.name}: {exc} "
                f"(alpha={policy.alpha}, {len(candidates)} candidates)"
            ) from exc
        decision = AllocationDecision(
            state=best.state,
            power_cap_w=best.power_cap_w,
            predicted_rperfs=best.predicted_rperfs,
            predicted_throughput=best.predicted_throughput,
            predicted_fairness=best.predicted_fairness,
            predicted_objective=best.objective,
            policy_name=policy.name,
            candidates_evaluated=len(evaluations),
            evaluations=evaluations,
        )
        self._cache.put(cache_key, decision)
        return decision

    def solve_problem1(
        self,
        counters_list: Sequence[CounterVector],
        power_cap_w: float,
        alpha: float = 0.2,
    ) -> AllocationDecision:
        """Problem 1: maximize throughput at a fixed cap under the fairness constraint."""
        return self.solve(counters_list, Problem1Policy(power_cap_w=power_cap_w, alpha=alpha))

    def solve_problem2(
        self,
        counters_list: Sequence[CounterVector],
        alpha: float = 0.2,
    ) -> AllocationDecision:
        """Problem 2: maximize energy efficiency over both the state and the cap."""
        return self.solve(
            counters_list, Problem2Policy(alpha=alpha, power_caps=self._power_caps)
        )
