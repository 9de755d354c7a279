"""Micro-benchmarks of the N-way allocator: batched candidate-grid solves
and the LRU decision cache.

Every solve scores its whole grid in one vectorized call — that is what
makes spec-derived candidate spaces (hundreds of states instead of Table
5's four) affordable inside a scheduling loop.
"""

from __future__ import annotations

import pytest

from repro.core.optimizer import ResourcePowerAllocator
from repro.core.policies import Problem2Policy
from repro.core.workflow import PaperWorkflow, TrainingPlan
from repro.gpu.spec import A100_SPEC
from repro.sim.engine import PerformanceSimulator
from repro.sim.noise import no_noise
from repro.workloads.groups import corun_group


@pytest.fixture(scope="module")
def nway_workflow():
    """A workflow trained on the full spec-derived grid (supports N-way)."""
    workflow = PaperWorkflow(
        simulator=PerformanceSimulator(noise=no_noise()),
        plan=TrainingPlan.for_spec(A100_SPEC),
    )
    workflow.train()
    return workflow


@pytest.fixture(scope="module")
def group_counters(nway_workflow):
    group = corun_group("TI-CI-MI1")
    database = nway_workflow.online.database
    return [database.get(name).counters for name in group.apps]


@pytest.fixture(scope="module")
def group_states(nway_workflow):
    return nway_workflow.online.candidate_states_for(3)


def test_bench_nway_batched_solve(benchmark, nway_workflow, group_counters, group_states):
    """Steady-state batched N-way decision latency (cache disabled)."""
    policy = Problem2Policy(alpha=0.05)
    allocator = ResourcePowerAllocator(
        nway_workflow.model,
        candidate_states=group_states,
        cache_size=0,
    )
    decision = benchmark(lambda: allocator.solve(group_counters, policy, states=group_states))
    assert decision.state.n_apps == 3


def test_bench_nway_cached_decision(benchmark, nway_workflow, group_counters, group_states):
    """A cache hit answers the same request orders of magnitude faster."""
    policy = Problem2Policy(alpha=0.05)
    allocator = ResourcePowerAllocator(
        nway_workflow.model,
        candidate_states=group_states,
        cache_size=16,
    )
    allocator.solve(group_counters, policy, states=group_states)  # prime
    decision = benchmark(lambda: allocator.solve(group_counters, policy, states=group_states))
    assert allocator.cache.hits > 0
    assert decision.state.n_apps == 3
