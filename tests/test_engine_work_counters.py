"""Machine-independent work counters of the execution engine.

The engine's cost is its bandwidth fixed point (``_solve_at_frequency``)
and the governor calls that ask for it.  These tests count both on two
fixed inputs and pin the exact numbers: a change that makes the engine do
more (or less) work shows up here as a changed count, not as timing noise.
A change that alters the work on purpose updates the pins and says why.
"""

from __future__ import annotations

import pytest

from repro.api import PlannerService, SimulationRequest
from repro.gpu.power import PowerModel
from repro.sim.engine import PerformanceSimulator

#: A 200-job slice of the budgeted A100 replay: memory-heavy bursts on 32
#: nodes under a 32 x 190 W budget, with MIG repartition latency.
BUDGETED_REPLAY = SimulationRequest(
    arrival_rate_per_s=8.0,
    duration_s=1e9,
    n_jobs=200,
    burst_size=4.0,
    mix="memory-heavy",
    seed=1,
    n_nodes=32,
    policy="problem1",
    power_cap_w=230.0,
    window_size=6,
    repartition_latency_s=1.0,
    power_budget_w=32 * 190.0,
)


@pytest.fixture
def work(monkeypatch):
    """Counts fixed-point solves and governor calls while the test runs."""
    counts = {"solves": 0, "governor_calls": 0}
    solve = PerformanceSimulator._solve_at_frequency
    governor = PowerModel.max_frequency_under_cap

    def counting_solve(self, *args, **kwargs):
        counts["solves"] += 1
        return solve(self, *args, **kwargs)

    def counting_governor(self, *args, **kwargs):
        counts["governor_calls"] += 1
        return governor(self, *args, **kwargs)

    monkeypatch.setattr(PerformanceSimulator, "_solve_at_frequency", counting_solve)
    monkeypatch.setattr(PowerModel, "max_frequency_under_cap", counting_governor)
    return counts


def test_a100_table5_session_build(work):
    service = PlannerService()
    service.session_for("a100", 2)
    assert work == {"solves": 2339, "governor_calls": 1896}


def test_budgeted_replay_on_a_built_session(work):
    service = PlannerService()
    service.session_for("a100", 2)
    work.update(solves=0, governor_calls=0)
    result = service.simulate(BUDGETED_REPLAY)
    assert result.n_jobs == 200
    assert work == {"solves": 235, "governor_calls": 87}
