"""Decision pins: the allocator's answers on a seeded request mix.

``data/decision_pins.json`` was captured before the allocator's
per-candidate (scalar) evaluation path was deleted, when grids of up to 24
candidates were still scored one candidate at a time.  It holds, for every
request, the chosen ``(state.key(), power_cap_w, candidates_evaluated)``
(``null`` when the fairness constraint makes the request infeasible):

* ``decide`` — 80 :class:`~repro.api.requests.DecisionRequest` answers:
  the A100 Table 5 pair grid, the H100 N-way grid and MI300X, for groups
  of 2 and 3, Problem 1 at a random grid cap and Problem 2, each at
  α ∈ {0.05, 0.1, 0.2, 0.3};
* ``hill_climbing`` — hill-climbing solves of every Table 5 pair on the
  A100 grid (Problem 2, three seeds and α values), with the cells the
  search evaluated, in evaluation order.

Every grid now goes through the batched kernel; a mismatch here is a
decision flip to investigate, not a pin to re-capture.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api.requests import DecisionRequest
from repro.api.service import PlannerService
from repro.core.optimizer import ResourcePowerAllocator
from repro.core.policies import Problem2Policy
from repro.core.search import HillClimbingSearch
from repro.errors import InfeasibleProblemError

PINS = json.loads((Path(__file__).parent / "data" / "decision_pins.json").read_text())


def _jsonable(value):
    return json.loads(json.dumps(value))


def _pin(decision):
    return _jsonable(
        [decision.state.key(), decision.power_cap_w, decision.candidates_evaluated]
    )


@pytest.fixture(scope="module")
def service():
    return PlannerService()


def _entry_id(entry):
    return "-".join(
        [entry["spec"], entry["policy"], *entry["apps"], str(entry["alpha"])]
    )


@pytest.mark.parametrize("entry", PINS["decide"], ids=_entry_id)
def test_decide_matches_the_pinned_decision(service, entry):
    request = DecisionRequest(
        tuple(entry["apps"]),
        entry["policy"],
        power_cap_w=entry["power_cap_w"],
        alpha=entry["alpha"],
        spec=entry["spec"],
    )
    workflow = service.session_for(request.spec, request.group_size).workflow
    try:
        if request.policy == "problem1":
            decision = workflow.decide_problem1(
                list(request.apps), request.power_cap_w, request.alpha
            )
        else:
            decision = workflow.decide_problem2(list(request.apps), request.alpha)
    except InfeasibleProblemError:
        assert entry["decision"] is None
    else:
        assert _pin(decision) == entry["decision"]


def test_the_mix_covers_every_pinned_dimension():
    entries = PINS["decide"]
    assert {e["spec"] for e in entries} == {"a100", "h100", "mi300x"}
    assert {len(e["apps"]) for e in entries} == {2, 3}
    assert {e["policy"] for e in entries} == {"problem1", "problem2"}
    assert len({e["alpha"] for e in entries}) == 4
    assert any(e["decision"] is None for e in entries)


@pytest.mark.parametrize(
    "entry",
    PINS["hill_climbing"],
    ids=lambda e: f"{'-'.join(e['apps'])}-seed{e['seed']}",
)
def test_hill_climbing_visits_the_pinned_cells(service, entry):
    workflow = service.session_for("a100", 2).workflow
    counters = [workflow.online.database.get(name).counters for name in entry["apps"]]
    allocator = ResourcePowerAllocator(
        workflow.model,
        search=HillClimbingSearch(restarts=3, seed=entry["seed"]),
        cache_size=0,
    )
    decision = allocator.solve(counters, Problem2Policy(alpha=entry["alpha"]))
    assert _pin(decision) == entry["decision"]
    visited = [[e.state.key(), e.power_cap_w] for e in decision.evaluations]
    assert _jsonable(visited) == entry["visited"]
