"""The benchmark's workloads and the inputs each one makes from its seed.

Every input — replay traces and decide-request lists — is generated here
from the ``--seed`` argument with a private :class:`random.Random`; the
planner only ever receives the generated inputs.  ``scale`` shrinks every
size proportionally (the smoke tests run at a few percent of full size).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.api.requests import DecisionRequest
from repro.core.workflow import power_caps_for_spec
from repro.gpu.spec import spec_by_name
from repro.traces import bursty_trace, poisson_trace
from repro.traces.trace import Trace
from repro.workloads.mixes import mix_by_name
from repro.workloads.suite import DEFAULT_SUITE

#: Default seed; :data:`HELD_OUT_SEED` is kept for confirming a claim on a
#: seed not used while the change was written.
DEFAULT_SEED = 1
HELD_OUT_SEED = 9001

_ALPHAS = (0.1, 0.2, 0.3)


def decide_requests(
    spec: str,
    n_requests: int,
    seed: int,
    group_sizes: tuple[int, ...],
    repeat_share: float,
    policies: tuple[str, ...] = ("problem1", "problem2"),
    caps: tuple[float | None, ...] | None = None,
    alphas: tuple[float, ...] | None = _ALPHAS,
) -> tuple[DecisionRequest, ...]:
    """A seeded mix of decide requests over the whole suite.

    The mix is stratified, so every seed sends the same number of each
    kind of request: ``round(repeat_share * n_requests)`` exact repeats of
    an earlier request, and fresh requests spread evenly over every
    (group size, policy, fairness threshold) combination.  The seed picks
    the order, the applications of each fresh group, a repeat's original
    and, for Problem 1, one of ``caps`` (default: the spec's grid; a
    ``None`` cap asks for the session's default).  With ``alphas=None``
    each fresh request draws its own threshold, uniform in [0.05, 0.3], so
    no two of them share a decision memo entry.
    """
    rng = random.Random(seed)
    names = DEFAULT_SUITE.names()
    if caps is None:
        caps = power_caps_for_spec(spec_by_name(spec))
    n_repeats = round(repeat_share * n_requests) if n_requests > 1 else 0
    combos = [
        (size, policy, alpha)
        for size in group_sizes
        for policy in policies
        for alpha in (alphas or (None,))
    ]
    kinds = [combos[i % len(combos)] for i in range(n_requests - n_repeats)]
    kinds += [None] * n_repeats
    rng.shuffle(kinds)
    first_fresh = next(i for i, kind in enumerate(kinds) if kind is not None)
    kinds[0], kinds[first_fresh] = kinds[first_fresh], kinds[0]
    issued: list[DecisionRequest] = []
    requests = []
    for kind in kinds:
        if kind is None:
            requests.append(rng.choice(issued))
            continue
        size, policy, alpha = kind
        apps = tuple(rng.sample(names, size))
        if alpha is None:
            alpha = round(rng.uniform(0.05, 0.3), 6)
        if policy == "problem1":
            request = DecisionRequest(
                apps, "problem1", power_cap_w=rng.choice(caps), alpha=alpha, spec=spec
            )
        else:
            request = DecisionRequest(apps, "problem2", alpha=alpha, spec=spec)
        issued.append(request)
        requests.append(request)
    return tuple(requests)


def _scaled(size: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(size * scale))


@dataclass(frozen=True)
class ReplayWorkload:
    """A trace replay through ``ClusterSimulator.run``, then a decide probe.

    The probe sends ``probe_requests`` closed-loop ``PlannerService.decide``
    calls on the replay's session after the replay, under the replay's
    policy and cap: warm decide latency on that spec.  Other caps would add
    one-off candidate-state enumerations (tens of milliseconds each) whose
    count does not grow with the probe, and the p99 would land on them.
    Every probe request has its own fairness threshold, so each one is
    solved: with repeats the p50 would sit between memo hits and solves.
    The probe is never traced.
    """

    name: str
    why: str
    spec: str
    group_size: int
    n_nodes: int
    n_jobs: int
    arrival_rate_per_s: float
    policy: str
    window_size: int = 6
    power_cap_w: float | None = None
    alpha: float = 0.2
    mix: str = "steady"
    burst_size: float | None = None
    repartition_latency_s: float = 0.0
    power_budget_w: float | None = None
    probe_requests: int = 2_000

    kind = "replay"

    def trace(self, seed: int, scale: float = 1.0) -> Trace:
        n_jobs = _scaled(self.n_jobs, scale, floor=20)
        if self.burst_size is None:
            return poisson_trace(
                self.arrival_rate_per_s, n_jobs=n_jobs, seed=seed, mix=mix_by_name(self.mix)
            )
        return bursty_trace(
            self.arrival_rate_per_s / self.burst_size,
            self.burst_size,
            duration_s=1e9,
            n_jobs=n_jobs,
            seed=seed,
            mix=mix_by_name(self.mix),
        )

    def probe(self, seed: int, scale: float = 1.0) -> tuple[DecisionRequest, ...]:
        return decide_requests(
            self.spec,
            _scaled(self.probe_requests, scale, floor=10),
            seed + 1,
            group_sizes=(self.group_size,),
            repeat_share=0.0,
            policies=(self.policy,),
            caps=(self.power_cap_w,),
            alphas=None,
        )


@dataclass(frozen=True)
class DecideWorkload:
    """A closed loop of ``PlannerService.decide`` requests (one caller)."""

    name: str
    why: str
    spec: str
    n_requests: int
    group_sizes: tuple[int, ...]
    repeat_share: float

    kind = "decide"

    @property
    def group_size(self) -> int:
        """The group size whose session serves the mix (all share one grid)."""
        return max(self.group_sizes)

    def requests(self, seed: int, scale: float = 1.0) -> tuple[DecisionRequest, ...]:
        return decide_requests(
            self.spec,
            _scaled(self.n_requests, scale, floor=10),
            seed,
            self.group_sizes,
            self.repeat_share,
        )


WORKLOADS: dict[str, ReplayWorkload | DecideWorkload] = {
    w.name: w
    for w in (
        ReplayWorkload(
            name="replay-a100-pairs",
            why="paper's A100 pairs under sustained overload: every dispatch plans "
            "a pair from a full window, so the loop, scheduler and node admin work",
            spec="a100",
            group_size=2,
            n_nodes=8,
            n_jobs=4_000,
            arrival_rate_per_s=30.0,
            policy="problem1",
            power_cap_w=230.0,
        ),
        ReplayWorkload(
            name="replay-a100-budget",
            why="cluster power budget, MIG repartition latency and memory-heavy "
            "bursts: clamped caps miss the co-run cache, so engine/governor work",
            spec="a100",
            group_size=2,
            n_nodes=32,
            n_jobs=2_000,
            arrival_rate_per_s=8.0,
            policy="problem1",
            power_cap_w=230.0,
            mix="memory-heavy",
            burst_size=4.0,
            repartition_latency_s=1.0,
            power_budget_w=32 * 190.0,
        ),
        DecideWorkload(
            name="decide-mi300x-mix",
            why="one closed-loop caller of PlannerService.decide on MI300X "
            "(MCPxNPS partitions): Problem 1/2, 2- and 3-app groups, 30% repeats",
            spec="mi300x",
            n_requests=1_000,
            group_sizes=(2, 3),
            repeat_share=0.3,
        ),
    )
}
