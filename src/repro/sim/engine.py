"""The execution engine: solo runs, co-runs, reference runs, profiling.

:class:`PerformanceSimulator` combines the other pieces of the substrate:

* the **roofline** composition scales a kernel's time components to its
  allocation (GPCs, memory slices) and to the current clock;
* the **interference model** adds LLC pollution and HBM-bandwidth contention
  between Compute Instances that share a GPU Instance (shared option);
* the **power model** plays the role of the driver's power-cap governor and
  throttles the chip clock until the modelled power fits under the cap;
* the **noise model** perturbs the final elapsed time the way real
  measurements wobble.

The simulator self-consistently resolves the circular dependencies between
these pieces (bandwidth shares depend on elapsed times, elapsed times depend
on the clock, the clock depends on utilizations, utilizations depend on
elapsed times): the governor bisects the clock, and each chip power it asks
for comes from a small bandwidth fixed point at that clock.  For fixed
placements that power is a pure function of the clock, so the simulator
keeps each co-location group's power curve (clock -> watts), and its fixed
point at each clock the governor selected, in a bounded memo.  Bisections
at different caps walk the same midpoints and mostly read it, and the
governor stops bisecting once the clock step is fixed.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.errors import SimulationError
from repro.gpu.mig import MemoryOption, PartitionState, solo_state
from repro.gpu.power import InstanceLoad, PowerModel
from repro.gpu.spec import A100_SPEC, GPUSpec
from repro.sim.counters import CounterVector, collect_counters
from repro.sim.interference import InterferenceModel
from repro.sim.noise import NoiseModel
from repro.sim.results import CoRunResult, RunResult
from repro.sim.roofline import TimeComponents, bound_of, elapsed_time
from repro.workloads.kernel import KernelCharacteristics

#: Iterations of the bandwidth-contention fixed point (damped; converges in
#: a handful of steps for small co-location groups).
_BANDWIDTH_ITERATIONS = 40

#: Damping factor of the fixed point (new = d*new + (1-d)*old).
_DAMPING = 0.6

#: Entries kept in the run-result memo (distinct (kernels, state, cap)
#: combinations; a bounded application mix stays far below this).
_RUN_CACHE_SIZE = 4096

#: Co-location groups whose power curve (relative clock -> chip watts) is
#: kept, together with the fixed point at each clock the governor selected.
#: Both hold only floats and tuples of floats, which the garbage collector
#: stops tracking, so a full memo adds no collection work.
_POWER_CURVE_CACHE_SIZE = 1024


@dataclass
class _Placement:
    """Internal description of one application's placement on the chip."""

    kernel: KernelCharacteristics
    gpcs: int
    #: Peak DRAM bandwidth reachable by this application, as a fraction of
    #: the full-chip bandwidth (its private slices, or its pool's capacity).
    bandwidth_capacity: float
    #: Identifier of the shared bandwidth pool (the GPU Instance) this
    #: application draws from, or ``None`` for a private placement.  Mixed
    #: partition states produce several independent pools.
    pool: int | None
    #: Interference penalties (>= 1); 1.0 for private/solo placements.
    compute_penalty: float = 1.0
    memory_penalty: float = 1.0


class _SolvedPlacement(NamedTuple):
    """Converged execution state of one placement at a fixed clock."""

    compute_s: float
    memory_s: float
    serial_s: float
    elapsed_s: float
    dram_bw_fraction: float


#: A fixed point: one solved placement per application.
_Solution = tuple[_SolvedPlacement, ...]

#: One co-location group's memo: chip power by clock, and the fixed point
#: at each clock the governor selected.
_PowerCurve = tuple[dict[float, float], dict[float, _Solution]]


class PerformanceSimulator:
    """Analytic executor for kernels on the simulated MIG/power-capped GPU.

    Parameters
    ----------
    spec:
        Hardware specification of the simulated GPU.
    interference:
        Interference model for the shared memory option (defaults to the
        calibrated :class:`~repro.sim.interference.InterferenceModel`).
    noise:
        Measurement-noise model; pass ``NoiseModel(sigma=0.0)`` (or
        :func:`repro.sim.noise.no_noise`) for exact, repeatable numbers.
    power_model:
        Chip power model / power-cap governor.
    """

    def __init__(
        self,
        spec: GPUSpec = A100_SPEC,
        interference: InterferenceModel | None = None,
        noise: NoiseModel | None = None,
        power_model: PowerModel | None = None,
    ) -> None:
        self._spec = spec
        self._interference = (
            interference if interference is not None else InterferenceModel(spec=spec)
        )
        self._noise = noise if noise is not None else NoiseModel()
        self._power = power_model if power_model is not None else PowerModel(spec)
        self._reference_cache: dict[tuple, float] = {}
        self._run_cache: OrderedDict[tuple, CoRunResult] = OrderedDict()
        self._power_curves: OrderedDict[tuple, _PowerCurve] = OrderedDict()
        # Signature memo keyed by object identity with a weakref guard: a
        # dead kernel's recycled address can never alias a fresh one, and
        # dead entries evict themselves via the ref callback.
        self._kernel_sig_cache: dict[
            int, tuple[weakref.ref[KernelCharacteristics], tuple]
        ] = {}

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def spec(self) -> GPUSpec:
        """The hardware specification in use."""
        return self._spec

    @property
    def interference(self) -> InterferenceModel:
        """The interference model in use."""
        return self._interference

    @property
    def noise(self) -> NoiseModel:
        """The measurement-noise model in use."""
        return self._noise

    @property
    def power_model(self) -> PowerModel:
        """The power model / governor in use."""
        return self._power

    # ------------------------------------------------------------------
    # Profiling and reference runs
    # ------------------------------------------------------------------
    def profile(self, kernel: KernelCharacteristics) -> CounterVector:
        """Collect the Table 3 counters of a solo, full-GPU profile run."""
        return collect_counters(kernel, self._spec)

    def reference_time(self, kernel: KernelCharacteristics) -> float:
        """Elapsed time of the exclusive solo run used for normalization.

        The paper normalizes every relative performance to a solo run on the
        full GPU (MIG disabled) at the default power limit.  The value is
        noise free: it is the fixed denominator of every ``RPerf``.
        """
        key = (
            kernel.name,
            kernel.compute_time_full_s,
            kernel.memory_time_full_s,
            kernel.serial_time_s,
        )
        cached = self._reference_cache.get(key)
        if cached is not None:
            return cached
        placement = _Placement(
            kernel=kernel,
            gpcs=self._spec.n_gpcs,
            bandwidth_capacity=1.0,
            pool=None,
        )
        # The memo above already answers repeats, so the curve is not kept.
        solved, _, _ = self._solve(
            [placement],
            power_cap_w=self._spec.default_power_limit_w,
            powered_gpcs=self._spec.n_gpcs,
            curve=({}, {}),
        )
        reference = solved[0].elapsed_s
        self._reference_cache[key] = reference
        return reference

    # ------------------------------------------------------------------
    # Runs
    # ------------------------------------------------------------------
    def solo_run(
        self,
        kernel: KernelCharacteristics,
        state: PartitionState | None = None,
        power_cap_w: float | None = None,
    ) -> RunResult:
        """Execute ``kernel`` alone on a (possibly partitioned) GPU.

        ``state`` must describe a single application; it defaults to the full
        MIG partition (7 GPCs, private).  ``power_cap_w`` defaults to the
        device's factory limit.
        """
        if state is None:
            state = solo_state(self._spec.mig_gpcs, MemoryOption.PRIVATE)
        if state.n_apps != 1:
            raise SimulationError(
                f"solo_run needs a single-application state, got {state.describe()}"
            )
        result = self._run(state, (kernel,), power_cap_w)
        return result.per_app[0]

    def co_run(
        self,
        kernels: Sequence[KernelCharacteristics],
        state: PartitionState,
        power_cap_w: float | None = None,
    ) -> CoRunResult:
        """Co-execute a group of ``kernels`` under partition state ``state``.

        The group may have any size the state describes (N >= 1): solo runs
        and the paper's pairs are the N=1 and N=2 special cases, and mixed
        states with several shared GPU Instances are resolved with one
        bandwidth pool per instance.
        """
        if state.n_apps != len(kernels):
            raise SimulationError(
                f"state {state.describe()} describes {state.n_apps} applications "
                f"but {len(kernels)} kernels were supplied"
            )
        return self._run(state, tuple(kernels), power_cap_w)

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    def _run(
        self,
        state: PartitionState,
        kernels: tuple[KernelCharacteristics, ...],
        power_cap_w: float | None,
    ) -> CoRunResult:
        cap = (
            self._spec.default_power_limit_w
            if power_cap_w is None
            else self._spec.validate_power_cap(power_cap_w)
        )
        # Every input below is deterministic — the roofline/interference/power
        # pipeline is a pure function of (kernels, state, cap) and the noise
        # model derives its perturbation from a content hash, not an RNG
        # stream — so identical runs can be answered from a memo.  The key
        # captures kernels *behaviourally* (dataclass fields, not identity),
        # includes ``state.label`` (``state.key()`` ignores it but the result
        # embeds the state object), and pins the noise parameters in case the
        # model is swapped in place.
        signatures = tuple(self._kernel_signature(kernel) for kernel in kernels)
        cache_key = (
            signatures,
            state.key(),
            state.label,
            cap,
            self._noise.sigma,
            self._noise.seed,
        )
        cached = self._run_cache.get(cache_key)
        if cached is not None:
            self._run_cache.move_to_end(cache_key)
            return cached
        # Validation is a pure function of the state's content, which the
        # cache key captures — a hit implies the state already validated.
        state.validate_against(self._spec)
        placements = self._build_placements(state, kernels)
        powered_gpcs = self._spec.mig_gpcs
        curve = self._power_curve((signatures, state.key(), powered_gpcs))
        solved, frequency, chip_power = self._solve(placements, cap, powered_gpcs, curve)

        per_app: list[RunResult] = []
        for index, (kernel, placement, solution) in enumerate(
            zip(kernels, placements, solved)
        ):
            reference = self.reference_time(kernel)
            noise_key = (
                kernel.name,
                state.key(),
                index,
                round(cap, 3),
            )
            measured = self._noise.apply(solution.elapsed_s, noise_key)
            per_app.append(
                RunResult(
                    kernel_name=kernel.name,
                    state=state,
                    app_index=index,
                    power_cap_w=cap,
                    elapsed_s=measured,
                    noiseless_elapsed_s=solution.elapsed_s,
                    reference_s=reference,
                    relative_performance=reference / measured,
                    relative_frequency=frequency,
                    compute_time_s=solution.compute_s,
                    memory_time_s=solution.memory_s,
                    serial_time_s=solution.serial_s,
                    achieved_bandwidth_gbs=solution.dram_bw_fraction
                    * self._spec.dram_bandwidth_gbs,
                    chip_power_w=chip_power,
                    bound=bound_of(
                        TimeComponents(solution.compute_s, solution.memory_s, solution.serial_s)
                    ),
                )
            )
        result = CoRunResult(
            state=state,
            power_cap_w=cap,
            per_app=tuple(per_app),
            chip_power_w=chip_power,
            relative_frequency=frequency,
        )
        self._run_cache[cache_key] = result
        if len(self._run_cache) > _RUN_CACHE_SIZE:
            self._run_cache.popitem(last=False)
        return result

    def _power_curve(self, key: tuple) -> _PowerCurve:
        """The memoized power curve of one co-location group (LRU-bounded).

        ``key`` is ``(kernel signatures, state.key(), powered GPCs)``: the
        placements, and hence the chip power and the fixed point at every
        clock, are a pure function of it.
        """
        curves = self._power_curves
        curve = curves.get(key)
        if curve is not None:
            curves.move_to_end(key)
            return curve
        curve = curves[key] = ({}, {})
        if len(curves) > _POWER_CURVE_CACHE_SIZE:
            curves.popitem(last=False)
        return curve

    def _kernel_signature(self, kernel: KernelCharacteristics) -> tuple:
        """Hashable snapshot of every kernel field the pipeline reads.

        ``KernelCharacteristics`` itself is unhashable (``pipe_fractions``
        is a dict), so the memo keys on ``id(kernel)`` — with a weakref
        identity guard: the stored ref must still point at *this* kernel,
        so a dead kernel's recycled address can never alias a fresh one,
        and the ref's callback evicts the entry instead of pinning the
        kernel alive forever.
        """
        cache = self._kernel_sig_cache
        key = id(kernel)
        entry = cache.get(key)
        if entry is not None and entry[0]() is kernel:
            return entry[1]
        signature = (
            kernel.name,
            kernel.compute_time_full_s,
            kernel.memory_time_full_s,
            kernel.serial_time_s,
            tuple(sorted(kernel.pipe_fractions.items())),
            kernel.l2_hit_rate,
            kernel.occupancy,
            kernel.working_set_mb,
            kernel.l2_sensitivity,
        )
        try:
            ref = weakref.ref(kernel, lambda _, c=cache, k=key: c.pop(k, None))
        except TypeError:
            # A slotted kernel subclass without __weakref__: skip the memo
            # rather than risk an unguarded id-keyed entry.
            return signature
        cache[key] = (ref, signature)
        return signature

    def _build_placements(
        self,
        state: PartitionState,
        kernels: tuple[KernelCharacteristics, ...],
    ) -> list[_Placement]:
        """One placement per application; pools follow the scheme's domains.

        Interference (cache pollution, bandwidth contention) only couples
        applications that draw from the same *contended* memory domain —
        the spec's partition scheme decides the domains: one per GPU
        Instance on MIG-style parts (all applications under the shared
        option, the members of each ``gi_groups`` group under the mixed
        option, nobody under the private option), one per NPS domain on
        independent-axes parts.
        """
        placements: list[_Placement] = []
        pool_of: dict[int, int] = {}
        for pool_id, pool in enumerate(
            self._spec.scheme.memory_pools(self._spec, state)
        ):
            if pool.contended:
                for index in pool.members:
                    pool_of[index] = pool_id
        for index, kernel in enumerate(kernels):
            allocation = state.allocation_for(index, self._spec)
            bandwidth_capacity = allocation.mem_slices / self._spec.n_mem_slices
            co_located = state.group_of(index)
            others = [kernels[j] for j in co_located if j != index]
            if others:
                # Contention happens inside the hosting memory domain, whose
                # LLC share is proportional to its memory slices — a
                # sub-chip shared GI (mixed layouts) is polluted harder
                # than the full-chip pool by the same co-runner.
                compute_penalty = self._interference.compute_penalty(
                    kernel, others, pool_mem_slices=allocation.mem_slices
                )
                memory_penalty = self._interference.memory_penalty(
                    kernel, others, pool_mem_slices=allocation.mem_slices
                )
            else:
                compute_penalty = 1.0
                memory_penalty = 1.0
            placements.append(
                _Placement(
                    kernel=kernel,
                    gpcs=allocation.gpcs,
                    bandwidth_capacity=bandwidth_capacity,
                    pool=pool_of.get(index),
                    compute_penalty=compute_penalty,
                    memory_penalty=memory_penalty,
                )
            )
        return placements

    # ------------------------------------------------------------------
    def _solve(
        self,
        placements: Sequence[_Placement],
        power_cap_w: float,
        powered_gpcs: int,
        curve: _PowerCurve,
    ) -> tuple[_Solution, float, float]:
        """Resolve clock, bandwidth shares, and elapsed times under the cap.

        ``curve`` memoizes these placements' chip power by clock and their
        fixed point at each selected clock; it is read and filled here.
        """
        power_by_clock, selected = curve
        # Fixed points solved during this call, so the selected clock's is
        # not solved twice.
        fresh: dict[float, _Solution] = {}

        def power_at(frequency: float) -> float:
            power = power_by_clock.get(frequency)
            if power is None:
                solved = fresh[frequency] = self._solve_at_frequency(placements, frequency)
                loads = self._loads_from_solution(placements, solved)
                power = power_by_clock[frequency] = self._power.total_power(
                    loads, frequency, powered_gpcs
                )
            return power

        frequency = self._power.max_frequency_under_cap(power_at, power_cap_w)
        chip_power = power_at(frequency)
        solved = selected.get(frequency)
        if solved is None:
            solved = fresh.get(frequency)
            if solved is None:
                solved = self._solve_at_frequency(placements, frequency)
            selected[frequency] = solved
        return solved, frequency, chip_power

    def _solve_at_frequency(
        self,
        placements: Sequence[_Placement],
        frequency: float,
    ) -> _Solution:
        """Fixed point of the bandwidth-contention problem at a given clock."""
        spec = self._spec
        n = len(placements)
        compute_times = [
            p.kernel.compute_time_full_s
            * (spec.n_gpcs / p.gpcs)
            / frequency
            * p.compute_penalty
            for p in placements
        ]
        # Memory time at full-chip bandwidth, including the pollution penalty.
        memory_full = [
            p.kernel.memory_time_full_s * p.memory_penalty for p in placements
        ]
        serial_times = [p.kernel.serial_time_s for p in placements]

        # Initial guess: everyone sees their full capacity.
        memory_times = [
            (memory_full[i] / placements[i].bandwidth_capacity if memory_full[i] > 0 else 0.0)
            for i in range(n)
        ]
        elapsed = [
            max(compute_times[i], memory_times[i]) + serial_times[i] for i in range(n)
        ]

        pools: dict[int, list[int]] = {}
        for i in range(n):
            if placements[i].pool is not None:
                pools.setdefault(placements[i].pool, []).append(i)
        for shared_indices in pools.values():
            if len(shared_indices) <= 1:
                continue
            pool_capacity = max(
                placements[i].bandwidth_capacity for i in shared_indices
            )
            for _ in range(_BANDWIDTH_ITERATIONS):
                demands = {
                    i: (memory_full[i] / elapsed[i] if elapsed[i] > 0 else 0.0)
                    for i in shared_indices
                }
                total_demand = sum(demands.values())
                new_elapsed = list(elapsed)
                for i in shared_indices:
                    if memory_full[i] <= 0:
                        continue
                    others_demand = total_demand - demands[i]
                    if total_demand > 0:
                        proportional = pool_capacity * demands[i] / total_demand
                    else:
                        proportional = pool_capacity
                    available = max(pool_capacity - others_demand, proportional)
                    available = min(available, placements[i].bandwidth_capacity)
                    available = max(available, 1e-6)
                    memory_times[i] = memory_full[i] / available
                    new_elapsed[i] = (
                        max(compute_times[i], memory_times[i]) + serial_times[i]
                    )
                converged = True
                for i in shared_indices:
                    blended = _DAMPING * new_elapsed[i] + (1.0 - _DAMPING) * elapsed[i]
                    if abs(blended - elapsed[i]) > 1e-9 * max(elapsed[i], 1e-9):
                        converged = False
                    elapsed[i] = blended
                if converged:
                    break
            # Recompute elapsed exactly from the final memory times.
            for i in shared_indices:
                elapsed[i] = max(compute_times[i], memory_times[i]) + serial_times[i]

        solved: list[_SolvedPlacement] = []
        for i in range(n):
            components = TimeComponents(
                compute_s=compute_times[i],
                memory_s=memory_times[i],
                serial_s=serial_times[i],
            )
            total = elapsed_time(components)
            dram_bw_fraction = memory_full[i] / total if total > 0 else 0.0
            solved.append(
                _SolvedPlacement(
                    compute_s=compute_times[i],
                    memory_s=memory_times[i],
                    serial_s=serial_times[i],
                    elapsed_s=total,
                    dram_bw_fraction=min(1.0, dram_bw_fraction),
                )
            )
        return tuple(solved)

    def _loads_from_solution(
        self,
        placements: Sequence[_Placement],
        solved: Sequence[_SolvedPlacement],
    ) -> list[InstanceLoad]:
        loads: list[InstanceLoad] = []
        for placement, solution in zip(placements, solved):
            if solution.elapsed_s <= 0:
                busy_fraction = 0.0
            else:
                busy_fraction = min(
                    1.0, solution.compute_s / solution.elapsed_s
                )
            loads.append(
                InstanceLoad(
                    n_gpcs=placement.gpcs,
                    cuda_utilization=busy_fraction * placement.kernel.cuda_fraction,
                    tensor_utilization=busy_fraction * placement.kernel.tensor_fraction,
                    dram_bw_fraction=solution.dram_bw_fraction,
                )
            )
        return loads
