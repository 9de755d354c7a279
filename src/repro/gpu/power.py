"""Chip power model and power-cap governor.

The paper controls the GPU with chip-level power caps set through
``nvidia-smi`` (150 W … 250 W).  On real hardware the driver enforces the
cap by throttling the clock; this module reproduces that behaviour
analytically:

* :class:`PowerModel` computes the chip power for a given operating point
  (relative clock frequency) and a set of *instance loads* — per-MIG-instance
  utilization of the CUDA cores, Tensor Cores, and DRAM bandwidth.
* :meth:`PowerModel.max_frequency_under_cap` plays the role of the driver's
  governor: it finds the highest (quantized) clock at which the modelled
  power stays under the cap, bisecting only until the clock step is fixed.

The power decomposition is deliberately simple but captures the effects that
drive the paper's observations:

* Tensor-Core activity is the most power-hungry per GPC, so Tensor-intensive
  kernels (``hgemm`` & friends) are throttled hardest under low caps
  (Figure 5).
* Memory-bound kernels (``stream``) and unscalable kernels (``kmeans``)
  leave the compute pipes mostly idle, so the cap barely affects them.
* Power grows with the number of *active* GPCs, so small partitions are
  naturally less affected by the cap than the full chip.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ConfigurationError
from repro.gpu.clocks import DVFSModel
from repro.gpu.spec import A100_SPEC, GPUSpec
from repro.units import clamp


@dataclass(frozen=True)
class InstanceLoad:
    """Steady-state activity of one MIG instance (or of the whole chip).

    Attributes
    ----------
    n_gpcs:
        Number of GPCs executing this load.
    cuda_utilization:
        Average utilization of the CUDA (FP32/FP64) pipes, in ``[0, 1]``.
    tensor_utilization:
        Average utilization of the Tensor-Core pipes, in ``[0, 1]``.
    dram_bw_fraction:
        Achieved DRAM bandwidth as a fraction of the *full chip* peak
        bandwidth, in ``[0, 1]``.
    """

    n_gpcs: int
    cuda_utilization: float
    tensor_utilization: float
    dram_bw_fraction: float

    def __post_init__(self) -> None:
        if self.n_gpcs <= 0:
            raise ConfigurationError(f"n_gpcs must be positive, got {self.n_gpcs}")
        for name, value in (
            ("cuda_utilization", self.cuda_utilization),
            ("tensor_utilization", self.tensor_utilization),
            ("dram_bw_fraction", self.dram_bw_fraction),
        ):
            if not (-1e-9 <= value <= 1.0 + 1e-9):
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")


#: Backwards-compatible alias — a GPC-granularity load is just an
#: :class:`InstanceLoad` with ``n_gpcs`` GPCs.
GPCLoad = InstanceLoad


@dataclass(frozen=True)
class PowerBreakdown:
    """Decomposition of the modelled chip power at one operating point."""

    static_w: float
    gpc_idle_w: float
    gpc_dynamic_w: float
    hbm_idle_w: float
    hbm_dynamic_w: float
    relative_frequency: float

    @property
    def total_w(self) -> float:
        """Total chip power in watts."""
        return (
            self.static_w
            + self.gpc_idle_w
            + self.gpc_dynamic_w
            + self.hbm_idle_w
            + self.hbm_dynamic_w
        )


class PowerModel:
    """Analytic chip power model with a power-cap governor.

    Parameters
    ----------
    spec:
        Hardware specification supplying the power-model constants.
    dvfs:
        DVFS model used for power scaling and clock quantization; a default
        one is built from ``spec`` when omitted.
    """

    def __init__(self, spec: GPUSpec = A100_SPEC, dvfs: DVFSModel | None = None) -> None:
        self._spec = spec
        self._dvfs = dvfs if dvfs is not None else DVFSModel(spec)

    @property
    def spec(self) -> GPUSpec:
        """The hardware specification the model was built from."""
        return self._spec

    @property
    def dvfs(self) -> DVFSModel:
        """The DVFS model used by the governor."""
        return self._dvfs

    # ------------------------------------------------------------------
    # Forward power model
    # ------------------------------------------------------------------
    def breakdown(
        self,
        loads: Sequence[InstanceLoad],
        relative_frequency: float,
        powered_gpcs: int | None = None,
    ) -> PowerBreakdown:
        """Compute the power breakdown at a given operating point.

        Parameters
        ----------
        loads:
            Per-instance activity descriptors.  The sum of their ``n_gpcs``
            must not exceed ``powered_gpcs``.
        relative_frequency:
            Chip clock as a fraction of the boost clock.
        powered_gpcs:
            Number of GPCs that are powered on (idle GPCs still draw their
            idle power).  Defaults to the full chip; MIG mode powers only
            ``spec.mig_gpcs``.
        """
        if powered_gpcs is None:
            powered_gpcs = self._spec.n_gpcs
        if not (0 < powered_gpcs <= self._spec.n_gpcs):
            raise ConfigurationError(
                f"powered_gpcs must be in (0, {self._spec.n_gpcs}], got {powered_gpcs}"
            )
        busy_gpcs = sum(load.n_gpcs for load in loads)
        if busy_gpcs > powered_gpcs:
            raise ConfigurationError(
                f"loads occupy {busy_gpcs} GPCs but only {powered_gpcs} are powered"
            )
        scale = self._dvfs.dynamic_power_scale(relative_frequency)
        gpc_dynamic = 0.0
        total_bw_fraction = 0.0
        for load in loads:
            per_gpc = (
                self._spec.gpc_cuda_power_w * load.cuda_utilization
                + self._spec.gpc_tensor_power_w * load.tensor_utilization
            )
            gpc_dynamic += load.n_gpcs * per_gpc * scale
            total_bw_fraction += load.dram_bw_fraction
        total_bw_fraction = clamp(total_bw_fraction, 0.0, 1.0)
        return PowerBreakdown(
            static_w=self._spec.static_power_w,
            gpc_idle_w=powered_gpcs * self._spec.gpc_idle_power_w,
            gpc_dynamic_w=gpc_dynamic,
            hbm_idle_w=self._spec.hbm_idle_power_w,
            hbm_dynamic_w=self._spec.hbm_dynamic_power_w * total_bw_fraction,
            relative_frequency=relative_frequency,
        )

    def total_power(
        self,
        loads: Sequence[InstanceLoad],
        relative_frequency: float,
        powered_gpcs: int | None = None,
    ) -> float:
        """Total chip power in watts at the given operating point."""
        return self.breakdown(loads, relative_frequency, powered_gpcs).total_w

    def idle_power(self, powered_gpcs: int | None = None) -> float:
        """Chip power with every pipe idle (no kernels running)."""
        return self.breakdown([], self._spec.min_relative_frequency, powered_gpcs).total_w

    # ------------------------------------------------------------------
    # Power-cap governor
    # ------------------------------------------------------------------
    def max_frequency_under_cap(
        self,
        power_at: Callable[[float], float],
        power_cap_w: float,
        tolerance: float = 1e-4,
    ) -> float:
        """Highest quantized relative frequency whose power fits under the cap.

        The governor bisects the relative clock and floors the result to the
        clock ladder.  Flooring is monotone, so once both ends of the
        bracket floor to the same step ``q`` every later lower end does too;
        the bisection stops there whenever the final guard would keep ``q``
        (its power fits the cap, or it is the lowest clock), and otherwise
        runs on to ``tolerance`` so the guard's fallback sees the same lower
        end.  Either way the answer is the full bisection's, bit for bit.

        Parameters
        ----------
        power_at:
            Callable mapping a relative frequency to the chip power in watts
            at that frequency.  The execution engine supplies this because
            the pipe utilizations themselves depend on the operating point (a
            throttled compute-bound kernel stays fully busy; a throttled
            memory-bound kernel becomes *less* compute-utilized), and it
            memoizes the curve per co-location group.
        power_cap_w:
            The chip-level power cap in watts.
        tolerance:
            Bisection convergence tolerance on the relative frequency.

        Returns
        -------
        float
            The selected relative frequency.  If even the lowest clock
            exceeds the cap the lowest clock is returned (a real GPU cannot
            stop the clock entirely either).
        """
        self._spec.validate_power_cap(power_cap_w)
        min_relative = self._spec.min_relative_frequency
        quantize = self._dvfs.quantize
        lo = min_relative
        hi = 1.0
        if power_at(hi) <= power_cap_w:
            return 1.0
        if power_at(lo) > power_cap_w:
            return quantize(lo)

        def over_cap(selected: float) -> bool:
            # Quantization floors the frequency, so the cap normally still
            # holds; this catches pathological cases where it does not.
            return power_at(selected) > power_cap_w + 1e-6 and selected > min_relative

        step_fixed = False
        # The power model is monotonically increasing in f for fixed work,
        # so a plain bisection finds the crossing point.
        while hi - lo > tolerance:
            if not step_fixed and quantize(lo) == quantize(hi):
                step_fixed = True
                selected = quantize(lo)
                if not over_cap(selected):
                    return selected
            mid = 0.5 * (lo + hi)
            if power_at(mid) <= power_cap_w:
                lo = mid
            else:
                hi = mid
        selected = quantize(lo)
        if over_cap(selected):
            selected = quantize(max(min_relative, lo - self._spec.clock_step_ghz / self._spec.max_clock_ghz))
        return selected
