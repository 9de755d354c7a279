"""Parity of the early-stopping power-cap governor with the full bisection.

:func:`full_bisection` keeps the governor as it was before it learned to
stop once the clock step is fixed: it bisects to the tolerance, floors the
result to the clock ladder and applies the same over-cap guard.  The
governor must return the very same float for every power function —
monotone ones, and non-monotone ones that make the guard fire.
"""

from __future__ import annotations

import math
from typing import Callable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.clocks import DVFSModel
from repro.gpu.mig import CORUN_STATES
from repro.gpu.power import PowerModel
from repro.gpu.spec import GPUSpec, spec_by_name
from repro.sim.engine import PerformanceSimulator
from repro.sim.noise import no_noise
from repro.workloads.suite import DEFAULT_SUITE

SPEC_NAMES = ("a100", "h100", "a30", "mi300x")


def full_bisection(
    spec: GPUSpec,
    dvfs: DVFSModel,
    power: Callable[[float], float],
    power_cap_w: float,
    tolerance: float = 1e-4,
) -> float:
    """The governor's full bisection, floor and guard, without early stop."""
    spec.validate_power_cap(power_cap_w)
    lo = spec.min_relative_frequency
    hi = 1.0
    if power(hi) <= power_cap_w:
        return 1.0
    if power(lo) > power_cap_w:
        return dvfs.quantize(lo)
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if power(mid) <= power_cap_w:
            lo = mid
        else:
            hi = mid
    selected = dvfs.quantize(lo)
    if power(selected) > power_cap_w + 1e-6 and selected > spec.min_relative_frequency:
        selected = dvfs.quantize(max(spec.min_relative_frequency, lo - spec.clock_step_ghz / spec.max_clock_ghz))
    return selected


def _curve(
    spec: GPUSpec, low_w: float, rise_w: float, exponent: float
) -> Callable[[float], float]:
    """A monotone power curve from ``low_w`` at the lowest clock upwards."""
    f_min = spec.min_relative_frequency

    def power(f: float) -> float:
        return low_w + rise_w * max(0.0, (f - f_min) / (1.0 - f_min)) ** exponent

    return power


def _shaped(
    dvfs: DVFSModel, base: Callable[[float], float], shape: str, amplitude_w: float
) -> Callable[[float], float]:
    if shape == "monotone":
        return base
    if shape == "ladder-spike":
        # Over the cap exactly on the clock ladder, where the floor lands.
        return lambda f: base(f) + (amplitude_w if dvfs.quantize(f) == f else 0.0)
    if shape == "wobble":
        return lambda f: base(f) + amplitude_w * math.sin(f * 997.0)
    raise AssertionError(shape)


@given(
    spec_name=st.sampled_from(SPEC_NAMES),
    cap_fraction=st.floats(0.0, 1.0),
    low_fraction=st.floats(0.3, 1.2),
    rise_fraction=st.floats(0.0, 1.5),
    exponent=st.floats(0.5, 3.0),
    shape=st.sampled_from(("monotone", "ladder-spike", "wobble")),
    amplitude_fraction=st.floats(0.0, 0.2),
)
@settings(max_examples=400, deadline=None)
def test_governor_matches_full_bisection(
    spec_name, cap_fraction, low_fraction, rise_fraction, exponent, shape, amplitude_fraction
):
    spec = spec_by_name(spec_name)
    model = PowerModel(spec)
    cap_range = spec.max_power_cap_w - spec.min_power_cap_w
    cap = spec.min_power_cap_w + cap_fraction * cap_range
    base = _curve(
        spec, low_fraction * spec.max_power_cap_w, rise_fraction * cap_range, exponent
    )
    power = _shaped(model.dvfs, base, shape, amplitude_fraction * cap_range)
    expected = full_bisection(spec, model.dvfs, power, cap)
    assert model.max_frequency_under_cap(power, cap) == expected


@pytest.mark.parametrize("spec_name", SPEC_NAMES)
def test_guard_fallback_matches_full_bisection(spec_name):
    """The floored step is over the cap, so the guard steps one clock down."""
    spec = spec_by_name(spec_name)
    model = PowerModel(spec)
    cap = 0.5 * (spec.min_power_cap_w + spec.max_power_cap_w)
    power = _shaped(
        model.dvfs, _curve(spec, 0.8 * cap, 0.5 * cap, 1.0), "ladder-spike", cap
    )
    expected = full_bisection(spec, model.dvfs, power, cap)
    floored = full_bisection(spec, model.dvfs, _curve(spec, 0.8 * cap, 0.5 * cap, 1.0), cap)
    assert expected < floored
    assert model.max_frequency_under_cap(power, cap) == expected


class _CheckedPowerModel(PowerModel):
    """Checks every engine governor call against the full bisection."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def max_frequency_under_cap(self, power_at, power_cap_w, tolerance=1e-4):
        selected = super().max_frequency_under_cap(power_at, power_cap_w, tolerance)
        assert selected == full_bisection(self.spec, self.dvfs, power_at, power_cap_w, tolerance)
        self.calls += 1
        return selected


@given(
    pair=st.tuples(
        st.sampled_from(DEFAULT_SUITE.names()), st.sampled_from(DEFAULT_SUITE.names())
    ),
    state=st.sampled_from(CORUN_STATES),
    cap=st.floats(150.0, 250.0),
)
@settings(max_examples=60, deadline=None)
def test_engine_power_curves_match_full_bisection(pair, state, cap):
    model = _CheckedPowerModel()
    sim = PerformanceSimulator(noise=no_noise(), power_model=model)
    sim.co_run([DEFAULT_SUITE.get(name) for name in pair], state, cap)
    # The co-run and the reference run of each distinct kernel.
    assert model.calls == 1 + len(set(pair))
