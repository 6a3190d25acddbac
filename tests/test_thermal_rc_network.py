"""Lumped thermal RC network."""

import copy
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.errors import ModelParameterError
from repro.thermal.rc_network import (
    _EULER_MARGIN,
    ThermalNetwork,
    ThermalStage,
    default_thermal_network,
)


def _reference_step(network, power_w, dt_s):
    """The explicit-Euler sub-step loop, re-derived on every call.

    It works out the sub-step count afresh and advances the stages
    through lists, with no per-interval plan; ``step`` must match it
    bit for bit.
    """
    if power_w < 0:
        raise ModelParameterError("power cannot be negative")
    if dt_s <= 0:
        raise ModelParameterError("time step must be positive")
    max_sub = _EULER_MARGIN * network._min_stage_time_s()
    n_sub = max(1, int(dt_s / max_sub) + 1)
    sub_dt = dt_s / n_sub
    n_stages = len(network.stages)
    for _ in range(n_sub):
        temps = network.temperatures_c
        flows_out = []
        for index, stage in enumerate(network.stages):
            downstream_t = (temps[index + 1] if index + 1 < n_stages
                            else network.t_ambient_c)
            flows_out.append((temps[index] - downstream_t)
                             / stage.resistance_c_per_w)
        new_temps = []
        for index, stage in enumerate(network.stages):
            inflow = power_w if index == 0 else flows_out[index - 1]
            delta = (inflow - flows_out[index]) * sub_dt \
                / stage.capacity_j_per_k
            new_temps.append(temps[index] + delta)
        network.temperatures_c = new_temps
    return network.junction_c


@pytest.fixture
def network():
    return default_thermal_network(0.5)


def test_theta_ja_is_sum_of_stages(network):
    assert network.theta_ja == pytest.approx(0.5)


def test_starts_at_ambient(network):
    assert network.junction_c == pytest.approx(45.0)


def test_steady_state_matches_eq1(network):
    temps = network.steady_state_c(80.0)
    assert temps[0] == pytest.approx(45.0 + 0.5 * 80.0)
    # Temperatures fall monotonically toward ambient.
    assert all(a > b for a, b in zip(temps, temps[1:]))


def test_settle(network):
    network.settle(60.0)
    assert network.junction_c == pytest.approx(45.0 + 30.0)


def test_step_converges_to_steady_state(network):
    network.settle(0.0)
    for _ in range(400):
        network.step(50.0, 1.0)
    assert network.junction_c == pytest.approx(
        network.steady_state_c(50.0)[0], abs=0.5)


def test_zero_power_cools_to_ambient(network):
    network.settle(80.0)
    for _ in range(600):
        network.step(0.0, 1.0)
    assert network.junction_c == pytest.approx(45.0, abs=0.5)


def test_die_responds_fast_sink_slow(network):
    network.settle(40.0)
    before = list(network.temperatures_c)
    network.step(120.0, 0.05)  # 50 ms
    after = network.temperatures_c
    die_rise = after[0] - before[0]
    sink_rise = after[-1] - before[-1]
    assert die_rise > 10.0 * max(sink_rise, 1e-9)


def test_monotone_heating(network):
    network.settle(20.0)
    temps = []
    for _ in range(50):
        temps.append(network.step(100.0, 0.2))
    assert all(a <= b + 1e-9 for a, b in zip(temps, temps[1:]))


def test_reset(network):
    network.settle(100.0)
    network.reset()
    assert network.temperatures_c == [45.0] * 3
    network.reset(60.0)
    assert network.temperatures_c == [60.0] * 3


def test_energy_balance_steady_state(network):
    # In steady state the flow through each stage equals the input power.
    power = 70.0
    temps = network.steady_state_c(power)
    for index, stage in enumerate(network.stages):
        downstream = (temps[index + 1] if index + 1 < len(temps)
                      else network.t_ambient_c)
        flow = (temps[index] - downstream) / stage.resistance_c_per_w
        assert flow == pytest.approx(power)


@pytest.mark.parametrize("call", [
    lambda n: n.step(-1.0, 0.1),
    lambda n: n.step(10.0, 0.0),
    lambda n: n.steady_state_c(-5.0),
])
def test_validation(network, call):
    with pytest.raises(ModelParameterError):
        call(network)


def test_stage_validation():
    with pytest.raises(ModelParameterError):
        ThermalStage("bad", capacity_j_per_k=0.0, resistance_c_per_w=0.1)
    with pytest.raises(ModelParameterError):
        ThermalNetwork([])
    with pytest.raises(ModelParameterError):
        default_thermal_network(0.0)


def test_substep_rule_counts_upstream_conductance():
    # Regression: the sub-step rule used min(R_i * C_i), ignoring the
    # upstream conductance of interior stages.  A stack whose middle
    # stage has a tiny upstream resistance then violated the explicit
    # Euler stability bound and oscillated/diverged.
    stiff = ThermalNetwork([
        ThermalStage("die", capacity_j_per_k=0.3,
                     resistance_c_per_w=0.001),
        ThermalStage("spreader", capacity_j_per_k=0.01,
                     resistance_c_per_w=10.0),
        ThermalStage("sink", capacity_j_per_k=400.0,
                     resistance_c_per_w=0.5),
    ])
    power = 50.0
    ceiling = max(stiff.steady_state_c(power)) + 1.0
    previous = stiff.junction_c
    for _ in range(200):
        current = stiff.step(power, 0.05)
        # monotone approach to steady state: no oscillation, no blow-up
        assert current >= previous - 1e-9
        assert current <= ceiling
        previous = current


def test_substep_rule_matches_single_stage():
    # For a single stage the new rule reduces to the old R*C bound.
    single = ThermalNetwork([
        ThermalStage("die", capacity_j_per_k=0.3,
                     resistance_c_per_w=0.4),
    ])
    assert single._min_stage_time_s() == pytest.approx(0.3 * 0.4)


# -- step against the sub-step loop, bit for bit ----------------------

#: Sub-steps one example may cost: a stiff stack (R = 1 mC/W,
#: C = 10 mJ/K) needs ~10^6 per 1 s interval, beyond what the
#: list-based oracle runs in test time.
_MAX_SUB_STEPS = 20_000


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(
        lambda exponent: 10.0 ** exponent)


@st.composite
def _settled_networks(draw):
    stages = [ThermalStage(f"stage{index}",
                           capacity_j_per_k=draw(_log_uniform(1e-2, 500.0)),
                           resistance_c_per_w=draw(_log_uniform(1e-3, 10.0)))
              for index in range(draw(st.integers(1, 5)))]
    network = ThermalNetwork(stages, t_ambient_c=draw(st.floats(0.0, 60.0)))
    network.settle(draw(st.floats(0.0, 300.0)))
    return network


def _sub_steps(network, dt_s):
    return int(dt_s / (_EULER_MARGIN * network._min_stage_time_s())) + 1


@settings(max_examples=200, deadline=None)
@given(network=_settled_networks(),
       powers=st.lists(st.floats(0.0, 300.0), min_size=1, max_size=40),
       dts=st.tuples(_log_uniform(1e-3, 1.0), _log_uniform(1e-3, 1.0)),
       switch=st.integers(0, 40))
def test_step_matches_the_sub_step_loop_exactly(network, powers, dts,
                                                switch):
    calls = [(power, dts[index >= switch])
             for index, power in enumerate(powers)]
    assume(sum(_sub_steps(network, dt) for _, dt in calls)
           <= _MAX_SUB_STEPS)
    reference = copy.deepcopy(network)
    for power, dt in calls:
        assert network.step(power, dt) == _reference_step(
            reference, power, dt)
        assert network.temperatures_c == reference.temperatures_c


@pytest.mark.parametrize("n_stages", [1, 2, 3, 4, 5])
def test_step_matches_the_sub_step_loop_over_a_long_trace(n_stages):
    # A reordered update changes a sub-step's last bit, and that bit
    # survives into a temperature only when the step is large against
    # the temperature itself: a long trace of full-range power swings
    # is what exposes one.
    rng = random.Random(n_stages)
    network = ThermalNetwork(
        [ThermalStage(f"stage{index}",
                      capacity_j_per_k=10.0 ** rng.uniform(-0.5, 2.6),
                      resistance_c_per_w=10.0 ** rng.uniform(-1.3, 0.0))
         for index in range(n_stages)],
        t_ambient_c=rng.uniform(0.0, 60.0))
    network.settle(rng.uniform(0.0, 300.0))
    reference = copy.deepcopy(network)
    for dt in (0.01, 0.1):
        for _ in range(500):
            power = rng.uniform(0.0, 300.0)
            assert network.step(power, dt) == _reference_step(
                reference, power, dt)
            assert network.temperatures_c == reference.temperatures_c


_OTHER_STACK = [
    ThermalStage("die", capacity_j_per_k=0.05, resistance_c_per_w=0.4),
    ThermalStage("spreader", capacity_j_per_k=4.0, resistance_c_per_w=0.2),
    ThermalStage("sink", capacity_j_per_k=200.0, resistance_c_per_w=0.3),
]


@pytest.mark.parametrize("change, dt_after", [
    (lambda n: setattr(n, "stages", list(_OTHER_STACK)), 0.01),
    (lambda n: n.stages.__setitem__(0, _OTHER_STACK[0]), 0.01),
    (lambda n: setattr(n, "stages", n.stages[:2]), 0.01),
    (lambda n: setattr(n, "t_ambient_c", 25.0), 0.01),
    (lambda n: None, 0.1),
], ids=["stages-replaced", "stage-replaced-in-place", "two-stages",
        "ambient", "dt"])
def test_step_never_runs_on_a_stale_plan(change, dt_after):
    network = default_thermal_network(0.5)
    network.settle(60.0)
    reference = copy.deepcopy(network)
    for _ in range(3):
        assert network.step(90.0, 0.01) == _reference_step(
            reference, 90.0, 0.01)
    change(network)
    change(reference)
    for _ in range(3):
        assert network.step(90.0, dt_after) == _reference_step(
            reference, 90.0, dt_after)
        assert network.temperatures_c == reference.temperatures_c


def test_an_equal_dt_of_another_type_gets_its_own_plan():
    # np.float32(0.5) == 0.5, but a float32 interval computes in
    # float32: a plan keyed on dt's value alone would step it in
    # float64.
    network = default_thermal_network(0.5)
    network.settle(60.0)
    reference = copy.deepcopy(network)
    for dt in (0.5, np.float32(0.5), 0.5):
        assert network.step(90.0, dt) == _reference_step(
            reference, 90.0, dt)
        assert network.temperatures_c == reference.temperatures_c


def test_deep_copied_network_keeps_matching():
    # simulate_dtm and the co-simulator step a deep copy per run.
    network = default_thermal_network(0.5)
    network.settle(60.0)
    network.step(90.0, 0.01)
    copied = copy.deepcopy(network)
    reference = copy.deepcopy(network)
    for power in (90.0, 10.0, 150.0):
        assert copied.step(power, 0.01) == _reference_step(
            reference, power, 0.01)
        assert copied.temperatures_c == reference.temperatures_c
