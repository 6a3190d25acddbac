"""Chip-level static power (Section 3.1 claims)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.devices.mosfet import (
    IOFF_PREFACTOR_UA_UM,
    SUBTHRESHOLD_SWING_300K_MV,
    VTH_TEMPERATURE_COEFF_V_PER_K,
)
from repro.devices.params import DEVICES_BY_NODE, device_for_node
from repro.errors import ModelParameterError, UnknownNodeError
from repro.power.static import (
    OPERATING_TEMPERATURE_K,
    chip_static_power_w,
    itrs_standby_current_budget_a,
    itrs_static_budget_w,
    standby_current_a,
    static_power_reduction_required,
    total_device_width_m,
    unchecked_static_projection_w,
)
from repro.thermal.electrothermal import chip_leakage_at_c


def _uncached_standby_current_a(node_nm, vth_v, temperature_k,
                                off_fraction):
    """Eq. (4) scaled to the die, every constant re-derived per call."""
    device = device_for_node(node_nm)
    vth = device.vth_v if vth_v is None else vth_v
    swing_v = SUBTHRESHOLD_SWING_300K_MV * temperature_k / 300.0 * 1e-3
    effective_vth = (vth
                     - device.dibl_v_per_v * (device.vdd_v - device.vdd_v)
                     - VTH_TEMPERATURE_COEFF_V_PER_K
                     * (temperature_k - 300.0))
    ioff_ua = IOFF_PREFACTOR_UA_UM * 10.0 ** (-effective_vth / swing_v)
    ioff_a_per_m = ioff_ua * 1e3 * 1e-3
    return ioff_a_per_m * total_device_width_m(node_nm) * off_fraction


def test_itrs_budget_is_10pct():
    assert itrs_static_budget_w(35) == pytest.approx(18.3)


def test_30a_standby_at_35nm():
    # Paper: "at 35 nm, an MPU can draw 30A of current in standby".
    assert itrs_standby_current_budget_a(35) == pytest.approx(30.5,
                                                              abs=1.0)


def test_width_grows_with_scaling():
    widths = [total_device_width_m(n) for n in (180, 130, 100, 70, 50,
                                                35)]
    assert all(a < b for a, b in zip(widths, widths[1:]))


def test_standby_current_scales_with_width():
    half = standby_current_a(50, off_fraction=0.25)
    full = standby_current_a(50, off_fraction=0.5)
    assert full == pytest.approx(2.0 * half)


def test_bad_off_fraction_rejected():
    with pytest.raises(ModelParameterError):
        standby_current_a(50, off_fraction=0.0)


def test_static_power_hot_exceeds_cold():
    assert chip_static_power_w(50, temperature_k=OPERATING_TEMPERATURE_K) \
        > chip_static_power_w(50, temperature_k=300.0)


def test_reduction_required_substantial_at_nanometer_nodes():
    # Paper: the burden on circuit techniques "reaches 98 %" at the end
    # of the roadmap; our calibration lands at 70-90 % (EXPERIMENTS.md).
    assert static_power_reduction_required(50) > 0.6
    assert static_power_reduction_required(35) > 0.5


def test_reduction_zero_when_within_budget():
    assert static_power_reduction_required(180,
                                           temperature_k=300.0) == 0.0


def test_unchecked_projection_reaches_kilowatts():
    # Paper: "Unchecked, static power would reach kilowatt levels".
    assert unchecked_static_projection_w(35) > 1000.0


def test_projection_grows_along_roadmap():
    values = [unchecked_static_projection_w(n)
              for n in (180, 130, 100, 70, 50, 35)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_projection_growth_parameter():
    mild = unchecked_static_projection_w(35, growth_per_generation=2.0)
    steep = unchecked_static_projection_w(35, growth_per_generation=5.0)
    assert steep / mild == pytest.approx((5.0 / 2.0) ** 5)


def test_bad_growth_rejected():
    with pytest.raises(ModelParameterError):
        unchecked_static_projection_w(35, growth_per_generation=0.0)


# -- the per-node leakage constants against the uncached chain --------


@pytest.mark.parametrize("node_nm", sorted(DEVICES_BY_NODE))
def test_chip_leakage_matches_the_uncached_chain_exactly(node_nm):
    vdd = device_for_node(node_nm).vdd_v
    for quarter in range(4 * 455 + 1):  # -55 C .. 400 C
        junction_c = -55.0 + 0.25 * quarter
        assert chip_leakage_at_c(node_nm, junction_c) \
            == vdd * _uncached_standby_current_a(
                node_nm, None, junction_c + 273.15, 0.5)


@settings(max_examples=200, deadline=None)
@given(node_nm=st.sampled_from(sorted(DEVICES_BY_NODE)),
       vth_v=st.none() | st.floats(-0.2, 0.6),
       temperature_k=st.floats(1.0, 700.0),
       off_fraction=st.floats(1e-3, 1.0))
def test_standby_current_matches_the_uncached_chain_exactly(
        node_nm, vth_v, temperature_k, off_fraction):
    expected = _uncached_standby_current_a(node_nm, vth_v, temperature_k,
                                           off_fraction)
    assert standby_current_a(node_nm, vth_v, temperature_k,
                             off_fraction) == expected
    assert chip_static_power_w(node_nm, vth_v, temperature_k) \
        == device_for_node(node_nm).vdd_v * _uncached_standby_current_a(
            node_nm, vth_v, temperature_k, 0.5)


def test_leakage_chain_errors_are_unchanged():
    with pytest.raises(UnknownNodeError):
        chip_static_power_w(45)
    with pytest.raises(ModelParameterError, match="temperature"):
        standby_current_a(50, temperature_k=0.0)
    with pytest.raises(ModelParameterError, match="-55"):
        chip_leakage_at_c(50, -55.5)
