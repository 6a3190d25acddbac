"""Figs. 3-4 machinery: Vth policies under Vdd scaling."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.fo4 import fo4_reference
from repro.devices.params import device_for_node
from repro.errors import InfeasibleConstraintError, ModelParameterError
from repro.power.vdd_scaling import (
    VthPolicy,
    scaling_point,
    vdd_for_power_ratio,
    vdd_scaling_sweep,
    vth_for_policy,
)


@pytest.fixture(scope="module")
def device():
    return device_for_node(35)


class TestVthPolicies:
    def test_constant_policy(self, device):
        assert vth_for_policy(device, 0.3, VthPolicy.CONSTANT) \
            == device.vth_v

    def test_conservative_tracks_dibl(self, device):
        vth = vth_for_policy(device, 0.2, VthPolicy.CONSERVATIVE)
        expected = device.vth_v + device.dibl_v_per_v * (0.2 - 0.6)
        assert vth == pytest.approx(expected)

    def test_constant_pstatic_lowest(self, device):
        at = {policy: vth_for_policy(device, 0.3, policy)
              for policy in VthPolicy}
        assert at[VthPolicy.CONSTANT_PSTATIC] \
            < at[VthPolicy.CONSERVATIVE] < at[VthPolicy.CONSTANT]

    def test_nominal_vdd_all_policies_agree(self, device):
        for policy in VthPolicy:
            assert vth_for_policy(device, device.vdd_v, policy) \
                == pytest.approx(device.vth_v)

    def test_out_of_range_vdd_rejected(self, device):
        with pytest.raises(ModelParameterError):
            vth_for_policy(device, 0.0, VthPolicy.CONSTANT)
        with pytest.raises(ModelParameterError):
            vth_for_policy(device, 0.7, VthPolicy.CONSTANT)

    @settings(max_examples=30, deadline=None)
    @given(vdd=st.floats(min_value=0.15, max_value=0.6))
    def test_constant_pstatic_invariant(self, vdd):
        # The defining property: Vdd * Ioff stays at its nominal value.
        from repro.devices.mosfet import MosfetModel
        device = device_for_node(35)
        model = MosfetModel(device)
        vth = vth_for_policy(device, vdd, VthPolicy.CONSTANT_PSTATIC)
        nominal = device.vdd_v * model.ioff_na_um()
        scaled = vdd * model.ioff_na_um(vdd_v=vdd, vth_v=vth)
        assert scaled == pytest.approx(nominal, rel=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(vdd=st.floats(min_value=0.15, max_value=0.6))
    def test_conservative_invariant(self, vdd):
        # The defining property: Ioff itself stays constant.
        from repro.devices.mosfet import MosfetModel
        device = device_for_node(35)
        model = MosfetModel(device)
        vth = vth_for_policy(device, vdd, VthPolicy.CONSERVATIVE)
        assert model.ioff_na_um(vdd_v=vdd, vth_v=vth) \
            == pytest.approx(model.ioff_na_um(), rel=1e-6)


class TestScalingPoints:
    def test_nominal_point_is_unity(self):
        point = scaling_point(0.6, VthPolicy.CONSTANT)
        assert point.delay_norm == pytest.approx(1.0)
        assert point.dynamic_power_norm == pytest.approx(1.0)
        assert point.static_power_norm == pytest.approx(1.0)

    def test_paper_fig3_headlines(self):
        constant = scaling_point(0.2, VthPolicy.CONSTANT)
        assert 3.0 < constant.delay_norm < 4.2  # paper: 3.7x
        pstatic = scaling_point(0.2, VthPolicy.CONSTANT_PSTATIC)
        assert pstatic.delay_norm < 1.32  # paper: < 30 %
        assert pstatic.dynamic_power_norm == pytest.approx(1.0 / 9.0)
        conservative = scaling_point(0.2, VthPolicy.CONSERVATIVE)
        assert conservative.static_power_norm == pytest.approx(1.0 / 3.0,
                                                               rel=0.01)

    def test_sweep_ordering(self):
        sweep = vdd_scaling_sweep(VthPolicy.CONSTANT)
        delays = [point.delay_norm for point in sweep]
        assert all(a > b for a, b in zip(delays, delays[1:]))

    def test_dyn_over_static_positive(self):
        for policy in VthPolicy:
            for point in vdd_scaling_sweep(policy, vdds_v=(0.2, 0.4,
                                                           0.6)):
                assert point.dyn_over_static > 0


class TestPowerRatioSolve:
    def test_paper_fig4_operating_point(self):
        vdd = vdd_for_power_ratio(10.0)
        assert 0.40 < vdd < 0.50  # paper: ~0.44 V
        saving = 1.0 - (vdd / 0.6) ** 2
        assert 0.35 < saving < 0.55  # paper: ~46 %

    def test_solution_satisfies_ratio(self):
        vdd = vdd_for_power_ratio(10.0)
        point = scaling_point(vdd, VthPolicy.CONSTANT_PSTATIC)
        assert point.dyn_over_static == pytest.approx(10.0, rel=1e-2)

    def test_looser_ratio_allows_lower_vdd(self):
        assert vdd_for_power_ratio(5.0) < vdd_for_power_ratio(15.0)

    def test_unreachable_ratio_raises(self):
        with pytest.raises(InfeasibleConstraintError):
            vdd_for_power_ratio(1e6)

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(ModelParameterError):
            vdd_for_power_ratio(0.0)


def _constant_pstatic_delay_at_0v2(dibl):
    device = replace(device_for_node(35), dibl_v_per_v=dibl)
    stage = fo4_reference(35, device=device)
    vth = vth_for_policy(device, 0.2, VthPolicy.CONSTANT_PSTATIC)
    return stage.delay_s(vdd_v=0.2, vth_v=vth) / stage.delay_s()


def test_dibl_is_load_bearing_for_fig3():
    """Static power "decays roughly quadratically with Vdd" (so a large
    Vth cut is affordable at low supplies) only with DIBL on top of
    Eq. (4): the constant-Pstatic delay at 0.2 V meets the paper's
    < 1.3x claim only for physically sensible DIBL values."""
    dibls = (0.0, 0.06, 0.12, 0.18)
    delays = [_constant_pstatic_delay_at_0v2(dibl) for dibl in dibls]
    assert all(a > b for a, b in zip(delays, delays[1:]))
    # Without DIBL the affordable Vth cut shrinks and the delay penalty
    # exceeds the paper's bound ...
    assert delays[0] > 1.4
    # ... with the calibrated (or stronger) DIBL the claim holds.
    for dibl, delay in zip(dibls, delays):
        if dibl >= 0.12:
            assert delay < 1.32
