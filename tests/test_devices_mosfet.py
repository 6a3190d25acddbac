"""Compact MOSFET model: Eqs. (2)-(4) behaviour and invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.devices.mosfet import (
    DeviceParams,
    IOFF_PREFACTOR_UA_UM,
    MosfetModel,
    SUBTHRESHOLD_SWING_300K_MV,
    VTH_TEMPERATURE_COEFF_V_PER_K,
)
from repro.devices.oxide import GateStack
from repro.devices.params import DEVICES_BY_NODE, device_for_node
from repro.errors import ModelParameterError


@pytest.fixture
def device():
    return device_for_node(100)


@pytest.fixture
def model(device):
    return MosfetModel(device)


class TestEq4Ioff:
    def test_matches_closed_form_at_nominal(self, model):
        # Eq. (4): Ioff = 10 uA/um * 10^(-Vth/85 mV) at nominal Vdd/300 K.
        vth = model.params.vth_v
        expected_ua = IOFF_PREFACTOR_UA_UM * 10.0 ** (
            -vth / (SUBTHRESHOLD_SWING_300K_MV * 1e-3))
        assert model.ioff_na_um() == pytest.approx(expected_ua * 1e3)

    @settings(max_examples=200, deadline=None)
    @given(node_nm=st.sampled_from(sorted(DEVICES_BY_NODE)),
           vdd_v=st.floats(0.0, 2.0), vth_v=st.floats(-0.2, 0.6),
           temperature_k=st.floats(1.0, 700.0))
    def test_equals_the_extended_eq4_exactly(self, node_nm, vdd_v, vth_v,
                                             temperature_k):
        # Written out in one expression: Eq. (4) with the DIBL shift of
        # the drain bias and the temperature terms.
        params = device_for_node(node_nm)
        swing_v = SUBTHRESHOLD_SWING_300K_MV * temperature_k / 300.0 * 1e-3
        effective_vth = (vth_v
                         - params.dibl_v_per_v * (vdd_v - params.vdd_v)
                         - VTH_TEMPERATURE_COEFF_V_PER_K
                         * (temperature_k - 300.0))
        expected_ua = IOFF_PREFACTOR_UA_UM * 10.0 ** (
            -effective_vth / swing_v)
        assert MosfetModel(params).ioff_na_um(
            vdd_v, vth_v, temperature_k) == expected_ua * 1e3

    def test_paper_anchor_point(self):
        # Vth = 0.3 V gives ~3 nA/um (the 180 nm Table 2 entry).
        device = device_for_node(180)
        assert MosfetModel(device).ioff_na_um(vth_v=0.30) \
            == pytest.approx(2.95, rel=0.02)

    def test_100mv_costs_15x(self, model):
        vth = model.params.vth_v
        ratio = model.ioff_na_um(vth_v=vth - 0.1) / model.ioff_na_um()
        assert ratio == pytest.approx(15.06, rel=0.01)

    def test_dibl_increases_leakage_above_nominal_vdd(self, model):
        nominal = model.ioff_na_um()
        assert model.ioff_na_um(vdd_v=model.params.vdd_v + 0.1) > nominal

    def test_dibl_decreases_leakage_below_nominal_vdd(self, model):
        nominal = model.ioff_na_um()
        assert model.ioff_na_um(vdd_v=model.params.vdd_v - 0.1) < nominal

    def test_temperature_increases_leakage(self, model):
        assert model.ioff_na_um(temperature_k=358.15) \
            > 1.5 * model.ioff_na_um()

    def test_swing_scales_with_temperature(self, model):
        assert model.subthreshold_swing_mv(358.15) == pytest.approx(
            85.0 * 358.15 / 300.0)

    def test_negative_vdd_rejected(self, model):
        with pytest.raises(ModelParameterError):
            model.ioff_na_um(vdd_v=-0.1)

    def test_nonpositive_temperature_rejected(self, model):
        with pytest.raises(ModelParameterError):
            model.subthreshold_swing_mv(0.0)


class TestEq23Ion:
    def test_calibrated_device_meets_target(self, model):
        # The 100 nm card was calibrated so Vth = 0.22 gives 750 uA/um.
        assert model.ion_ua_um() == pytest.approx(750.0, rel=0.01)

    def test_rs_degrades_current(self, device):
        ideal = MosfetModel(DeviceParams(
            **{**device.__dict__, "rs_ohm_um": 0.0}))
        assert ideal.ion_ua_um() > MosfetModel(device).ion_ua_um()

    def test_ion_zero_below_threshold(self, model):
        assert model.ion_ua_um(vdd_v=model.params.vth_v) == 0.0
        assert model.idsat0_ua_um(vdd_v=model.params.vth_v - 0.1) == 0.0

    def test_esat_relation(self, model):
        # Esat = 2 vsat / mu.
        mu_si = model.params.mu_eff_cm2 * 1e-4
        assert model.esat_v_per_m == pytest.approx(
            2.0 * model.params.vsat_m_s / mu_si)

    def test_ion_below_velocity_saturation_limit(self, model):
        # Ion can never exceed W * Coxe * vsat * Vgt.
        vgt = model.params.vdd_v - model.params.vth_v
        limit_a = (1e-6 * model.params.gate_stack.coxe
                   * model.params.vsat_m_s * vgt)
        assert model.ion_ua_um() * 1e-6 < limit_a

    def test_on_off_ratio_large(self, model):
        assert model.on_off_ratio() > 1e4

    def test_static_power_is_vdd_times_ioff(self, model):
        expected = (model.params.vdd_v
                    * model.ioff_na_um() * 1e-9)
        assert model.static_power_w_per_um() == pytest.approx(expected)


class TestMonotonicityProperties:
    @settings(max_examples=40, deadline=None)
    @given(vth=st.floats(min_value=-0.1, max_value=0.5))
    def test_ion_decreases_with_vth(self, vth):
        model = MosfetModel(device_for_node(100))
        low = model.ion_ua_um(vth_v=vth)
        high = model.ion_ua_um(vth_v=vth + 0.05)
        assert low >= high

    @settings(max_examples=40, deadline=None)
    @given(vth=st.floats(min_value=-0.1, max_value=0.5))
    def test_ioff_decreases_with_vth(self, vth):
        model = MosfetModel(device_for_node(100))
        assert model.ioff_na_um(vth_v=vth) \
            > model.ioff_na_um(vth_v=vth + 0.05)

    @settings(max_examples=40, deadline=None)
    @given(vdd=st.floats(min_value=0.4, max_value=1.2))
    def test_ion_increases_with_vdd(self, vdd):
        model = MosfetModel(device_for_node(100))
        assert model.ion_ua_um(vdd_v=vdd + 0.05) \
            >= model.ion_ua_um(vdd_v=vdd)

    @settings(max_examples=40, deadline=None)
    @given(mu=st.floats(min_value=50.0, max_value=800.0))
    def test_ion_increases_with_mobility(self, mu):
        base = device_for_node(100)
        low = MosfetModel(base.with_mobility(mu)).ion_ua_um()
        high = MosfetModel(base.with_mobility(mu * 1.2)).ion_ua_um()
        assert high >= low

    @settings(max_examples=40, deadline=None)
    @given(temp=st.floats(min_value=250.0, max_value=400.0))
    def test_ioff_increases_with_temperature(self, temp):
        model = MosfetModel(device_for_node(100))
        assert model.ioff_na_um(temperature_k=temp + 10.0) \
            > model.ioff_na_um(temperature_k=temp)


class TestValidation:
    def test_vth_at_or_above_vdd_rejected(self):
        with pytest.raises(ModelParameterError):
            DeviceParams(node_nm=1, vdd_v=0.6, leff_nm=20.0,
                         gate_stack=GateStack(tox_physical_a=5.0),
                         mu_eff_cm2=200.0, vsat_m_s=1e5,
                         rs_ohm_um=100.0, vth_v=0.6)

    @pytest.mark.parametrize("field,value", [
        ("vdd_v", -0.5), ("leff_nm", 0.0), ("mu_eff_cm2", -1.0),
        ("vsat_m_s", 0.0), ("rs_ohm_um", -10.0), ("dibl_v_per_v", -0.1),
    ])
    def test_bad_parameters_rejected(self, field, value):
        kwargs = dict(node_nm=1, vdd_v=1.0, leff_nm=50.0,
                      gate_stack=GateStack(tox_physical_a=10.0),
                      mu_eff_cm2=200.0, vsat_m_s=1e5, rs_ohm_um=100.0,
                      vth_v=0.2)
        kwargs[field] = value
        with pytest.raises(ModelParameterError):
            DeviceParams(**kwargs)

    def test_huge_rs_crushes_current(self):
        # The Eq.-(2) correction term is strictly positive, so even an
        # absurd Rs degrades (never inverts) the current.
        device = device_for_node(100)
        broken = DeviceParams(**{**device.__dict__, "rs_ohm_um": 1e6})
        crushed = MosfetModel(broken).ion_ua_um()
        assert 0.0 < crushed < 0.05 * MosfetModel(device).ion_ua_um()

    def test_with_vth_returns_new_object(self, device):
        other = device.with_vth(0.1)
        assert other is not device
        assert other.vth_v == 0.1
        assert device.vth_v != 0.1
