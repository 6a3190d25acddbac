"""Static-CMOS gate model: geometry, delay, power, stack effects."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.circuits.gate import (
    DEFAULT_WN_OVER_L,
    DEFAULT_WP_OVER_L,
    GateDesign,
    GateKind,
    GateModel,
    STACK_LEAKAGE_FACTOR,
)
from repro.devices.params import device_for_node
from repro.errors import ModelParameterError


@pytest.fixture
def device():
    return device_for_node(180)


@pytest.fixture
def inverter(device):
    return GateModel(device, GateDesign(kind=GateKind.INVERTER))


class TestGeometry:
    def test_footnote6_widths(self, inverter, device):
        # Paper footnote 6: Wn/L = 4, Wp/L = 8.
        leff = units.nm(device.leff_nm)
        assert inverter.wn_m == pytest.approx(4.0 * leff)
        assert inverter.wp_m == pytest.approx(8.0 * leff)
        assert DEFAULT_WN_OVER_L == 4.0
        assert DEFAULT_WP_OVER_L / DEFAULT_WN_OVER_L == 2.0

    def test_size_scales_widths(self, device):
        small = GateModel(device, GateDesign(size=1.0))
        big = GateModel(device, GateDesign(size=4.0))
        assert big.wn_m == pytest.approx(4.0 * small.wn_m)
        assert big.input_cap_f == pytest.approx(4.0 * small.input_cap_f)

    def test_nand_upsizes_nmos_stack(self, device):
        inv = GateModel(device, GateDesign())
        nand = GateModel(device, GateDesign(kind=GateKind.NAND,
                                            n_inputs=2))
        assert nand.wn_m == pytest.approx(2.0 * inv.wn_m)
        assert nand.wp_m == pytest.approx(inv.wp_m)

    def test_nor_upsizes_pmos_stack(self, device):
        inv = GateModel(device, GateDesign())
        nor = GateModel(device, GateDesign(kind=GateKind.NOR,
                                           n_inputs=2))
        assert nor.wp_m == pytest.approx(2.0 * inv.wp_m)
        assert nor.wn_m == pytest.approx(inv.wn_m)

    def test_180nm_input_cap_realistic(self, inverter):
        # A 180 nm unit inverter pin sits in the few-fF range, matching
        # the library caps Section 2.3 quotes (1.5-6.6 fF).
        assert 1.0 < units.to_fF(inverter.input_cap_f) < 8.0


class TestDelay:
    def test_fo4_delay_near_classic_value(self, inverter):
        # The classic rule of thumb: FO4 ~ 360 ps/um * L; ~65 ps at
        # 180 nm.  The fit lands within +-40 %.
        fo4_ps = units.to_ps(inverter.fo4_delay_s())
        assert 40.0 < fo4_ps < 95.0

    def test_fo4_shrinks_with_scaling(self):
        delays = []
        for node_nm in (180, 130, 100, 70, 50, 35):
            gate = GateModel(device_for_node(node_nm))
            delays.append(gate.fo4_delay_s())
        assert all(a > b for a, b in zip(delays, delays[1:]))

    def test_delay_linear_in_load(self, inverter):
        base = inverter.delay_s(0.0)
        one = inverter.delay_s(units.fF(10.0)) - base
        two = inverter.delay_s(units.fF(20.0)) - base
        assert two == pytest.approx(2.0 * one)

    def test_lower_vdd_slower(self, inverter, device):
        assert inverter.delay_s(units.fF(10.0), vdd_v=0.7 * device.vdd_v) \
            > inverter.delay_s(units.fF(10.0))

    def test_lower_vth_faster(self, inverter, device):
        assert inverter.delay_s(units.fF(10.0),
                                vth_v=device.vth_v - 0.1) \
            < inverter.delay_s(units.fF(10.0))

    def test_negative_load_rejected(self, inverter):
        with pytest.raises(ModelParameterError):
            inverter.delay_s(-1e-15)

    def test_no_drive_raises(self, inverter, device):
        with pytest.raises(ModelParameterError):
            inverter.delay_s(units.fF(1.0), vdd_v=device.vth_v)

    @settings(max_examples=30, deadline=None)
    @given(size=st.floats(min_value=0.2, max_value=32.0))
    def test_bigger_gate_never_slower_into_fixed_load(self, size):
        device = device_for_node(100)
        load = units.fF(50.0)
        small = GateModel(device, GateDesign(size=size)).delay_s(load)
        large = GateModel(device,
                          GateDesign(size=size * 2.0)).delay_s(load)
        assert large < small


class TestPower:
    def test_dynamic_power_formula(self, inverter, device):
        load = units.fF(10.0)
        power = inverter.dynamic_power_w(load, 1e9, 0.5)
        expected = 0.5 * 1e9 * (load + inverter.parasitic_cap_f) \
            * device.vdd_v ** 2
        assert power == pytest.approx(expected)

    def test_activity_bounds(self, inverter):
        with pytest.raises(ModelParameterError):
            inverter.dynamic_power_w(1e-15, 1e9, 1.5)
        with pytest.raises(ModelParameterError):
            inverter.dynamic_power_w(1e-15, 1e9, -0.1)

    def test_zero_activity_zero_power(self, inverter):
        assert inverter.dynamic_power_w(1e-15, 1e9, 0.0) == 0.0

    def test_nonpositive_frequency_rejected(self, inverter):
        with pytest.raises(ModelParameterError):
            inverter.dynamic_power_w(1e-15, 0.0, 0.1)

    def test_inverter_leakage_averages_both_networks(self, inverter,
                                                     device):
        from repro.devices.mosfet import MosfetModel
        ioff_per_um = MosfetModel(device).ioff_na_um() * 1e-9
        expected = 0.5 * ioff_per_um * units.to_um(
            inverter.wn_m + inverter.wp_m)
        assert inverter.leakage_current_a() == pytest.approx(expected)

    def test_nand_stack_suppresses_leakage(self, device):
        inv = GateModel(device, GateDesign())
        nand = GateModel(device, GateDesign(kind=GateKind.NAND,
                                            n_inputs=2))
        # Per unit NMOS width the stacked pull-down leaks ~10x less.
        assert STACK_LEAKAGE_FACTOR == pytest.approx(0.1)
        assert nand.leakage_current_a() < inv.leakage_current_a() * 1.5

    def test_leakage_grows_with_temperature(self, inverter):
        assert inverter.static_power_w(temperature_k=358.15) \
            > inverter.static_power_w()

    def test_static_power_scales_with_vdd_and_dibl(self, inverter,
                                                   device):
        low = inverter.static_power_w(vdd_v=0.5 * device.vdd_v)
        nominal = inverter.static_power_w()
        # Vdd halves and DIBL shrinks Ioff: well below half the power.
        assert low < 0.5 * nominal


class TestDesignValidation:
    def test_inverter_must_have_one_input(self):
        with pytest.raises(ModelParameterError):
            GateDesign(kind=GateKind.INVERTER, n_inputs=2)

    def test_nand_needs_two_inputs(self):
        with pytest.raises(ModelParameterError):
            GateDesign(kind=GateKind.NAND, n_inputs=1)

    @pytest.mark.parametrize("field,value", [("size", 0.0),
                                             ("beta", -1.0)])
    def test_positive_parameters(self, field, value):
        with pytest.raises(ModelParameterError):
            GateDesign(**{field: value})

    def test_scaled_returns_new_design(self):
        design = GateDesign(size=2.0)
        assert design.scaled(2.0).size == 4.0
        assert design.size == 2.0

    def test_nonpositive_wnl_rejected(self, device):
        with pytest.raises(ModelParameterError):
            GateModel(device, wn_over_l=0.0)

    def test_device_and_design_are_read_only(self, inverter, device):
        # The input capacitance and drive currents are cached at
        # construction, so the inputs they derive from cannot be swapped.
        with pytest.raises(AttributeError):
            inverter.device = device.with_vth(device.vth_v + 0.1)
        with pytest.raises(AttributeError):
            inverter.design = GateDesign(size=2.0)
        assert inverter.device is device
