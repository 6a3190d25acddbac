"""Netlist DAG construction, loads, level converters."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits.gate import GateDesign, GateKind, GateModel
from repro.circuits.library import Cell, build_library
from repro.devices.params import device_for_node
from repro.errors import NetlistError
from repro.netlist.generate import random_netlist
from repro.netlist.graph import (
    FLOP_LOAD_FACTOR,
    Netlist,
    lc_cap_factor,
    lc_delay_factor,
)


@pytest.fixture(scope="module")
def library():
    return build_library(100)


def _inv(library):
    return library.cells_of_kind(GateKind.INVERTER)[6]


def _nand(library):
    return library.cells_of_kind(GateKind.NAND)[4]


@pytest.fixture
def small_netlist(library):
    netlist = Netlist(100, clock_period_s=1e-9)
    netlist.add_input("a")
    netlist.add_input("b")
    netlist.add_instance("g0", _nand(library), ("a", "b"))
    netlist.add_instance("g1", _inv(library), ("g0",))
    netlist.add_instance("g2", _inv(library), ("g1",))
    netlist.finalize()
    return netlist


class TestConstruction:
    def test_counts(self, small_netlist):
        assert len(small_netlist) == 3
        assert small_netlist.counts() == {"nand": 1, "inv": 2}

    def test_finalize_marks_sinks_as_outputs(self, small_netlist):
        assert small_netlist.primary_outputs == ["g2"]

    def test_fanouts(self, small_netlist):
        assert small_netlist.fanouts("g0") == ("g1",)
        assert small_netlist.fanouts("g2") == ()

    def test_is_primary_input(self, small_netlist):
        assert small_netlist.is_primary_input("a")
        assert not small_netlist.is_primary_input("g0")

    def test_duplicate_name_rejected(self, library):
        netlist = Netlist(100, clock_period_s=1e-9)
        netlist.add_input("a")
        with pytest.raises(NetlistError):
            netlist.add_input("a")

    def test_unknown_fanin_rejected(self, library):
        netlist = Netlist(100, clock_period_s=1e-9)
        with pytest.raises(NetlistError):
            netlist.add_instance("g0", _inv(library), ("ghost",))

    def test_arity_mismatch_rejected(self, library):
        netlist = Netlist(100, clock_period_s=1e-9)
        netlist.add_input("a")
        with pytest.raises(NetlistError):
            netlist.add_instance("g0", _nand(library), ("a",))

    def test_empty_netlist_cannot_finalize(self):
        netlist = Netlist(100, clock_period_s=1e-9)
        with pytest.raises(NetlistError):
            netlist.finalize()

    def test_nonpositive_clock_rejected(self):
        with pytest.raises(NetlistError):
            Netlist(100, clock_period_s=0.0)

    def test_mark_output_unknown_rejected(self, small_netlist):
        with pytest.raises(NetlistError):
            small_netlist.mark_output("ghost")


class TestLoadsAndDelays:
    def test_load_includes_sink_pins_and_wire(self, small_netlist):
        g1 = small_netlist.instances["g1"]
        expected = (small_netlist.wire_cap_per_net_f
                    + small_netlist.instances["g2"].model().input_cap_f)
        assert small_netlist.load_f("g1") == pytest.approx(expected)

    def test_endpoint_carries_flop_load(self, small_netlist):
        load = small_netlist.load_f("g2")
        assert load == pytest.approx(
            small_netlist.wire_cap_per_net_f
            + FLOP_LOAD_FACTOR * small_netlist._unit_input_cap())

    def test_resizing_changes_sink_load(self, small_netlist):
        before = small_netlist.load_f("g1")
        small_netlist.instances["g2"].size_factor = 0.5
        assert small_netlist.load_f("g1") < before

    def test_gate_delay_positive(self, small_netlist):
        for name in small_netlist.topo_order():
            assert small_netlist.gate_delay_s(name) > 0


class TestLevelConverters:
    def test_no_converters_at_uniform_vdd(self, small_netlist):
        assert small_netlist.refresh_level_converters() == 0

    def test_low_vdd_driving_high_needs_converter(self, small_netlist):
        small_netlist.instances["g0"].vdd_v = 0.65 * 1.2
        assert small_netlist.needs_level_converter("g0")

    def test_low_vdd_endpoint_needs_converter(self, small_netlist):
        small_netlist.instances["g2"].vdd_v = 0.65 * 1.2
        assert small_netlist.needs_level_converter("g2")

    def test_high_driving_low_is_free(self, small_netlist):
        small_netlist.instances["g1"].vdd_v = 0.65 * 1.2
        small_netlist.instances["g2"].vdd_v = 0.65 * 1.2
        assert not small_netlist.needs_level_converter("g1")

    def test_converter_slows_gate(self, small_netlist):
        base = small_netlist.gate_delay_s("g2")
        small_netlist.instances["g2"].level_converter = True
        slowed = small_netlist.gate_delay_s("g2")
        assert slowed > base

    def test_wider_gap_costs_more(self):
        # Converting a deeper Vdd,l is slower and needs a bigger
        # converter -- the mechanism behind the 0.6-0.7 sweet spot.
        assert lc_delay_factor(0.5) > lc_delay_factor(0.65) \
            > lc_delay_factor(0.9) > 1.0
        assert lc_cap_factor(0.5) > lc_cap_factor(0.65) \
            > lc_cap_factor(0.9)

    def test_refresh_counts(self, small_netlist):
        small_netlist.instances["g2"].vdd_v = 0.65 * 1.2
        assert small_netlist.refresh_level_converters() == 1


class TestInstanceState:
    def test_effective_vdd_defaults_to_nominal(self, small_netlist):
        instance = small_netlist.instances["g0"]
        assert instance.effective_vdd(1.2) == 1.2
        instance.vdd_v = 0.8
        assert instance.effective_vdd(1.2) == 0.8

    def test_vth_override_changes_model(self, small_netlist):
        instance = small_netlist.instances["g1"]
        base_leak = instance.model().static_power_w()
        instance.vth_v = device_for_node(100).vth_v + 0.1
        assert instance.model().static_power_w() < base_leak

    def test_size_factor_scales_design(self, small_netlist):
        instance = small_netlist.instances["g1"]
        instance.size_factor = 0.5
        assert instance.effective_design().size == pytest.approx(
            0.5 * instance.cell.design.size)


def _assert_same_model(model, fresh, supplies):
    assert model.input_cap_f == fresh.input_cap_f
    high_vth = fresh.device.vth_v + 0.1
    for vdd in supplies:
        for load in (1e-15, 8e-15):
            assert model.delay_s(load, vdd_v=vdd) \
                == fresh.delay_s(load, vdd_v=vdd)
        for temperature in (300.0, 358.15):
            assert model.static_power_w(vdd, temperature_k=temperature) \
                == fresh.static_power_w(vdd, temperature_k=temperature)
        assert model.static_power_w(vdd, vth_v=high_vth) \
            == fresh.static_power_w(vdd, vth_v=high_vth)


@settings(max_examples=20, deadline=None)
@given(changes=st.lists(
    st.tuples(st.integers(min_value=0, max_value=1),
              st.integers(min_value=0, max_value=39),
              st.sampled_from((None, -0.05, 0.05, 0.1)),
              st.sampled_from((0.35, 0.8, 1.0, 1.25, 2.0))),
    min_size=1, max_size=15))
def test_memoized_model_matches_fresh_build(changes):
    # Instance.model() is memoized per instance and shared through the
    # process's gate-model table, also between two copies of a netlist
    # generated from separate libraries.  After any sequence of Vth and
    # size changes each model must equal one built from scratch, and
    # equal states must share one model.
    copies = [random_netlist(100, n_gates=40, seed=5) for _ in range(2)]
    names = list(copies[0].topo_order())
    supplies = (copies[0].nominal_vdd_v, 0.65 * copies[0].nominal_vdd_v)
    for copy, pick, vth_delta, size in changes:
        instance = copies[copy].instances[names[pick]]
        instance.model()
        cell = instance.cell
        instance.vth_v = (None if vth_delta is None
                          else cell.device.vth_v + vth_delta)
        instance.size_factor = size
        device = (cell.device if instance.vth_v is None
                  else cell.device.with_vth(instance.vth_v))
        fresh = GateModel(device, replace(
            cell.design, size=cell.design.size * size))
        model = instance.model()
        assert instance.model() is model
        _assert_same_model(model, fresh, supplies)
        twin = copies[1 - copy].instances[names[pick]]
        assert twin.cell == cell and twin.cell is not cell
        twin.vth_v = (None if vth_delta is None
                      else twin.cell.device.vth_v + vth_delta)
        twin.size_factor = size
        assert twin.model() is model


@pytest.mark.parametrize("field, value", [
    ("size_factor", 0.5), ("vth_v", 0.25)])
def test_a_float32_override_gets_its_own_model(field, value):
    # The table keys on type as well as value: 0.5 and np.float32(0.5)
    # are equal, but arithmetic on them differs, so each gets a model
    # that matches its own fresh build.
    instance = random_netlist(100, n_gates=40, seed=5).instances["g3"]
    setattr(instance, field, value)
    as_float = instance.model()
    setattr(instance, field, np.float32(value))
    as_float32 = instance.model()
    assert as_float32 is not as_float
    cell = instance.cell
    device = (cell.device if instance.vth_v is None
              else cell.device.with_vth(instance.vth_v))
    fresh = GateModel(device, replace(
        cell.design, size=cell.design.size * instance.size_factor))
    _assert_same_model(as_float32, fresh, (1.2, 0.8))
    setattr(instance, field, value)
    assert instance.model() is as_float
