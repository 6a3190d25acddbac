"""Calibrated model cards: the Table 2 reproduction contract.

These tests pin the library's central calibration: at every node the
solved Vth must reproduce the paper's Table 2 threshold row and the
resulting Ioff must track the paper's printed values.
"""

import functools

import pytest

from repro.devices.mosfet import MosfetModel
from repro.devices.params import (
    DEVICES_BY_NODE,
    FITTED_MU_EFF_CM2,
    PAPER_VTH_BY_NODE_V,
    device_for_node,
)
from repro.devices.solver import solve_vth_for_ion
from repro.errors import UnknownNodeError
from repro.itrs import ITRS_2000

PAPER_IOFF_NA = {180: 3.0, 130: 4.0, 100: 26.0, 70: 210.0, 50: 3205.0,
                 35: 456.0}


@pytest.mark.parametrize("node_nm", ITRS_2000.node_sizes)
def test_solved_vth_matches_paper(node_nm):
    device = device_for_node(node_nm)
    vth = solve_vth_for_ion(device,
                            ITRS_2000.node(node_nm).ion_target_ua_um)
    assert vth == pytest.approx(PAPER_VTH_BY_NODE_V[node_nm], abs=0.015)


@pytest.mark.parametrize("node_nm", ITRS_2000.node_sizes)
def test_ioff_matches_paper_within_25pct(node_nm):
    device = device_for_node(node_nm)
    vth = solve_vth_for_ion(device,
                            ITRS_2000.node(node_nm).ion_target_ua_um)
    ioff = MosfetModel(device.with_vth(vth)).ioff_na_um()
    assert ioff == pytest.approx(PAPER_IOFF_NA[node_nm], rel=0.25)


def test_model_card_vth_is_paper_vth():
    for node_nm, device in DEVICES_BY_NODE.items():
        assert device.vth_v == PAPER_VTH_BY_NODE_V[node_nm]


def test_fitted_mobilities_physical():
    for node_nm, mu in FITTED_MU_EFF_CM2.items():
        assert 100.0 < mu < 600.0, node_nm


def test_cards_match_roadmap_geometry():
    for node_nm, device in DEVICES_BY_NODE.items():
        record = ITRS_2000.node(node_nm)
        assert device.vdd_v == record.vdd_v
        assert device.leff_nm == record.leff_nm
        assert device.gate_stack.tox_physical_a == record.tox_physical_a


def test_unknown_node_raises():
    with pytest.raises(UnknownNodeError):
        device_for_node(90)


@functools.cache
def _metal_gate_what_if(node_nm):
    """(Vth gain [V], poly Ioff, metal Ioff) at the node's Ion target."""
    device = device_for_node(node_nm)
    target = ITRS_2000.node(node_nm).ion_target_ua_um
    vth_poly = solve_vth_for_ion(device, target)
    metal = device.with_gate_stack(device.gate_stack.with_metal_gate())
    vth_metal = solve_vth_for_ion(metal, target)
    ioff_poly = MosfetModel(device.with_vth(vth_poly)).ioff_na_um()
    ioff_metal = MosfetModel(metal.with_vth(vth_metal)).ioff_na_um()
    return vth_metal - vth_poly, ioff_poly, ioff_metal


def test_metal_gate_at_35nm_reproduces_paper():
    # Paper: metal gate cuts Ioff 78 % at 35 nm via a ~55 mV higher Vth.
    vth_gain, ioff_poly, ioff_metal = _metal_gate_what_if(35)
    assert 0.040 < vth_gain < 0.090
    assert 0.70 < 1.0 - ioff_metal / ioff_poly < 0.90


@pytest.mark.parametrize("node_nm", ITRS_2000.node_sizes)
def test_metal_gate_raises_vth_and_cuts_ioff_at_every_node(node_nm):
    vth_gain, ioff_poly, ioff_metal = _metal_gate_what_if(node_nm)
    assert vth_gain > 0
    assert 0.0 < 1.0 - ioff_metal / ioff_poly < 1.0


def test_metal_gate_capacitance_benefit_grows_with_scaling():
    # Removing the fixed 2.5 A of gate depletion boosts Coxe more as
    # the physical oxide thins.
    stacks = [device_for_node(node_nm).gate_stack
              for node_nm in ITRS_2000.node_sizes]
    gains = [stack.with_metal_gate().coxe / stack.coxe
             for stack in stacks]
    assert all(a <= b + 1e-12 for a, b in zip(gains, gains[1:]))
    assert gains[-1] > gains[0]


def test_metal_gate_absolute_leakage_saving_grows_with_scaling():
    # The fractional Ioff cut is largest at the old nodes (weak Vth
    # sensitivity there demands a big Vth shift), but the absolute
    # current saved explodes toward the nanometer nodes, where it
    # matters.
    def saved_na(node_nm):
        _, ioff_poly, ioff_metal = _metal_gate_what_if(node_nm)
        return ioff_poly - ioff_metal

    assert saved_na(35) > 50 * saved_na(180)


def test_50nm_at_0v7_reduces_ioff_severalfold():
    # Paper: "reducing off current by nearly 7X but increasing dynamic
    # power by 36%" for the 0.7 V fallback.
    import dataclasses
    device = device_for_node(50)
    at_0v7 = dataclasses.replace(device, vdd_v=0.7)
    vth_06 = solve_vth_for_ion(device, 750.0)
    vth_07 = solve_vth_for_ion(at_0v7, 750.0)
    ioff_06 = MosfetModel(device.with_vth(vth_06)).ioff_na_um()
    ioff_07 = MosfetModel(at_0v7.with_vth(vth_07)).ioff_na_um()
    assert ioff_06 / ioff_07 > 5.0
    assert vth_07 > vth_06
