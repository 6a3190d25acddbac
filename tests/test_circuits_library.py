"""Parametric standard-cell library."""

import pytest

from repro import units
from repro.circuits.gate import GateDesign, GateKind, GateModel
from repro.circuits.library import (
    MODEL_TABLE_SIZE,
    Cell,
    CellLibrary,
    build_library,
    gate_model,
)
from repro.devices.params import device_for_node
from repro.errors import InfeasibleConstraintError, ModelParameterError


@pytest.fixture(scope="module")
def library():
    return build_library(100)


def test_paper_quoted_richness(library):
    # Paper: "11 2-input NANDs, 16 inverter sizes".
    assert len(library.drive_strengths(GateKind.INVERTER)) == 16
    assert len(library.drive_strengths(GateKind.NAND)) == 11


def test_drive_ladder_geometric(library):
    sizes = library.drive_strengths(GateKind.INVERTER)
    ratios = [b / a for a, b in zip(sizes, sizes[1:])]
    for ratio in ratios:
        assert ratio == pytest.approx(2 ** 0.5, rel=0.02)


def test_smallest_inverter_is_sub_unit(library):
    assert library.smallest(GateKind.INVERTER).design.size \
        == pytest.approx(0.5)


def test_cell_names_unique(library):
    names = [cell.name for cell in library.cells]
    assert len(names) == len(set(names))


def test_duplicate_name_rejected(library):
    cell = library.cells[0]
    with pytest.raises(ModelParameterError):
        library.add(cell)


def test_fastest_cell_is_biggest_for_large_load(library):
    load = units.fF(200.0)
    fastest = library.fastest_cell(GateKind.INVERTER, load)
    assert fastest.design.size == max(
        library.drive_strengths(GateKind.INVERTER))


def test_cheapest_cell_meets_bound(library):
    load = units.fF(20.0)
    bound = library.fastest_cell(GateKind.INVERTER, load).delay_s(load) \
        * 2.0
    cell = library.cheapest_cell_meeting(GateKind.INVERTER, load, bound)
    assert cell.delay_s(load) <= bound
    # And it is cheaper than the fastest option.
    fastest = library.fastest_cell(GateKind.INVERTER, load)
    assert cell.dynamic_energy_j(load) <= fastest.dynamic_energy_j(load)


def test_impossible_bound_raises(library):
    with pytest.raises(InfeasibleConstraintError):
        library.cheapest_cell_meeting(GateKind.INVERTER, units.fF(500.0),
                                      1e-15)


def test_empty_kind_raises():
    empty = CellLibrary(node_nm=100)
    with pytest.raises(InfeasibleConstraintError):
        empty.smallest(GateKind.INVERTER)
    with pytest.raises(InfeasibleConstraintError):
        empty.fastest_cell(GateKind.INVERTER, 1e-15)


def test_dual_vth_library_has_lvt_flavours():
    lib = build_library(70, dual_vth=True)
    svt = lib.cells_of_kind(GateKind.INVERTER, vth_class="svt")
    lvt = lib.cells_of_kind(GateKind.INVERTER, vth_class="lvt")
    assert len(svt) == len(lvt) == 16
    device = device_for_node(70)
    assert lvt[0].device.vth_v == pytest.approx(device.vth_v - 0.1)


def test_lvt_cell_faster_but_leakier():
    lib = build_library(70, dual_vth=True)
    load = units.fF(10.0)
    svt = lib.cells_of_kind(GateKind.INVERTER, "svt")[4]
    lvt = next(cell for cell in lib.cells_of_kind(GateKind.INVERTER,
                                                  "lvt")
               if cell.design.size == svt.design.size)
    assert lvt.delay_s(load) < svt.delay_s(load)
    assert lvt.static_power_w() > svt.static_power_w()


def test_cell_properties_consistent(library):
    cell = library.cells_of_kind(GateKind.NAND)[3]
    assert cell.input_cap_f == pytest.approx(cell.model.input_cap_f)
    assert isinstance(cell, Cell)
    assert cell.design.kind is GateKind.NAND


def test_cell_model_is_shared_between_equal_cells():
    # Two libraries give equal cells; Cell.model serves both from the
    # process's gate-model table, and the model equals a fresh build.
    first = build_library(100).cells_of_kind(GateKind.NAND)[3]
    second = build_library(100).cells_of_kind(GateKind.NAND)[3]
    assert first == second and first is not second
    assert first.model is first.model
    assert second.model is first.model
    assert gate_model(second, None, 1.0) is first.model
    fresh = GateModel(first.device, first.design)
    assert first.input_cap_f == fresh.input_cap_f
    assert first.delay_s(5e-15) == fresh.delay_s(5e-15)
    assert first.static_power_w(358.15) \
        == fresh.static_power_w(temperature_k=358.15)


def test_gate_model_table_is_bounded():
    cell = build_library(100).cells_of_kind(GateKind.INVERTER)[0]
    gate_model.cache_clear()
    oldest = gate_model(cell, None, 0.5)
    for index in range(MODEL_TABLE_SIZE):
        gate_model(cell, None, 1.0 + index / MODEL_TABLE_SIZE)
    assert gate_model.cache_info().currsize == MODEL_TABLE_SIZE
    # The least recently used state went first and is built afresh.
    assert gate_model(cell, None, 0.5) is not oldest


def test_custom_ladders():
    lib = build_library(50, inverter_sizes=(1.0, 2.0),
                        nand2_sizes=(1.0,), nor2_sizes=(1.0,))
    assert len(lib.cells) == 4


def test_smallest_library_cell_cap_near_paper_quote():
    # Paper (Section 2.3): the smallest 180 nm standard inverter has
    # ~1.5 fF input cap; the balanced one 6.6 fF.  Our 0.5x cell lands
    # in that territory.
    lib = build_library(180)
    smallest = lib.smallest(GateKind.INVERTER)
    assert 0.5 < units.to_fF(smallest.input_cap_f) < 4.0
