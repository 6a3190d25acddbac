"""Parametric standard-cell library (Section 2.3).

The paper argues that the perceived 6-8x custom-vs-ASIC gap is partly a
library-richness problem, and observes that leading-edge libraries
already offer "a rich set of drive strengths (e.g. 11 2-input NANDs, 16
inverter sizes)".  This module builds such a library on top of the gate
model: geometric drive-strength ladders per topology, with optional
high/low threshold variants (for the dual-Vth flows of Section 3.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.circuits.gate import GateDesign, GateKind, GateModel
from repro.devices.mosfet import DeviceParams
from repro.devices.params import device_for_node
from repro.errors import InfeasibleConstraintError, ModelParameterError

#: Default inverter drive ladder: 16 sizes, ~sqrt(2) steps (paper: "16
#: inverter sizes").
INVERTER_SIZES = tuple(round(0.5 * 2 ** (i / 2), 3) for i in range(16))

#: Default NAND2 ladder: 11 sizes (paper: "11 2-input NANDs").
NAND2_SIZES = tuple(round(0.5 * 2 ** (i / 2), 3) for i in range(11))

#: Default NOR2 ladder.
NOR2_SIZES = tuple(round(0.5 * 2 ** (i / 2), 3) for i in range(8))

#: Entries kept in the process's gate-model table (least recently used
#: go first).  One pass over the paper registry visits 369 states.
MODEL_TABLE_SIZE = 4096


@dataclass(frozen=True)
class Cell:
    """One library cell: a named, characterised gate."""

    name: str
    design: GateDesign
    #: Device card the cell is characterised against (fixes Vth class).
    device: DeviceParams
    #: Library threshold class label ("hvt"/"lvt"/"svt").
    vth_class: str = "svt"

    @property
    def model(self) -> GateModel:
        """Gate model bound to this cell's device card.

        Served from the process's gate-model table (:func:`gate_model`),
        so every access, and every equal cell, shares one model.
        """
        return gate_model(self, None, 1.0)

    @property
    def input_cap_f(self) -> float:
        """Pin capacitance [F]."""
        return self.model.input_cap_f

    def delay_s(self, load_f: float) -> float:
        """Delay into ``load_f`` at the nominal corner [s]."""
        return self.model.delay_s(load_f)

    def dynamic_energy_j(self, load_f: float) -> float:
        """Switching energy into ``load_f`` [J]."""
        return self.model.dynamic_energy_j(load_f)

    def static_power_w(self, temperature_k: float = 300.0) -> float:
        """Leakage power [W]."""
        return self.model.static_power_w(temperature_k=temperature_k)


@lru_cache(maxsize=MODEL_TABLE_SIZE, typed=True)
def gate_model(cell: Cell, vth_v: float | None,
               size_factor: float) -> GateModel:
    """The gate model of ``cell`` at a threshold override and re-sizing.

    A process-wide table, bounded by :data:`MODEL_TABLE_SIZE`, keys the
    models by value and type: equal cells (two ``build_library`` calls
    give equal cells) share a model per ``(vth_v, size_factor)``, while
    an equal override of another numeric type (say ``np.float32``) gets
    its own.  Pass all three arguments positionally: the table keys on
    the call's shape.  The design at a size factor is
    ``design.scaled(factor)``, as
    :meth:`repro.netlist.graph.Instance.effective_design` gives it.
    """
    device = cell.device if vth_v is None else cell.device.with_vth(vth_v)
    return GateModel(device, cell.design.scaled(size_factor))


@dataclass
class CellLibrary:
    """A set of cells with selection queries."""

    node_nm: int
    cells: list[Cell] = field(default_factory=list)

    def add(self, cell: Cell) -> None:
        """Add a cell; names must be unique."""
        if any(existing.name == cell.name for existing in self.cells):
            raise ModelParameterError(f"duplicate cell name {cell.name!r}")
        self.cells.append(cell)

    def cells_of_kind(self, kind: GateKind,
                      vth_class: str | None = None) -> list[Cell]:
        """All cells of a topology, optionally filtered by Vth class."""
        return [cell for cell in self.cells
                if cell.design.kind is kind
                and (vth_class is None or cell.vth_class == vth_class)]

    def drive_strengths(self, kind: GateKind) -> list[float]:
        """Sorted unique drive sizes available for a topology."""
        return sorted({cell.design.size for cell in self.cells_of_kind(kind)})

    def smallest(self, kind: GateKind) -> Cell:
        """The lowest-drive cell of a topology."""
        candidates = self.cells_of_kind(kind)
        if not candidates:
            raise InfeasibleConstraintError(
                f"library has no {kind.value} cells"
            )
        return min(candidates, key=lambda cell: cell.design.size)

    def fastest_cell(self, kind: GateKind, load_f: float,
                     vth_class: str | None = None) -> Cell:
        """Cell minimising delay into ``load_f``."""
        candidates = self.cells_of_kind(kind, vth_class)
        if not candidates:
            raise InfeasibleConstraintError(
                f"library has no {kind.value} cells"
            )
        return min(candidates, key=lambda cell: cell.delay_s(load_f))

    def cheapest_cell_meeting(self, kind: GateKind, load_f: float,
                              max_delay_s: float,
                              vth_class: str | None = None) -> Cell:
        """Lowest-energy cell meeting a delay bound into ``load_f``.

        Raises :class:`InfeasibleConstraintError` when even the fastest
        cell misses the bound.
        """
        candidates = [cell for cell in self.cells_of_kind(kind, vth_class)
                      if cell.delay_s(load_f) <= max_delay_s]
        if not candidates:
            best = self.fastest_cell(kind, load_f, vth_class)
            raise InfeasibleConstraintError(
                f"no {kind.value} cell meets {max_delay_s:.3e} s into "
                f"{load_f:.3e} F; fastest achieves "
                f"{best.delay_s(load_f):.3e} s"
            )
        return min(candidates,
                   key=lambda cell: cell.dynamic_energy_j(load_f))


def build_library(node_nm: int,
                  inverter_sizes: tuple[float, ...] = INVERTER_SIZES,
                  nand2_sizes: tuple[float, ...] = NAND2_SIZES,
                  nor2_sizes: tuple[float, ...] = NOR2_SIZES,
                  dual_vth: bool = False,
                  lvt_offset_v: float = 0.100) -> CellLibrary:
    """Build the default library for a node.

    With ``dual_vth`` each cell is issued in a standard-Vth ("svt") and a
    low-Vth ("lvt") flavour whose threshold is ``lvt_offset_v`` lower --
    the 100 mV offset of Fig. 2.
    """
    device = device_for_node(node_nm)
    library = CellLibrary(node_nm=node_nm)
    flavours: list[tuple[str, DeviceParams]] = [("svt", device)]
    if dual_vth:
        flavours.append(("lvt", device.with_vth(device.vth_v - lvt_offset_v)))
    ladders = (
        (GateKind.INVERTER, 1, "inv", inverter_sizes),
        (GateKind.NAND, 2, "nand2", nand2_sizes),
        (GateKind.NOR, 2, "nor2", nor2_sizes),
    )
    for kind, n_inputs, prefix, sizes in ladders:
        for size in sizes:
            for vth_class, card in flavours:
                suffix = "" if vth_class == "svt" else f"_{vth_class}"
                library.add(Cell(
                    name=f"{prefix}_x{size:g}{suffix}",
                    design=GateDesign(kind=kind, n_inputs=n_inputs,
                                      size=size),
                    device=card,
                    vth_class=vth_class,
                ))
    return library
