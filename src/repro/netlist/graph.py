"""Combinational gate-level netlist with assignment state.

An :class:`Instance` binds a library :class:`~repro.circuits.library.Cell`
to a position in the DAG and carries the mutable optimization state the
paper's flows manipulate: supply domain (multi-Vdd), threshold override
(multi-Vth), re-sizing factor, and a level-converter flag for
low-to-high Vdd boundaries.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro import units
from repro.circuits.gate import GateDesign, GateModel
from repro.circuits.library import Cell, gate_model
from repro.errors import NetlistError
from repro.itrs import ITRS_2000

#: Level-converter energy slope: converter capacitance in unit-inverter
#: input caps is ``LC_ENERGY_SLOPE * Vdd_h / Vdd_l`` -- converting a
#: wider supply gap needs a stronger (larger) cascode structure.  At
#: the paper's preferred 0.65 ratio this gives the usual ~2 gate caps.
LC_ENERGY_SLOPE = 1.3

#: Level-converter delay: the driving gate's delay is multiplied by
#: ``1 + LC_DELAY_SLOPE * (Vdd_h / Vdd_l - 1)``; deep conversions are
#: disproportionately slow, which is what pushes the optimal Vdd,l to
#: the paper's 0.6-0.7 x Vdd,h window.
LC_DELAY_SLOPE = 1.0


def lc_cap_factor(vdd_ratio: float) -> float:
    """Converter capacitance in unit input caps for a Vdd,l/Vdd,h ratio."""
    if vdd_ratio <= 0:
        raise NetlistError("supply ratio must be positive")
    return LC_ENERGY_SLOPE / vdd_ratio


def lc_delay_factor(vdd_ratio: float) -> float:
    """Delay multiplier of a converting driver for a Vdd,l/Vdd,h ratio."""
    if vdd_ratio <= 0:
        raise NetlistError("supply ratio must be positive")
    return 1.0 + LC_DELAY_SLOPE * (1.0 / vdd_ratio - 1.0)

#: Endpoint (flip-flop data pin) load, as a multiple of a unit-inverter
#: input capacitance.
FLOP_LOAD_FACTOR = 3.0


@dataclass
class Instance:
    """One gate instance and its optimization state."""

    name: str
    cell: Cell
    fanins: tuple[str, ...]
    #: Supply override [V]; None means the nominal node supply.
    vdd_v: float | None = None
    #: Threshold override [V]; None means the cell's device threshold.
    vth_v: float | None = None
    #: Post-synthesis re-sizing multiplier on the cell's drive strength.
    size_factor: float = 1.0
    #: True when this instance drives a higher-Vdd sink via a converter.
    level_converter: bool = False
    #: ``(cell, vth_v, size_factor, model)`` of the last :meth:`model`.
    _model_memo: tuple | None = field(default=None, init=False,
                                      compare=False, repr=False)

    def effective_design(self) -> GateDesign:
        """Cell design with the re-sizing factor applied."""
        return self.cell.design.scaled(self.size_factor)

    def model(self) -> GateModel:
        """Gate model reflecting current Vth/size assignment.

        While the cell, ``vth_v`` and ``size_factor`` are the same
        objects as at the last call, that call's model is returned.
        Otherwise the model comes from the process's gate-model table
        (:func:`repro.circuits.library.gate_model`), which builds each
        (cell, Vth, size) state once and shares it between instances and
        netlists.
        """
        memo = self._model_memo
        if (memo is not None and memo[0] is self.cell
                and memo[1] is self.vth_v and memo[2] is self.size_factor):
            return memo[3]
        model = gate_model(self.cell, self.vth_v, self.size_factor)
        self._model_memo = (self.cell, self.vth_v, self.size_factor, model)
        return model

    def effective_vdd(self, nominal_vdd_v: float) -> float:
        """Supply this instance runs at [V]."""
        return self.vdd_v if self.vdd_v is not None else nominal_vdd_v


class Netlist:
    """A combinational DAG of gate instances.

    Primary inputs are named terminals; instances reference fanins by
    name (either PI names or other instance names).  Instances must be
    added in topological order (fanins before users), which keeps
    construction O(V + E) and guarantees acyclicity by construction.
    """

    def __init__(self, node_nm: int, clock_period_s: float,
                 wire_cap_per_net_f: float | None = None):
        if clock_period_s <= 0:
            raise NetlistError("clock period must be positive")
        record = ITRS_2000.node(node_nm)
        self.node_nm = node_nm
        self.nominal_vdd_v = record.vdd_v
        self.clock_period_s = clock_period_s
        self.frequency_hz = 1.0 / clock_period_s
        if wire_cap_per_net_f is None:
            wire_cap_per_net_f = units.fF(record.avg_wire_length_um
                                          * record.wire_cap_ff_per_um)
        self.wire_cap_per_net_f = wire_cap_per_net_f
        self.primary_inputs: list[str] = []
        self.instances: dict[str, Instance] = {}
        self.primary_outputs: list[str] = []
        self._output_set: set[str] = set()
        self._fanouts: dict[str, list[str]] = {}
        self._unit_cap_f: float | None = None

    # --- construction ------------------------------------------------------

    def add_input(self, name: str) -> None:
        """Declare a primary input terminal."""
        if name in self.instances or name in self._fanouts:
            raise NetlistError(f"name {name!r} already used")
        self.primary_inputs.append(name)
        self._fanouts[name] = []

    def add_instance(self, name: str, cell: Cell,
                     fanins: tuple[str, ...]) -> Instance:
        """Add a gate instance; all fanins must already exist."""
        if name in self._fanouts:
            raise NetlistError(f"name {name!r} already used")
        if len(fanins) != cell.design.n_inputs:
            raise NetlistError(
                f"instance {name!r}: cell {cell.name!r} has "
                f"{cell.design.n_inputs} inputs, got {len(fanins)} fanins"
            )
        for fanin in fanins:
            if fanin not in self._fanouts:
                raise NetlistError(
                    f"instance {name!r} references unknown fanin {fanin!r}"
                )
        instance = Instance(name=name, cell=cell, fanins=fanins)
        self.instances[name] = instance
        self._fanouts[name] = []
        for fanin in fanins:
            self._fanouts[fanin].append(name)
        return instance

    def mark_output(self, name: str) -> None:
        """Declare an instance output as a primary output (endpoint)."""
        if name not in self.instances:
            raise NetlistError(f"unknown instance {name!r}")
        if name not in self._output_set:
            self.primary_outputs.append(name)
            self._output_set.add(name)

    def finalize(self) -> None:
        """Mark fanout-free instances as primary outputs and validate."""
        for name in self.instances:
            if not self._fanouts[name]:
                self.mark_output(name)
        if not self.primary_outputs:
            raise NetlistError("netlist has no endpoints")

    # --- queries -----------------------------------------------------------

    def fanouts(self, name: str) -> tuple[str, ...]:
        """Instances driven by ``name``."""
        return tuple(self._fanouts[name])

    def topo_order(self) -> tuple[str, ...]:
        """Instance names in topological order (construction order)."""
        return tuple(self.instances)

    def is_primary_input(self, name: str) -> bool:
        """True when ``name`` is a PI terminal."""
        return name in set(self.primary_inputs)

    def load_f(self, name: str) -> float:
        """Capacitive load on an instance's output net [F].

        Sink pin capacitances (with their re-sizing factors) plus the
        per-net wire capacitance, plus the level-converter input when one
        is present.
        """
        return self._load_f(name, self._sink_caps(name))

    def _sink_caps(self, name: str) -> list[float]:
        return [self.instances[sink].model().input_cap_f
                for sink in self._fanouts[name]]

    def _load_f(self, name: str, sink_caps: Iterable[float]) -> float:
        # Wire, then sinks in fanout order, then flop, then converter:
        # every caller accumulates in this order, bit for bit.
        load = self.wire_cap_per_net_f
        for cap in sink_caps:
            load += cap
        if name in self._output_set:
            load += FLOP_LOAD_FACTOR * self._unit_input_cap()
        instance = self.instances.get(name)
        if instance is not None and instance.level_converter:
            load += self.lc_cap_f(instance)
        return load

    def lc_cap_f(self, instance: Instance) -> float:
        """Level-converter input capacitance for an instance [F]."""
        ratio = instance.effective_vdd(self.nominal_vdd_v) \
            / self.nominal_vdd_v
        return lc_cap_factor(ratio) * self._unit_input_cap()

    def _unit_input_cap(self) -> float:
        if self._unit_cap_f is None:
            any_instance = next(iter(self.instances.values()))
            self._unit_cap_f = GateModel(any_instance.cell.device).input_cap_f
        return self._unit_cap_f

    def delay_for_sink_caps(self, name: str,
                            sink_caps: Iterable[float]) -> float:
        """Delay of instance ``name`` when its sinks present ``sink_caps`` [s].

        The one load-and-delay formula: :meth:`gate_delay_s`,
        :meth:`gate_delays` and the incremental timer all call it, so
        their delays are bit-identical.  ``sink_caps`` lists the input
        capacitance of each fanout sink, in fanout order.  The
        converter's delay factor is applied last.
        """
        instance = self.instances[name]
        vdd = instance.effective_vdd(self.nominal_vdd_v)
        delay = instance.model().delay_s(self._load_f(name, sink_caps),
                                         vdd_v=vdd)
        if instance.level_converter:
            delay *= lc_delay_factor(vdd / self.nominal_vdd_v)
        return delay

    def gate_delay_s(self, name: str) -> float:
        """Delay of one instance into its current load [s]."""
        return self.delay_for_sink_caps(name, self._sink_caps(name))

    def gate_delays(self) -> dict[str, float]:
        """Delay of every instance into its current load, in bulk [s].

        Identical arithmetic to calling :meth:`gate_delay_s` per name,
        but each sink's input capacitance is looked up once instead of
        once per fanout edge.
        """
        input_caps = {name: instance.model().input_cap_f
                      for name, instance in self.instances.items()}
        return {name: self.delay_for_sink_caps(
                    name, [input_caps[sink] for sink in self._fanouts[name]])
                for name in self.instances}

    def needs_level_converter(self, name: str) -> bool:
        """True when ``name`` drives any sink at a higher supply."""
        instance = self.instances[name]
        vdd = instance.effective_vdd(self.nominal_vdd_v)
        for sink_name in self._fanouts[name]:
            sink_vdd = self.instances[sink_name].effective_vdd(
                self.nominal_vdd_v)
            if sink_vdd > vdd + 1e-9:
                return True
        # Endpoints at reduced supply also convert back up to the
        # (full-swing) flop boundary.
        return name in self._output_set and \
            vdd < self.nominal_vdd_v - 1e-9

    def refresh_level_converters(self) -> int:
        """Set every instance's LC flag from the current Vdd map.

        Returns the number of converters in use.
        """
        count = 0
        for name, instance in self.instances.items():
            instance.level_converter = self.needs_level_converter(name)
            count += instance.level_converter
        return count

    # --- statistics ------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Instance counts by topology."""
        result: dict[str, int] = {}
        for instance in self.instances.values():
            key = instance.cell.design.kind.value
            result[key] = result.get(key, 0) + 1
        return result

    def __len__(self) -> int:
        return len(self.instances)
