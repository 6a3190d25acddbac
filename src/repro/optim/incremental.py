"""Incremental timing engine for the optimization flows.

The greedy assignment loops (CVS, dual-Vth, re-sizing) mutate one gate at
a time and must know whether the netlist still meets its clock.  A full
STA per trial is O(V + E); this engine re-evaluates only the changed
gates and their downstream cone, rejecting a change as soon as any
endpoint misses the period.

It runs on the same topo-order index arrays and arrival kernel as
:func:`~repro.netlist.sta.compute_sta`: a full refresh is the STA
arrival pass, and a trial walks integer positions of the affected cone.
Arrival, delay and input capacitance are stored per position, so a
trial rebuilds only the listed gates' models and sums each load from
cached sink capacitances.

Correctness argument: a gate mutation changes (a) its own delay, (b) the
delay of its fanins when its input capacitance changes (re-sizing).  The
caller lists every gate whose delay may have changed; arrivals are then
recomputed in topological order over the affected cone.  Endpoint
arrivals are compared against the clock period directly, so no stale
required-time data is ever consulted.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from types import MappingProxyType

from repro.errors import NetlistError
from repro.netlist.graph import Netlist
from repro.netlist.sta import (build_timing_index, propagate_arrivals,
                               resolve_fanins)

#: Timing comparison tolerance [s].
_EPS_S = 1e-15


class IncrementalTimer:
    """Maintains arrival times for a netlist under local mutations."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.full_refresh()

    def full_refresh(self) -> None:
        """Recompute all delays and arrivals from scratch."""
        netlist = self.netlist
        graph = build_timing_index(netlist)
        delays = netlist.gate_delays()
        self._graph = graph
        self._endpoints = [position for position, endpoint
                           in enumerate(graph.is_endpoint) if endpoint]
        self._delay = [delays[name] for name in graph.order]
        self._cap = [netlist.instances[name].model().input_cap_f
                     for name in graph.order]
        self._arrival, _ = propagate_arrivals(graph.fanins, self._delay)

    @property
    def arrival_s(self) -> Mapping[str, float]:
        """Snapshot of the arrival time at each instance output [s]."""
        return MappingProxyType(dict(zip(self._graph.order, self._arrival)))

    @property
    def critical_delay_s(self) -> float:
        """Longest endpoint arrival [s]."""
        arrival = self._arrival
        return max(arrival[position] for position in self._endpoints)

    def meets_timing(self, period_s: float | None = None) -> bool:
        """True when every endpoint settles within the period."""
        period = (self.netlist.clock_period_s if period_s is None
                  else period_s)
        return self.critical_delay_s <= period + _EPS_S

    def try_change(self, changed: list[str],
                   period_s: float | None = None) -> bool:
        """Validate a mutation the caller has already applied.

        ``changed`` lists every instance whose *delay* may have changed
        (the mutated gate, plus its fanins when its input capacitance
        changed).  Returns True and commits the new capacitances, delays
        and arrivals when all endpoints still meet the period; returns
        False and keeps the previous timing state otherwise -- in which
        case the caller must revert its netlist mutation.
        """
        netlist = self.netlist
        graph = self._graph
        period = (netlist.clock_period_s if period_s is None
                  else period_s)
        listed = []
        for name in changed:
            position = graph.position.get(name)
            if position is None:
                raise NetlistError(f"unknown instance {name!r}")
            listed.append(position)

        # Re-check the listed gates' live fanins (a misnamed net raises),
        # stage their input capacitances, then time them into loads
        # summed from the staged and cached sink caps.
        caps = self._cap
        staged_cap: dict[int, float] = {}
        for name, position in zip(changed, listed):
            instance = netlist.instances[name]
            resolve_fanins(name, instance.fanins, graph.position,
                           graph.primary_inputs)
            staged_cap[position] = instance.model().input_cap_f
        new_delay: dict[int, float] = {}
        for name, position in zip(changed, listed):
            new_delay[position] = netlist.delay_for_sink_caps(
                name, [staged_cap[sink] if sink in staged_cap
                       else caps[sink] for sink in graph.fanouts[position]])

        arrival = self._arrival
        delay = self._delay
        fanins = graph.fanins
        fanouts = graph.fanouts
        is_endpoint = graph.is_endpoint
        limit = period + _EPS_S
        new_arrival: dict[int, float] = {}
        new_arrival_get = new_arrival.get
        heappop, heappush = heapq.heappop, heapq.heappush
        # Sinks come after their driver in topo order, so a popped
        # position is never pushed again: ``queued`` need not forget it.
        queued = set(listed)
        heap = sorted(queued)
        while heap:
            position = heappop(heap)
            latest = 0.0
            for fanin in fanins[position]:
                fanin_arrival = new_arrival_get(fanin)
                if fanin_arrival is None:
                    fanin_arrival = arrival[fanin]
                if fanin_arrival > latest:
                    latest = fanin_arrival
            value = latest + new_delay.get(position, delay[position])
            if is_endpoint[position] and value > limit:
                return False
            if abs(value - arrival[position]) <= _EPS_S:
                if position in new_delay:
                    new_arrival[position] = value
                continue  # no downstream effect from this node: prune
            new_arrival[position] = value
            for sink in fanouts[position]:
                if sink not in queued:
                    heappush(heap, sink)
                    queued.add(sink)

        for updates, target in ((staged_cap, caps), (new_delay, delay),
                                (new_arrival, arrival)):
            for position, value in updates.items():
                target[position] = value
        return True
