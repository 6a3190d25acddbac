"""Dict-keyed incremental timer: the test oracle for the array timer.

This is the incremental timing engine as it was before it moved onto
:func:`~repro.netlist.sta.compute_sta`'s index arrays, kept unchanged
so the differential tests can hold the production
:class:`~repro.optim.incremental.IncrementalTimer` to it.  Each trial
recomputes the listed gates' delays from live netlist loads and walks
the affected cone by name, with the same accept, reject and prune rules.
"""

from __future__ import annotations

import heapq

from repro.errors import NetlistError
from repro.netlist.graph import Netlist

#: Timing comparison tolerance [s].
_EPS_S = 1e-15


class DictIncrementalTimer:
    """Maintains arrival times for a netlist under local mutations."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self._topo = netlist.topo_order()
        self._index = {name: i for i, name in enumerate(self._topo)}
        self._endpoints = set(netlist.primary_outputs)
        self._primary_inputs = frozenset(netlist.primary_inputs)
        self.delay_s: dict[str, float] = {}
        self.arrival_s: dict[str, float] = {}
        self.full_refresh()

    def full_refresh(self) -> None:
        """Recompute all delays and arrivals from scratch."""
        for name in self._topo:
            self.delay_s[name] = self.netlist.gate_delay_s(name)
            self.arrival_s[name] = (self._fanin_arrival(name)
                                    + self.delay_s[name])

    def _fanin_arrival(self, name: str,
                       overlay: dict[str, float] | None = None) -> float:
        """Latest fanin arrival of ``name`` (0.0 for primary inputs).

        A fanin that is neither a primary input nor a timed instance is
        an undriven or misnamed net; full STA rejects those at
        construction, and silently treating one as arriving at t=0
        would optimistically pass timing -- so raise instead.
        """
        instance = self.netlist.instances[name]
        latest = 0.0
        for fanin in instance.fanins:
            if overlay is not None and fanin in overlay:
                latest = max(latest, overlay[fanin])
                continue
            arrival = self.arrival_s.get(fanin)
            if arrival is None:
                if fanin in self._primary_inputs:
                    continue  # PI terminals arrive at t = 0
                raise NetlistError(
                    f"instance {name!r}: fanin {fanin!r} is neither a "
                    f"primary input nor a timed instance (undriven or "
                    f"misnamed net)")
            latest = max(latest, arrival)
        return latest

    @property
    def critical_delay_s(self) -> float:
        """Longest endpoint arrival [s]."""
        return max(self.arrival_s[name] for name in self._endpoints)

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
        changed).  Returns True and commits the new arrivals when all
        endpoints still meet the period; returns False and restores the
        previous timing state otherwise -- in which case the caller must
        revert its netlist mutation.
        """
        period = (self.netlist.clock_period_s if period_s is None
                  else period_s)
        for name in changed:
            if name not in self._index:
                raise NetlistError(f"unknown instance {name!r}")

        new_delay: dict[str, float] = {}
        new_arrival: dict[str, float] = {}
        heap = []
        queued = set()
        for name in changed:
            new_delay[name] = self.netlist.gate_delay_s(name)
            heapq.heappush(heap, (self._index[name], name))
            queued.add(name)

        ok = True
        while heap:
            _, name = heapq.heappop(heap)
            queued.discard(name)
            fanin_arrival = self._fanin_arrival(name,
                                                overlay=new_arrival)
            delay = new_delay.get(name, self.delay_s[name])
            arrival = fanin_arrival + delay
            if name in self._endpoints and arrival > period + _EPS_S:
                ok = False
                break
            if abs(arrival - self.arrival_s[name]) <= _EPS_S \
                    and name not in new_delay:
                continue  # no downstream effect from this node
            if abs(arrival - self.arrival_s[name]) <= _EPS_S \
                    and name in new_delay:
                new_arrival[name] = arrival
                continue  # delay changed but arrival identical: prune
            new_arrival[name] = arrival
            for sink in self.netlist.fanouts(name):
                if sink not in queued:
                    heapq.heappush(heap, (self._index[sink], sink))
                    queued.add(sink)

        if not ok:
            return False
        self.delay_s.update(new_delay)
        self.arrival_s.update(new_arrival)
        return True
