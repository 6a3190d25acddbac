"""Static timing analysis over a :class:`~repro.netlist.graph.Netlist`.

Single-corner, topological arrival/required propagation.  Primary inputs
arrive at t = 0; every primary output must settle within the clock
period.  Slack is reported at each instance output.

The propagation runs on topo-order index arrays: names are resolved to
dense integer positions once (:func:`build_timing_index`), gate delays
come from the bulk :meth:`~repro.netlist.graph.Netlist.gate_delays`
evaluation, and both passes walk plain integer adjacency lists.  The
index build and the arrival loop (:func:`propagate_arrivals`) are shared
with :class:`~repro.optim.incremental.IncrementalTimer`, so full and
incremental timing run one kernel.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.errors import NetlistError
from repro.netlist.graph import Netlist
from repro.obs import COUNT_BUCKETS, add_counter, observe, span

_INFINITY = float("inf")


@dataclass(frozen=True)
class TimingReport:
    """Result of one STA pass."""

    clock_period_s: float
    #: Arrival time at each instance output [s].
    arrival_s: dict[str, float]
    #: Required time at each instance output [s].
    required_s: dict[str, float]
    #: Slack at each instance output [s].
    slack_s: dict[str, float]
    #: Names along (one) critical path, driver first.
    critical_path: tuple[str, ...]
    #: Primary-output endpoints, in declaration order.
    endpoints: tuple[str, ...]

    @property
    def worst_slack_s(self) -> float:
        """Minimum slack over all instances [s]."""
        return min(self.slack_s.values())

    @property
    def critical_delay_s(self) -> float:
        """Longest endpoint arrival time [s]."""
        return max(self.arrival_s.values())

    def meets_timing(self, tolerance_s: float = 0.0) -> bool:
        """True when no slack is worse than ``-tolerance_s``."""
        return self.worst_slack_s >= -tolerance_s

    def path_utilisation(self) -> dict[str, float]:
        """Endpoint arrival as a fraction of the clock period.

        The paper cites MPU slack profiles in which "over half of all
        timing paths commonly use less than half the clock cycle"; this
        is the statistic that claim is about.  Only primary-output
        endpoints count -- a timing *path* terminates at an endpoint,
        and including internal-node arrivals (which are early by
        construction) would dilute the profile toward zero.
        """
        return {name: self.arrival_s[name] / self.clock_period_s
                for name in self.endpoints}


def compute_sta(netlist: Netlist,
                clock_period_s: float | None = None) -> TimingReport:
    """Run a full STA pass and return a :class:`TimingReport`."""
    period = (netlist.clock_period_s if clock_period_s is None
              else clock_period_s)
    if period <= 0:
        raise NetlistError("clock period must be positive")
    with span("sta.compute", instances=len(netlist.instances)):
        add_counter("sta.passes")
        add_counter("sta.instances", len(netlist.instances))
        observe("sta.netlist_instances", len(netlist.instances),
                COUNT_BUCKETS)
        return _compute_sta(netlist, period)


@dataclass(frozen=True)
class TimingIndex:
    """A netlist's instances as dense topo positions with integer adjacency."""

    #: Instance names in topological order; a name's position is its index.
    order: tuple[str, ...]
    #: Name -> topo position.
    position: dict[str, int]
    primary_inputs: frozenset[str]
    #: Per position: topo positions of its instance fanins (PIs dropped).
    fanins: list[list[int]]
    #: Per position: topo positions of its sinks, in fanout order.
    fanouts: list[list[int]]
    #: Per position: True for a primary-output endpoint.
    is_endpoint: list[bool]


def resolve_fanins(name: str, fanins: Iterable[str],
                   position: dict[str, int],
                   primary_inputs: frozenset[str]) -> list[int]:
    """Topo positions of ``name``'s instance fanins.

    Primary inputs arrive at t = 0 and the strict ``>`` of
    :func:`propagate_arrivals` means they can never become the worst
    fanin, so they drop out.  A fanin that is neither is an undriven or
    misnamed net; treating it as arriving at t = 0 would optimistically
    pass timing, so it raises :class:`~repro.errors.NetlistError`.
    """
    positions = []
    for fanin in fanins:
        fanin_position = position.get(fanin)
        if fanin_position is not None:
            positions.append(fanin_position)
        elif fanin not in primary_inputs:
            raise NetlistError(
                f"instance {name!r}: fanin {fanin!r} is neither a "
                f"primary input nor a timed instance (undriven or "
                f"misnamed net)")
    return positions


def build_timing_index(netlist: Netlist) -> TimingIndex:
    """Resolve ``netlist`` to topo positions and integer adjacency lists."""
    order = netlist.topo_order()
    position = {name: index for index, name in enumerate(order)}
    primary_inputs = frozenset(netlist.primary_inputs)
    endpoint_set = set(netlist.primary_outputs)
    return TimingIndex(
        order=order,
        position=position,
        primary_inputs=primary_inputs,
        fanins=[resolve_fanins(name, netlist.instances[name].fanins,
                               position, primary_inputs)
                for name in order],
        fanouts=[[position[sink] for sink in netlist.fanouts(name)]
                 for name in order],
        is_endpoint=[name in endpoint_set for name in order],
    )


def propagate_arrivals(fanins: list[list[int]],
                       delays: list[float]) -> tuple[list[float], list[int]]:
    """Arrival at every topo position, and its worst fanin (-1 for none)."""
    n = len(delays)
    arrival = [0.0] * n
    worst_fanin = [-1] * n
    for position in range(n):
        best_arrival = 0.0
        best_fanin = -1
        for fanin in fanins[position]:
            fanin_arrival = arrival[fanin]
            if fanin_arrival > best_arrival:
                best_arrival = fanin_arrival
                best_fanin = fanin
        arrival[position] = best_arrival + delays[position]
        worst_fanin[position] = best_fanin
    return arrival, worst_fanin


def _compute_sta(netlist: Netlist, period: float) -> TimingReport:
    graph = build_timing_index(netlist)
    order = graph.order
    n = len(order)
    delay_by_name = netlist.gate_delays()
    delays = [delay_by_name[name] for name in order]
    arrival, worst_fanin = propagate_arrivals(graph.fanins, delays)
    is_endpoint = graph.is_endpoint

    required = [_INFINITY] * n
    for position in range(n - 1, -1, -1):
        bound = period if is_endpoint[position] else _INFINITY
        for sink in graph.fanouts[position]:
            through = required[sink] - delays[sink]
            if through < bound:
                bound = through
        if bound == _INFINITY:
            raise NetlistError(
                f"instance {order[position]!r} reaches no endpoint; "
                f"call Netlist.finalize() first"
            )
        required[position] = bound

    # Trace one critical path from the worst endpoint backwards.
    worst_end = max((position for position in range(n)
                     if is_endpoint[position]),
                    key=lambda position: arrival[position])
    path = [worst_end]
    cursor = worst_fanin[worst_end]
    while cursor >= 0:
        path.append(cursor)
        cursor = worst_fanin[cursor]
    path.reverse()

    return TimingReport(
        clock_period_s=period,
        arrival_s=dict(zip(order, arrival)),
        required_s=dict(zip(order, required)),
        slack_s={name: required[position] - arrival[position]
                 for position, name in enumerate(order)},
        critical_path=tuple(order[position] for position in path),
        endpoints=tuple(netlist.primary_outputs),
    )
