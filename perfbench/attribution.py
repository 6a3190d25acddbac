"""Wall-time attribution of a traced run to layers.

The traced wall time is the union of the timed operations' intervals
(sweeps, or service jobs from submit to verified result).  It is cut at
every span boundary, and each elementary interval is split evenly over
the *leaves* active in it:

* within one lane (a process/thread pair) spans nest, so only the
  innermost active span of each lane is a candidate;
* a candidate of a waiting layer (:data:`layers.WAITING_METRICS`: the
  scheduler, a client request) is not a leaf while any span of the
  same trace id is active in a deeper tier -- daemon threads are
  deeper than the client threads, forked workers deeper than both;
* an engine ``worker.run`` span marks experiment code: its share is
  time no layer accounts for and lands in ``unattributed_s``, as does
  any part of an operation during which no span is active;
* a span carrying ``nested.<metric>`` seconds (aggregated high-rate
  calls, see ``layers.py``) passes that fraction of its own self time
  (its duration less its benchmark children) on to ``<metric>``.

The traced wall time itself is the length of that union, measured
apart from the split.  :func:`attribute` reports the residue of layer
self times plus ``unattributed_s`` against it, which is rounding only
when the split credited every instant of every operation exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from layers import NESTED_PREFIX, SPAN_PREFIX, WAITING_METRICS

#: Engine span that brackets one experiment runner inside a worker.
EXPERIMENT_SPAN = "worker.run"


@dataclass(frozen=True)
class Span:
    """The fields of one recorded span that attribution needs."""

    metric: str | None        # None: experiment code (worker.run)
    start: float
    end: float
    lane: tuple[int, int]     # (pid, tid)
    tier: int
    trace_id: str | None
    #: metric -> seconds of aggregated calls made inside this span.
    nested: tuple[tuple[str, float], ...] = ()


@dataclass
class Attribution:
    wall_s: float = 0.0
    layers: dict[str, float] = field(default_factory=dict)
    experiment_code_s: float = 0.0   # worker.run self share
    uncovered_s: float = 0.0         # no span active at all

    @property
    def unattributed_s(self) -> float:
        return self.experiment_code_s + self.uncovered_s

    @property
    def residue_s(self) -> float:
        """Layer self times + unattributed - wall: rounding only when
        the split credited the whole wall time once."""
        return (sum(self.layers.values()) + self.unattributed_s
                - self.wall_s)


def spans_from_records(records: Iterable, main_pid: int,
                       root_tids: set[int]) -> list[Span]:
    """Select benchmark and experiment spans from ``SpanRecord``s.

    Tier 0 is the benchmark's own driving threads (``root_tids``),
    tier 1 any other thread of the benchmark process (daemon threads),
    tier 2 any other process (forked engine workers).
    """
    spans = []
    for record in records:
        if record.name.startswith(SPAN_PREFIX):
            metric = record.name[len(SPAN_PREFIX):]
        elif record.name == EXPERIMENT_SPAN:
            metric = None
        else:
            continue
        if record.duration_s <= 0.0:
            continue
        if record.pid != main_pid:
            tier = 2
        else:
            tier = 0 if record.tid in root_tids else 1
        nested = tuple(
            (key[len(NESTED_PREFIX):], float(value))
            for key, value in record.attributes.items()
            if key.startswith(NESTED_PREFIX))
        spans.append(Span(metric=metric, start=record.start_s,
                          end=record.start_s + record.duration_s,
                          lane=(record.pid, record.tid), tier=tier,
                          trace_id=record.attributes.get("trace_id"),
                          nested=nested))
    return spans


def _union(intervals: Iterable[tuple[float, float]]
           ) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def _nested_fractions(spans: list[Span]
                      ) -> dict[int, tuple[tuple[str, float], ...]]:
    """Span index -> (metric, share of its self time) for nested calls."""
    children_s = [0.0] * len(spans)
    lanes: dict[tuple[int, int], list[int]] = {}
    for index, item in enumerate(spans):
        lanes.setdefault(item.lane, []).append(index)
    for indices in lanes.values():
        indices.sort(key=lambda i: (spans[i].start, -spans[i].end))
        open_: list[int] = []
        for index in indices:
            while open_ and spans[open_[-1]].end <= spans[index].start:
                open_.pop()
            if open_:
                children_s[open_[-1]] += spans[index].end - spans[index].start
            open_.append(index)
    fractions = {}
    for index, item in enumerate(spans):
        if not item.nested:
            continue
        own = max(item.end - item.start - children_s[index], 1e-12)
        total = sum(seconds for _, seconds in item.nested)
        scale = min(1.0, own / total) if total > own else 1.0
        fractions[index] = tuple((metric, seconds * scale / own)
                                 for metric, seconds in item.nested)
    return fractions


def attribute(spans: list[Span],
              operations: Iterable[tuple[float, float]]) -> Attribution:
    """Split the operations' wall time over the active leaf spans."""
    result = Attribution()
    windows = _union(operations)
    if not windows:
        return result
    result.wall_s = sum(end - start for start, end in windows)
    fractions = _nested_fractions(spans)
    # Ends sort before starts at one instant; of two spans starting
    # together the longer (the parent) is pushed first.
    events: list[tuple[float, int, float, int]] = []
    for index, item in enumerate(spans):
        events.append((item.start, 1, -item.end, index))
        events.append((item.end, 0, 0.0, index))
    events.sort()

    active: dict[tuple[int, int], list[int]] = {}
    window_index = 0
    cursor = windows[0][0]

    def credit(until: float) -> None:
        """Attribute [cursor, until) clipped to the operation windows."""
        nonlocal cursor, window_index
        while cursor < until and window_index < len(windows):
            w_start, w_end = windows[window_index]
            if cursor < w_start:
                cursor = min(until, w_start)
                continue
            stop = min(until, w_end)
            if stop > cursor:
                _share(stop - cursor)
            cursor = stop
            if cursor >= w_end:
                window_index += 1

    def _share(dt: float) -> None:
        candidates = [stack[-1] for stack in active.values() if stack]
        deepest: dict[str | None, int] = {}
        for index in candidates:
            item = spans[index]
            tier = deepest.get(item.trace_id, -1)
            if item.tier > tier:
                deepest[item.trace_id] = item.tier
        leaves = [index for index in candidates
                  if not (spans[index].metric in WAITING_METRICS
                          and deepest[spans[index].trace_id]
                          > spans[index].tier)]
        if not leaves:
            result.uncovered_s += dt
            return
        part = dt / len(leaves)
        layers = result.layers
        for index in leaves:
            metric = spans[index].metric
            if metric is None:
                result.experiment_code_s += part
                continue
            own = part
            for nested, fraction in fractions.get(index, ()):
                layers[nested] = layers.get(nested, 0.0) + part * fraction
                own -= part * fraction
            layers[metric] = layers.get(metric, 0.0) + own

    for time_s, is_start, _, index in events:
        credit(time_s)
        item = spans[index]
        stack = active.setdefault(item.lane, [])
        if is_start:
            stack.append(index)
        elif index in stack:
            stack.remove(index)
    credit(windows[-1][1])
    return result
