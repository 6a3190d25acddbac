"""Benchmark-side layer wrappers for the traced run.

Each entry of :data:`PATCHES` wraps one public function or method of a
program layer.  A wrapped call records a ``repro.obs`` span named
``bench.<metric>`` (so spans from forked engine workers come back
through the engine's own worker-trace shipping) and bumps
``bench.<counter>`` counters.  Per-step calls (``ThermalNetwork.step``)
are counted, not spanned.

High-rate calls (``IncrementalTimer.try_change``, thousands per
optimisation flow) are *aggregated*: their seconds are added to the
enclosing benchmark span as a ``nested.<metric>`` attribute instead of
one span each.  A span per call would swell the trace a forked worker
ships back past the result pipe's buffer, and the engine only drains
that pipe after the worker exits.

Functions are patched wherever a caller looks them up: the defining
module, and every loaded ``repro.*`` module that bound the same object
with ``from ... import``.  Methods are patched on their class.  Nothing
here runs on import; :func:`install` applies the patches and returns a
callable that removes them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.obs import add_counter, context_fields, record_span, span
from repro.pdn.grid import solve_rail_strip
from repro.service.queue import QueueFullError

#: Span name prefix of every benchmark span.
SPAN_PREFIX = "bench."
#: Attribute prefix carrying aggregated seconds of nested calls.
NESTED_PREFIX = "nested."

#: Layers whose spans wait on work in other threads or processes (the
#: scheduler waits on its workers, a client request on the daemon).
#: Their self time yields to any deeper-tier span of the same trace.
WAITING_METRICS = frozenset((
    "engine.scheduler.self_s",
    "service.daemon.request_s",
))

#: job id -> trace id, filled from WAL submit records so state records
#: written outside the job's trace context still carry its trace id.
_JOB_TRACES: dict[str, str] = {}

#: This thread's open benchmark spans (innermost last), per process.
_OPEN = threading.local()


def _open_spans() -> list:
    if getattr(_OPEN, "pid", None) != os.getpid():
        _OPEN.pid = os.getpid()  # a forked child starts with none open
        _OPEN.stack = []
    return _OPEN.stack


@dataclass(frozen=True)
class Patch:
    """One wrapped entry point."""

    target: str                    # "module:attr" or "module:Class.attr"
    metric: str | None = None      # span metric (None: count only)
    count: str | None = None       # counter bumped once per call
    after: Callable[..., None] | None = None  # (result, args, kwargs)
    trace_of: Callable[..., str | None] | None = None  # (args, kwargs)
    generator: bool = False        # span the iteration, not the call
    aggregate: bool = False        # time into the enclosing span
    refusals: tuple[type[Exception], ...] = ()  # counted, then re-raised
    refusal_count: str | None = None


# -- result hooks -----------------------------------------------------


def _records(result, args, kwargs) -> None:
    records = result.records
    add_counter("bench.engine.scheduler.tasks", len(records))
    add_counter("bench.engine.scheduler.retries",
                sum(max(0, record.attempts - 1) for record in records))
    add_counter("bench.engine.scheduler.queue_wait_s",
                sum(record.phases.get("queue", 0.0) for record in records))


def _cache_read(result, args, kwargs) -> None:
    if result[0]:
        add_counter("bench.engine.cache.hits")


def _cache_write(result, args, kwargs) -> None:
    if not result:
        return
    cache, experiment_id, fingerprint = args[:3]
    try:
        size = cache.path_for(experiment_id, fingerprint).stat().st_size
    except OSError:
        return
    add_counter("bench.engine.cache.bytes_written", size)


def _linear(result, args, kwargs) -> None:
    diagnostics = result.diagnostics
    if diagnostics.method == "cg":
        add_counter("bench.reliability.guard.cg_iterations",
                    diagnostics.iterations)
    if diagnostics.fallback is not None:
        add_counter("bench.reliability.guard.fallbacks")


def _root(result, args, kwargs) -> None:
    if result.diagnostics.fallback is not None:
        add_counter("bench.reliability.guard.fallbacks")


def _precond(result, args, kwargs) -> None:
    if result[1]:
        add_counter("bench.reliability.precond.reused")


def _grid_2d(result, args, kwargs) -> None:
    add_counter("bench.pdn.grid.unknowns", result.n_nodes)


_STRIP_SEGMENTS = inspect.signature(
    solve_rail_strip).parameters["n_segments"].default


def _strip(result, args, kwargs) -> None:
    segments = (args[4] if len(args) > 4
                else kwargs.get("n_segments", _STRIP_SEGMENTS))
    add_counter("bench.pdn.grid.unknowns", segments - 1)


def _transim(result, args, kwargs) -> None:
    add_counter("bench.pdn.transim.steps", result.n_steps)


def _sta(result, args, kwargs) -> None:
    add_counter("bench.netlist.sta.gates", len(args[0].instances))


def _try_change(result, args, kwargs) -> None:
    if result:
        add_counter("bench.optim.incremental.accepted")


# -- trace-id recovery for daemon threads without a job context ------


def _wal_submit_trace(args, kwargs) -> str | None:
    job_id, spec = args[1], args[2]
    if spec.trace_id is not None:
        _JOB_TRACES[job_id] = spec.trace_id
    return spec.trace_id


def _wal_state_trace(args, kwargs) -> str | None:
    return _JOB_TRACES.get(args[1])


def _event_trace(args, kwargs) -> str | None:
    return args[1].get("trace_id")


PATCHES: tuple[Patch, ...] = (
    # engine
    Patch("repro.engine.scheduler:run_experiments",
          "engine.scheduler.self_s"),
    Patch("repro.engine.scheduler:ExecutionEngine.run",
          "engine.scheduler.self_s", after=_records),
    Patch("repro.engine.cache:runner_fingerprint",
          "engine.cache.fingerprint_s", count="engine.cache.fingerprints"),
    Patch("repro.engine.cache:ResultCache.get", "engine.cache.read_s",
          count="engine.cache.reads", after=_cache_read),
    Patch("repro.engine.cache:ResultCache.put", "engine.cache.write_s",
          count="engine.cache.writes", after=_cache_write),
    Patch("repro.engine.records:RunJournal.append",
          "engine.records.append_s", count="engine.records.appends"),
    Patch("repro.engine.records:RunJournal.append_many",
          "engine.records.append_s", count="engine.records.appends"),
    # service
    Patch("repro.service.client:ServiceClient.submit",
          "service.daemon.request_s", count="service.daemon.requests"),
    Patch("repro.service.client:ServiceClient.events",
          "service.daemon.request_s", count="service.daemon.requests",
          generator=True),
    Patch("repro.service.client:ServiceClient.result",
          "service.daemon.request_s", count="service.daemon.requests"),
    Patch("repro.service.wal:JobWAL.log_submit", "service.wal.append_s",
          count="service.wal.appends", trace_of=_wal_submit_trace),
    Patch("repro.service.wal:JobWAL.log_state", "service.wal.append_s",
          count="service.wal.appends", trace_of=_wal_state_trace),
    Patch("repro.service.jobs:JobEventLog.append",
          "service.jobs.event_append_s", count="service.jobs.events",
          trace_of=_event_trace),
    Patch("repro.service.store:StoreManager.prune",
          "service.store.prune_s", count="service.store.prunes"),
    Patch("repro.service.queue:AdmissionQueue.submit",
          refusals=(QueueFullError,),
          refusal_count="service.queue.rejected"),
    # reliability
    Patch("repro.reliability.guard:guarded_linear_solve",
          "reliability.guard.linear_s",
          count="reliability.guard.linear_solves", after=_linear),
    Patch("repro.reliability.guard:guarded_solve",
          "reliability.guard.root_s",
          count="reliability.guard.root_solves", after=_root),
    Patch("repro.reliability.precond:build_multilevel",
          "reliability.precond.setup_s",
          count="reliability.precond.setups"),
    Patch("repro.reliability.precond:PreconditionerCache.get_or_build",
          count="reliability.precond.lookups", after=_precond),
    # pdn
    Patch("repro.pdn.grid:solve_power_grid_2d", "pdn.grid.solve_s",
          count="pdn.grid.solves", after=_grid_2d),
    Patch("repro.pdn.grid:solve_rail_strip", "pdn.grid.solve_s",
          count="pdn.grid.solves", after=_strip),
    Patch("repro.pdn.transim:simulate", "pdn.transim.simulate_s",
          after=_transim),
    # netlist / optim
    Patch("repro.netlist.sta:compute_sta", "netlist.sta.compute_s",
          count="netlist.sta.calls", after=_sta),
    Patch("repro.optim.incremental:IncrementalTimer.try_change",
          "optim.incremental.busy_s",
          count="optim.incremental.try_changes", after=_try_change,
          aggregate=True),
    Patch("repro.optim.incremental:IncrementalTimer.full_refresh",
          "optim.incremental.busy_s", aggregate=True),
    Patch("repro.optim.cvs:assign_cvs", "optim.flows.self_s"),
    Patch("repro.optim.dual_vth:assign_dual_vth", "optim.flows.self_s"),
    Patch("repro.optim.sizing:downsize_netlist", "optim.flows.self_s"),
    Patch("repro.optim.upsize:fix_timing", "optim.flows.self_s"),
    # thermal / cosim / devices
    Patch("repro.thermal.dtm:simulate_dtm", "thermal.dtm_s",
          count="thermal.dtm_runs"),
    Patch("repro.thermal.electrothermal:solve_operating_point",
          "thermal.operating_point_s"),
    Patch("repro.thermal.rc_network:ThermalNetwork.step",
          count="thermal.steps"),
    Patch("repro.cosim.loop:ElectrothermalSimulator.run",
          "cosim.loop.run_s", count="cosim.loop.runs"),
    Patch("repro.devices.solver:solve_vth_for_ion",
          "devices.solver.busy_s", count="devices.solver.calls"),
    Patch("repro.devices.solver:fit_mobility_for_vth",
          "devices.solver.busy_s", count="devices.solver.calls"),
)

#: Every span metric the patches can emit.
SPAN_METRICS = tuple(dict.fromkeys(
    patch.metric for patch in PATCHES if patch.metric is not None))

#: Per-layer metrics read straight off a ``bench.`` counter, with units.
COUNTED = {
    "engine.scheduler.queue_wait_s": "s",
    "engine.scheduler.tasks": "count",
    "engine.scheduler.retries": "count",
    "engine.cache.fingerprints": "count",
    "engine.cache.reads": "count",
    "engine.cache.writes": "count",
    "engine.cache.bytes_written": "bytes",
    "engine.records.appends": "count",
    "service.queue.rejected": "count",
    "service.wal.appends": "count",
    "service.jobs.events": "count",
    "service.store.prunes": "count",
    "reliability.guard.linear_solves": "count",
    "reliability.guard.cg_iterations": "count",
    "reliability.guard.fallbacks": "count",
    "reliability.guard.root_solves": "count",
    "reliability.precond.setups": "count",
    "pdn.grid.solves": "count",
    "pdn.grid.unknowns": "count",
    "pdn.transim.steps": "count",
    "netlist.sta.calls": "count",
    "netlist.sta.gates": "count",
    "optim.incremental.try_changes": "count",
    "thermal.dtm_runs": "count",
    "thermal.steps": "count",
    "cosim.loop.runs": "count",
    "devices.solver.calls": "count",
}

#: Per-layer ratios of useful outcomes to attempts: (numerator,
#: denominator) counters; 0 when nothing was attempted.
RATIOS = {
    "engine.cache.hit_ratio": ("engine.cache.hits", "engine.cache.reads"),
    "reliability.precond.reuse_ratio": ("reliability.precond.reused",
                                        "reliability.precond.lookups"),
    "optim.incremental.accept_ratio": ("optim.incremental.accepted",
                                       "optim.incremental.try_changes"),
}


def _span_attributes(patch: Patch, args, kwargs) -> dict[str, Any]:
    if patch.trace_of is None or "trace_id" in context_fields():
        return {}
    trace_id = patch.trace_of(args, kwargs)
    return {} if trace_id is None else {"trace_id": trace_id}


def _wrap(patch: Patch, original: Callable) -> Callable:
    name = SPAN_PREFIX + patch.metric if patch.metric else None
    counter = SPAN_PREFIX + patch.count if patch.count else None

    if patch.generator:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if counter:
                add_counter(counter)
            with span(name, **_span_attributes(patch, args, kwargs)):
                yield from original(*args, **kwargs)
        return wrapper

    if name is None:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if counter:
                add_counter(counter)
            try:
                result = original(*args, **kwargs)
            except patch.refusals:
                add_counter(SPAN_PREFIX + patch.refusal_count)
                raise
            if patch.after is not None:
                patch.after(result, args, kwargs)
            return result
        return wrapper

    if patch.aggregate:
        nested = NESTED_PREFIX + patch.metric

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if counter:
                add_counter(counter)
            start = time.monotonic()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.monotonic() - start
                stack = _open_spans()
                attributes = (getattr(stack[-1], "attributes", None)
                              if stack else None)
                if attributes is not None:
                    attributes[nested] = attributes.get(nested, 0.0) \
                        + elapsed
                else:
                    record_span(name, start, elapsed)
            if patch.after is not None:
                patch.after(result, args, kwargs)
            return result
        return wrapper

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if counter:
            add_counter(counter)
        with span(name, **_span_attributes(patch, args, kwargs)) as live:
            stack = _open_spans()
            stack.append(live)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
        if patch.after is not None:
            patch.after(result, args, kwargs)
        return result
    return wrapper


def _resolve(target: str) -> tuple[Any, str, Any]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr, owner.__dict__[attr]


def install() -> Callable[[], None]:
    """Apply every patch; returns the callable that undoes them."""
    undo: list[tuple[Any, str, Any]] = []
    replacements: dict[int, tuple[Any, Callable]] = {}
    for patch in PATCHES:
        owner, attr, original = _resolve(patch.target)
        wrapper = _wrap(patch, original)
        undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if not inspect.isclass(owner):
            replacements[id(original)] = (original, wrapper)
    # Rebind module-level functions where other modules imported them.
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((module, attr, value))
                setattr(module, attr, hit[1])

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        _JOB_TRACES.clear()

    return uninstall
