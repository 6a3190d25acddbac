"""Process resource telemetry: RSS, CPU time, GC pressure.

Everything here is stdlib (``resource``, ``gc``, ``time``) so the
telemetry is always available wherever the engine runs.  Two usage
shapes:

* **absolute** (:func:`record_resource_metrics`) -- snapshot the
  process's lifetime peaks/totals into a registry.  This is what a
  forked engine worker records just before shipping its payload home:
  the worker process *is* the task, so its ``ru_maxrss`` and CPU totals
  are the task's cost, and the parent's max-merge of the
  ``resource.rss_peak_kb`` gauge yields the sweep-wide worker peak.
* **delta** (:func:`record_resource_delta`) -- record what a region
  consumed since a :func:`sample_resources` snapshot taken at its
  start.  Used for the per-sweep and per-task accounting in the
  scheduler, whose process outlives many sweeps.

A region that needs its *own* peak RSS resets the high-water mark at
its start (:func:`reset_peak_rss`) and reads it at its end
(:func:`peak_rss_kb`); ``repro bench`` does this per benchmark.

``ru_maxrss`` is kilobytes on Linux and bytes on macOS; the samples
normalise to kilobytes.  Note that a process's peak RSS is monotone,
so a *delta* of peaks is zero unless the region set a new high-water
mark -- which is why the peak is recorded as a max-merged gauge rather
than a differenced histogram.
"""

from __future__ import annotations

import gc
import resource
import sys
import time
from dataclasses import dataclass

from repro.obs.metrics import (
    COUNT_BUCKETS,
    DURATION_BUCKETS,
    MetricsRegistry,
)

_RSS_TO_KB = (1.0 / 1024.0) if sys.platform == "darwin" else 1.0


@dataclass(frozen=True)
class ResourceSample:
    """One snapshot of the process's cumulative resource usage."""

    rss_peak_kb: float
    cpu_user_s: float
    cpu_system_s: float
    gc_collections: int
    monotonic_s: float

    @property
    def cpu_s(self) -> float:
        """User plus system CPU seconds."""
        return self.cpu_user_s + self.cpu_system_s


def sample_resources() -> ResourceSample:
    """Snapshot this process's peak RSS, CPU totals, and GC count."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    collections = sum(stat["collections"] for stat in gc.get_stats())
    return ResourceSample(
        rss_peak_kb=usage.ru_maxrss * _RSS_TO_KB,
        cpu_user_s=usage.ru_utime,
        cpu_system_s=usage.ru_stime,
        gc_collections=collections,
        monotonic_s=time.monotonic(),
    )


def reset_peak_rss() -> None:
    """Reset this process's RSS high-water mark to its current RSS.

    Writes ``5`` to ``/proc/self/clear_refs`` (Linux), which touches
    only this process's accounting.  Where that is unavailable nothing
    happens, and :func:`peak_rss_kb` reports the lifetime peak.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
            refs.write("5")
    except OSError:
        pass


def peak_rss_kb() -> float:
    """This process's peak RSS since the last :func:`reset_peak_rss` [KB].

    ``VmHWM`` from ``/proc/self/status``; the lifetime ``ru_maxrss``
    where that file does not exist.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return sample_resources().rss_peak_kb


def record_resource_metrics(metrics: MetricsRegistry,
                            scope: str = "process") -> ResourceSample:
    """Record this process's lifetime usage (gauges + scoped histograms)."""
    sample = sample_resources()
    metrics.set_gauge("resource.rss_peak_kb", sample.rss_peak_kb)
    metrics.observe("resource.cpu_s", sample.cpu_s,
                    buckets=DURATION_BUCKETS, scope=scope)
    metrics.observe("resource.gc_collections", sample.gc_collections,
                    buckets=COUNT_BUCKETS, scope=scope)
    return sample


def record_resource_delta(metrics: MetricsRegistry,
                          before: ResourceSample,
                          scope: str) -> ResourceSample:
    """Record the usage accrued since ``before`` under ``scope``.

    CPU and GC are differenced; the RSS peak is absolute (see module
    docstring) and lands as the max-merged gauge.
    """
    after = sample_resources()
    metrics.set_gauge("resource.rss_peak_kb", after.rss_peak_kb)
    metrics.observe("resource.cpu_s",
                    max(0.0, after.cpu_s - before.cpu_s),
                    buckets=DURATION_BUCKETS, scope=scope)
    metrics.observe("resource.gc_collections",
                    max(0, after.gc_collections - before.gc_collections),
                    buckets=COUNT_BUCKETS, scope=scope)
    metrics.observe("resource.wall_s",
                    max(0.0, after.monotonic_s - before.monotonic_s),
                    buckets=DURATION_BUCKETS, scope=scope)
    return after


__all__ = [
    "ResourceSample",
    "record_resource_delta",
    "record_resource_metrics",
    "sample_resources",
]
