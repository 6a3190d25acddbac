"""Distribution-level metrics: gauges, fixed-bucket histograms, exports.

:class:`~repro.obs.counters.Counters` answers "how many"; this module
answers "how are they distributed".  A :class:`MetricsRegistry` bundles

* the flat **counters** map (shared with the owning
  :class:`~repro.obs.trace.Trace` so ``add_counter`` and registry
  increments land in one place);
* **gauges** -- last-written point-in-time values (peak RSS, settled
  junction temperature).  Merging two registries keeps the *maximum*
  per gauge, which is the meaningful fold for the peak-style gauges the
  engine ships across its worker pool;
* **histograms** -- fixed-bucket distributions with optional labels
  (``observe("engine.run_s", dt, family="table")``).  Buckets are
  cumulative-style upper bounds plus an implicit ``+Inf`` overflow
  bucket; exact ``count`` / ``sum`` / ``min`` / ``max`` ride along, and
  p50/p90/p99 are interpolated from the bucket counts.

Fork-mergeability mirrors the trace payload contract: a registry
serialises to plain dicts (:meth:`MetricsRegistry.to_payload`) that
survive a pickle/JSON trip over the worker result pipe, and the parent
folds them in with :meth:`MetricsRegistry.merge_payload`.  Histogram
merges require identical bucket bounds -- both sides must be built
from the same helper (:func:`exponential_buckets` /
:func:`linear_buckets`) -- so merged distributions stay exact.

Two text exports:

* :func:`to_prometheus` -- Prometheus text exposition format
  (``# TYPE`` lines, ``_bucket{le=...}`` / ``_sum`` / ``_count``
  series), consumable by any Prometheus scraper or ``promtool``;
* :func:`registry_summary` -- a JSON-ready dict carrying the *full*
  histogram state (bounds + counts, so a registry can be
  reconstructed) plus the derived summary statistics.

Exported float values are rounded to :data:`EXPORT_DECIMALS` decimal
places (:func:`round_metric`): counter merges are float additions whose
low bits depend on merge order, and rounding at the export boundary is
what keeps snapshots diff-stable across equivalent sweeps.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Any, Iterable, Mapping

from repro.obs.counters import Counters

#: Decimal places kept by every JSON/Prometheus export of a metric
#: value.  Nine decimals preserve nanosecond-scale durations while
#: hiding the sub-femto float-addition noise that merge order injects.
EXPORT_DECIMALS = 9

_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def round_metric(value: float) -> float | int:
    """Round an exported metric value to :data:`EXPORT_DECIMALS` places.

    Integral results come back as ``int`` so JSON snapshots of pure
    event counts stay integer-typed regardless of float promotion
    during merges.
    """
    rounded = round(float(value), EXPORT_DECIMALS)
    if rounded.is_integer():
        return int(rounded)
    return rounded


def exponential_buckets(start: float, factor: float,
                        count: int) -> tuple[float, ...]:
    """``count`` geometric upper bounds: start, start*factor, ...

    The standard bucket ladder for quantities spanning decades
    (durations, residuals, byte sizes).
    """
    if start <= 0:
        raise ValueError(f"start must be > 0, got {start!r}")
    if factor <= 1:
        raise ValueError(f"factor must be > 1, got {factor!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    return tuple(start * factor ** i for i in range(count))


def linear_buckets(start: float, width: float,
                   count: int) -> tuple[float, ...]:
    """``count`` evenly spaced upper bounds starting at ``start``."""
    if width <= 0:
        raise ValueError(f"width must be > 0, got {width!r}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count!r}")
    return tuple(start + width * i for i in range(count))


#: Default ladders for the quantities the instrumentation observes.
DURATION_BUCKETS = exponential_buckets(1e-6, 4.0, 14)     # 1 us .. ~67 s
COUNT_BUCKETS = exponential_buckets(1.0, 2.0, 16)         # 1 .. 32768
RESIDUAL_BUCKETS = exponential_buckets(1e-16, 10.0, 15)   # 1e-16 .. 0.1
SIZE_BUCKETS = exponential_buckets(64.0, 4.0, 12)         # 64 B .. ~268 MB
TEMPERATURE_BUCKETS = linear_buckets(25.0, 25.0, 16)      # 25 .. 400 C


class Histogram:
    """A fixed-bucket distribution (not thread-safe on its own;
    :class:`MetricsRegistry` serialises access through its lock)."""

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: Iterable[float] = DURATION_BUCKETS
                 ) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"bucket bounds must be strictly increasing: {bounds}")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last = overflow (+Inf)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bucket bounds "
                f"({len(self.bounds)} vs {len(other.bounds)} bounds)")
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.sum += other.sum
        if other.min is not None:
            self.min = (other.min if self.min is None
                        else min(self.min, other.min))
        if other.max is not None:
            self.max = (other.max if self.max is None
                        else max(self.max, other.max))

    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile by intra-bucket interpolation.

        Exact ``min``/``max`` clamp the first and overflow buckets, so
        the estimate never leaves the observed range.  ``None`` when
        nothing has been observed.
        """
        if self.count == 0 or self.min is None or self.max is None:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        target = q * self.count
        cumulative = 0
        for i, in_bucket in enumerate(self.counts):
            cumulative += in_bucket
            if cumulative >= target and in_bucket:
                lower = self.min if i == 0 else self.bounds[i - 1]
                upper = (self.max if i == len(self.bounds)
                         else min(self.bounds[i], self.max))
                lower = max(min(lower, upper), self.min)
                fraction = (target - (cumulative - in_bucket)) / in_bucket
                return lower + fraction * (upper - lower)
        return self.max

    def to_payload(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Histogram":
        histogram = cls(payload["bounds"])
        counts = [int(n) for n in payload["counts"]]
        if len(counts) != len(histogram.counts):
            raise ValueError(
                f"histogram payload has {len(counts)} counts for "
                f"{len(histogram.bounds)} bounds")
        histogram.counts = counts
        histogram.count = int(payload["count"])
        histogram.sum = float(payload["sum"])
        histogram.min = (None if payload.get("min") is None
                         else float(payload["min"]))
        histogram.max = (None if payload.get("max") is None
                         else float(payload["max"]))
        return histogram

    def summary(self) -> dict:
        """Derived statistics, rounded for diff-stable export."""
        if self.count == 0:
            return {"count": 0, "sum": 0, "mean": None, "min": None,
                    "max": None, "p50": None, "p90": None, "p99": None}
        return {
            "count": self.count,
            "sum": round_metric(self.sum),
            "mean": round_metric(self.sum / self.count),
            "min": round_metric(self.min),
            "max": round_metric(self.max),
            "p50": round_metric(self.quantile(0.50)),
            "p90": round_metric(self.quantile(0.90)),
            "p99": round_metric(self.quantile(0.99)),
        }


def _label_key(labels: Mapping[str, Any]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Thread-safe, fork-mergeable counters + gauges + histograms."""

    def __init__(self, counters: Counters | None = None) -> None:
        self.counters = counters if counters is not None else Counters()
        self._lock = threading.Lock()
        self._gauges: dict[str, float] = {}
        self._histograms: dict[
            tuple[str, tuple[tuple[str, str], ...]], Histogram] = {}

    # -- recording ----------------------------------------------------

    def inc(self, name: str, value: float = 1) -> None:
        """Increment the registry's counter ``name`` by ``value``."""
        self.counters.add(name, value)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` (last write wins within a process)."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float,
                buckets: Iterable[float] | None = None,
                **labels: Any) -> None:
        """Record ``value`` into the histogram ``name`` (+ ``labels``).

        ``buckets`` only matters on first observation of a series; the
        series keeps its original bounds afterwards.
        """
        key = (name, _label_key(labels))
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = Histogram(
                    buckets if buckets is not None else DURATION_BUCKETS)
                self._histograms[key] = histogram
            histogram.observe(value)

    # -- reading ------------------------------------------------------

    def gauge(self, name: str) -> float | None:
        with self._lock:
            return self._gauges.get(name)

    def gauges(self) -> dict[str, float]:
        """Snapshot of every gauge, sorted by name."""
        with self._lock:
            return {name: self._gauges[name]
                    for name in sorted(self._gauges)}

    def histogram(self, name: str, **labels: Any) -> Histogram | None:
        """The live histogram for a series (None when never observed)."""
        with self._lock:
            return self._histograms.get((name, _label_key(labels)))

    def histograms(self) -> list[tuple[str, dict[str, str], Histogram]]:
        """``(name, labels, histogram)`` triples, sorted by series."""
        with self._lock:
            items = sorted(self._histograms.items())
        return [(name, dict(label_key), histogram)
                for (name, label_key), histogram in items]

    def __len__(self) -> int:
        with self._lock:
            return (len(self._gauges) + len(self._histograms)
                    + len(self.counters))

    # -- cross-process shipping ---------------------------------------

    def to_payload(self) -> dict:
        """Picklable/JSON-able full state (exact, unrounded)."""
        with self._lock:
            gauges = dict(self._gauges)
            histograms = [
                {"name": name, "labels": dict(label_key),
                 **histogram.to_payload()}
                for (name, label_key), histogram
                in sorted(self._histograms.items())]
        return {
            "counters": self.counters.as_dict(),
            "gauges": gauges,
            "histograms": histograms,
        }

    def merge_payload(self, payload: Mapping[str, Any] | None) -> None:
        """Fold another registry's :meth:`to_payload` snapshot in.

        Counters add, gauges keep the maximum, histograms merge
        bucket-wise (identical bounds required).
        """
        if not payload:
            return
        self.counters.merge(payload.get("counters") or {})
        with self._lock:
            for name, value in (payload.get("gauges") or {}).items():
                value = float(value)
                current = self._gauges.get(name)
                if current is None or value > current:
                    self._gauges[name] = value
            for entry in payload.get("histograms") or ():
                key = (str(entry["name"]),
                       _label_key(entry.get("labels") or {}))
                incoming = Histogram.from_payload(entry)
                existing = self._histograms.get(key)
                if existing is None:
                    self._histograms[key] = incoming
                else:
                    existing.merge(incoming)

    def merge(self, other: "MetricsRegistry") -> None:
        self.merge_payload(other.to_payload())


# -- exports ----------------------------------------------------------


def registry_summary(registry: MetricsRegistry) -> dict:
    """JSON-ready digest: rounded values plus full histogram state.

    Each histogram entry carries both the raw ``bounds``/``counts``
    (enough to rebuild the registry via
    :meth:`MetricsRegistry.merge_payload`) and the derived summary
    statistics the ``repro stats`` tables print.
    """
    histograms = []
    for name, labels, histogram in registry.histograms():
        entry = {"name": name, "labels": labels,
                 "bounds": list(histogram.bounds),
                 "counts": list(histogram.counts)}
        entry.update(histogram.summary())
        histograms.append(entry)
    return {
        "counters": {name: round_metric(value) for name, value
                     in registry.counters.as_dict().items()},
        "gauges": {name: round_metric(value) for name, value
                   in registry.gauges().items()},
        "histograms": histograms,
    }


def _prom_name(name: str, prefix: str) -> str:
    return f"{prefix}_{_PROM_NAME_RE.sub('_', name)}"


def _prom_value(value: float) -> str:
    return format(round_metric(value), "g")


def _prom_label_value(value: str) -> str:
    """Escape a label value per the text exposition format: backslash
    first (it is the escape character), then quotes and newlines."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _prom_labels(labels: Mapping[str, str], extra: str = "") -> str:
    parts = [f'{_PROM_NAME_RE.sub("_", k)}="{_prom_label_value(v)}"'
             for k, v in sorted(labels.items())]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def to_prometheus(registry: MetricsRegistry,
                  prefix: str = "repro") -> str:
    """Render the registry in Prometheus text exposition format.

    Counters become ``counter`` series, gauges ``gauge``, histograms
    the standard ``_bucket{le=...}`` / ``_sum`` / ``_count`` triple
    with cumulative bucket counts and a ``+Inf`` bucket.  Values are
    rounded via :func:`round_metric` so output is diff-stable.
    """
    lines: list[str] = []
    for name, value in registry.counters.as_dict().items():
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(value)}")
    for name, value in registry.gauges().items():
        metric = _prom_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(value)}")
    typed: set[str] = set()
    for name, labels, histogram in registry.histograms():
        metric = _prom_name(name, prefix)
        if metric not in typed:
            lines.append(f"# TYPE {metric} histogram")
            typed.add(metric)
        cumulative = 0
        for bound, bucket_count in zip(histogram.bounds,
                                       histogram.counts):
            cumulative += bucket_count
            le = _prom_labels(labels, f'le="{format(bound, "g")}"')
            lines.append(f"{metric}_bucket{le} {cumulative}")
        inf = _prom_labels(labels, 'le="+Inf"')
        lines.append(f"{metric}_bucket{inf} {histogram.count}")
        suffix = _prom_labels(labels)
        lines.append(f"{metric}_sum{suffix} "
                     f"{_prom_value(histogram.sum)}")
        lines.append(f"{metric}_count{suffix} {histogram.count}")
    return "\n".join(lines) + "\n"


def validate_metrics_payload(payload: Any) -> list[str]:
    """Problems with a metrics payload/summary (empty list = valid).

    Accepts the output of either :meth:`MetricsRegistry.to_payload` or
    :func:`registry_summary`; used by ``scripts/check_trace.py`` to
    gate the ``metrics`` key of trace artifacts.
    """
    errors: list[str] = []
    if not isinstance(payload, dict):
        return [f"metrics payload is {type(payload).__name__}, "
                f"expected object"]
    for section in ("counters", "gauges"):
        values = payload.get(section)
        if values is None:
            errors.append(f"missing {section} section")
            continue
        if not isinstance(values, dict):
            errors.append(f"{section} is not an object")
            continue
        for name, value in values.items():
            if not isinstance(value, (int, float)):
                errors.append(f"{section}[{name!r}] is not a number")
    histograms = payload.get("histograms")
    if histograms is None:
        errors.append("missing histograms section")
        return errors
    if not isinstance(histograms, list):
        return errors + ["histograms is not a list"]
    for index, entry in enumerate(histograms):
        if not isinstance(entry, dict):
            errors.append(f"histogram {index} is not an object")
            continue
        label = entry.get("name", f"#{index}")
        bounds = entry.get("bounds")
        counts = entry.get("counts")
        if not isinstance(bounds, list) or not bounds:
            errors.append(f"histogram {label}: missing bounds")
            continue
        if any(not isinstance(b, (int, float)) for b in bounds) \
                or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            errors.append(f"histogram {label}: bounds are not "
                          f"strictly increasing numbers")
        if not isinstance(counts, list) \
                or len(counts) != len(bounds) + 1 \
                or any(not isinstance(n, int) or n < 0 for n in counts):
            errors.append(f"histogram {label}: counts must be "
                          f"{len(bounds) + 1} non-negative integers")
            continue
        count = entry.get("count")
        if count != sum(counts):
            errors.append(f"histogram {label}: count {count!r} != "
                          f"sum of bucket counts {sum(counts)}")
        if count and (entry.get("min") is None
                      or entry.get("max") is None):
            errors.append(f"histogram {label}: non-empty but "
                          f"min/max missing")
    return errors


__all__ = [
    "COUNT_BUCKETS",
    "DURATION_BUCKETS",
    "EXPORT_DECIMALS",
    "Histogram",
    "MetricsRegistry",
    "RESIDUAL_BUCKETS",
    "SIZE_BUCKETS",
    "TEMPERATURE_BUCKETS",
    "exponential_buckets",
    "linear_buckets",
    "registry_summary",
    "round_metric",
    "to_prometheus",
    "validate_metrics_payload",
]
