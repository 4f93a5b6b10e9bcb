"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is the aggregate side of :mod:`repro.obs` (the tracer is
the per-event side).  Three instrument types, all thread-safe:

* :class:`Counter` — monotonically increasing total (optionally backed
  by a callback so existing scoreboards can expose their fields without
  changing their increment sites);
* :class:`Gauge` — a value that goes up and down (or a callback);
* :class:`Histogram` — fixed bucket boundaries with streaming count /
  sum / min / max, giving p50/p95/p99 by linear interpolation inside the
  winning bucket.  Memory is O(#buckets) regardless of traffic, unlike
  an append-only latency list.

Instruments may carry **labels** (``registry.counter("slo_alerts_total",
labels={"severity": "page"})``); each distinct label set is its own time
series, keyed ``name{k="v",...}``.  Histograms additionally accept an
**exemplar** per observation (``h.observe(42.0, exemplar=trace_id)``) —
the last exemplar per bucket is kept, linking tail buckets to concrete
traces the way OpenMetrics exemplars do.

:class:`MetricsRegistry` name-spaces instruments and renders them as a
Prometheus text exposition, format 0.0.4
(:meth:`~MetricsRegistry.render_prometheus`: cumulative ``le`` buckets
ending in ``+Inf``, ``_sum``/``_count`` series, escaped label values) or
a JSON snapshot (:meth:`~MetricsRegistry.snapshot`).
:func:`parse_prometheus` is the matching parser; rendering and parsing
round-trip.  A process-wide default registry is available via
:func:`get_registry`.
"""

from __future__ import annotations

import dataclasses
import math
import re
import threading
from typing import Callable, Iterable

#: Prometheus metric-name grammar.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default histogram boundaries for millisecond latencies (upper bounds;
#: a +Inf bucket is implicit).  Log-spaced from 10 us to 10 s.
DEFAULT_LATENCY_BUCKETS_MS = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10_000.0,
)

#: Percentiles every summary reports (mirrors serve.metrics.PERCENTILES).
SUMMARY_PERCENTILES = (50, 95, 99)


#: Prometheus label-name grammar (no colons, unlike metric names).
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r} (must match {_NAME_RE.pattern})")
    return name


def escape_label_value(value: str) -> str:
    """Escape a label value per the text-format spec (``\\``, ``"``, newline)."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def unescape_label_value(value: str) -> str:
    """Inverse of :func:`escape_label_value`."""
    out: list[str] = []
    it = iter(value)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, "")
        if nxt == "n":
            out.append("\n")
        elif nxt in ('"', "\\"):
            out.append(nxt)
        else:  # unknown escape: keep verbatim
            out.append("\\" + nxt)
    return "".join(out)


def _check_labels(labels: dict | None) -> dict[str, str]:
    if not labels:
        return {}
    out: dict[str, str] = {}
    for key in sorted(labels):
        if not _LABEL_RE.match(key):
            raise ValueError(f"invalid label name {key!r}")
        out[key] = str(labels[key])
    return out


def format_labels(labels: dict[str, str]) -> str:
    """``{k="v",...}`` with escaped values; empty string for no labels."""
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{escape_label_value(v)}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _series_key(name: str, labels: dict[str, str]) -> str:
    return name + format_labels(labels)


class Counter:
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(
        self,
        name: str,
        help: str = "",
        callback: Callable[[], float] | None = None,
        labels: dict | None = None,
    ):
        self.name = _check_name(name)
        self.help = help
        self.labels = _check_labels(labels)
        self._callback = callback
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        if self._callback is not None:
            raise RuntimeError(f"counter {self.name} is callback-backed; inc() is invalid")
        with self._lock:
            self._value += amount

    def bind(self, callback: Callable[[], float]) -> None:
        """Re-point a callback-backed counter at a new source."""
        self._callback = callback

    @property
    def value(self) -> float:
        if self._callback is not None:
            return float(self._callback())
        return self._value


class Gauge:
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help: str = "",
        callback: Callable[[], float] | None = None,
        labels: dict | None = None,
    ):
        self.name = _check_name(name)
        self.help = help
        self.labels = _check_labels(labels)
        self._callback = callback
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        if self._callback is not None:
            raise RuntimeError(f"gauge {self.name} is callback-backed; set() is invalid")
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if self._callback is not None:
            raise RuntimeError(f"gauge {self.name} is callback-backed; inc() is invalid")
        with self._lock:
            self._value += amount

    def bind(self, callback: Callable[[], float]) -> None:
        self._callback = callback

    @property
    def value(self) -> float:
        if self._callback is not None:
            return float(self._callback())
        return self._value


class Histogram:
    """Fixed-bucket histogram with streaming percentile estimates.

    Storage is one integer per bucket plus five scalars — constant in the
    number of observations.  ``percentile`` locates the bucket holding the
    requested rank and interpolates linearly between its bounds, clamped
    to the observed min/max so small series do not report bucket edges
    wildly beyond the data.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] | None = None,
        labels: dict | None = None,
    ):
        self.name = _check_name(name)
        self.help = help
        self.labels = _check_labels(labels)
        if buckets is None:
            buckets = DEFAULT_LATENCY_BUCKETS_MS
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket boundary")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError("bucket boundaries must be finite (+Inf is implicit)")
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf overflow
        self._exemplars: dict[int, tuple[str, float]] = {}
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float, exemplar: str | None = None) -> None:
        """Record ``value``; an optional ``exemplar`` (e.g. a trace id)
        is remembered for the bucket the value lands in (last one wins),
        linking that bucket's tail to a concrete trace."""
        value = float(value)
        idx = self._bucket_index(value)
        with self._lock:
            self._counts[idx] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            if exemplar is not None:
                self._exemplars[idx] = (str(exemplar), value)

    def _bucket_index(self, value: float) -> int:
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # first bound >= value
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Estimated ``p``-th percentile (0-100) via in-bucket interpolation."""
        if self._count == 0:
            return 0.0
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        rank = p / 100.0 * self._count
        cumulative = 0
        for i, c in enumerate(self._counts):
            if c == 0:
                continue
            if cumulative + c >= rank:
                lower = self.bounds[i - 1] if i > 0 else self._min
                upper = self.bounds[i] if i < len(self.bounds) else self._max
                lower = max(lower, self._min)
                upper = min(upper, self._max)
                if upper <= lower:
                    return float(upper)
                frac = (rank - cumulative) / c
                return float(lower + frac * (upper - lower))
            cumulative += c
        return float(self._max)  # pragma: no cover - unreachable

    def summary(self) -> dict:
        """``{"p50", "p95", "p99", "mean", "max"}`` — the serving contract."""
        out = {f"p{p}": self.percentile(p) for p in SUMMARY_PERCENTILES}
        out["mean"] = self.mean
        out["max"] = self.max
        return out

    def bucket_counts(self) -> dict[str, int]:
        """Cumulative counts keyed by upper bound (Prometheus ``le`` style)."""
        out: dict[str, int] = {}
        cumulative = 0
        for bound, c in zip(self.bounds, self._counts):
            cumulative += c
            out[_format_bound(bound)] = cumulative
        out["+Inf"] = self._count
        return out

    def exemplars(self) -> dict[str, dict]:
        """Per-bucket exemplars, keyed like :meth:`bucket_counts`:
        ``{"10": {"trace_id": "req-000042", "value": 7.3}, ...}``."""
        with self._lock:
            items = dict(self._exemplars)
        out: dict[str, dict] = {}
        for idx, (trace_id, value) in sorted(items.items()):
            le = self.bounds[idx] if idx < len(self.bounds) else None
            key = _format_bound(le) if le is not None else "+Inf"
            out[key] = {"trace_id": trace_id, "value": value}
        return out


def _format_bound(bound: float) -> str:
    return f"{bound:g}"


class MetricsRegistry:
    """Named collection of instruments with text / JSON exposition."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, labels=None, **kwargs):
        key = _series_key(_check_name(name), _check_labels(labels))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {key!r} already registered as {existing.kind}, "
                        f"requested {cls.kind}"
                    )
                callback = kwargs.get("callback")
                if callback is not None:
                    existing.bind(callback)
                return existing
            metric = cls(name, help, labels=labels, **kwargs)
            self._metrics[key] = metric
            return metric

    def counter(
        self,
        name: str,
        help: str = "",
        callback: Callable[[], float] | None = None,
        labels: dict | None = None,
    ) -> Counter:
        """Get or create a counter (re-binding the callback if given)."""
        return self._get_or_create(Counter, name, help, labels=labels, callback=callback)

    def gauge(
        self,
        name: str,
        help: str = "",
        callback: Callable[[], float] | None = None,
        labels: dict | None = None,
    ) -> Gauge:
        """Get or create a gauge (re-binding the callback if given)."""
        return self._get_or_create(Gauge, name, help, labels=labels, callback=callback)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] | None = None,
        labels: dict | None = None,
    ) -> Histogram:
        """Get or create a histogram (bucket bounds fixed at creation)."""
        return self._get_or_create(Histogram, name, help, labels=labels, buckets=buckets)

    def get(self, name: str) -> Counter | Gauge | Histogram | None:
        """Look up by series key — bare name, or ``name{k="v"}`` for a
        labeled series."""
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._metrics))

    def reset(self) -> None:
        """Forget every instrument (used between CLI runs and tests)."""
        with self._lock:
            self._metrics.clear()

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-friendly view keyed by series key: scalars for
        counters/gauges, dicts for histograms (count, sum, mean, max,
        percentiles, buckets, exemplars when present)."""
        out: dict[str, object] = {}
        for key in self.names():
            m = self._metrics[key]
            if isinstance(m, Histogram):
                entry = {
                    "count": m.count,
                    "sum": m.sum,
                    **m.summary(),
                    "buckets": m.bucket_counts(),
                }
                exemplars = m.exemplars()
                if exemplars:
                    entry["exemplars"] = exemplars
                out[key] = entry
            else:
                out[key] = m.value
        return out

    def render_prometheus(self, include_exemplars: bool = False) -> str:
        """Prometheus text exposition format (version 0.0.4).

        Conformance notes: histogram ``le`` buckets are cumulative and
        end with ``le="+Inf"``, every histogram emits ``_sum`` and
        ``_count``, and label values are escaped.  ``# HELP``/``# TYPE``
        headers appear once per metric family even when the family has
        many labeled series.  With ``include_exemplars=True``, bucket
        lines gain an OpenMetrics-style ``# {trace_id="..."} value``
        suffix (ignored by :func:`parse_prometheus`).
        """
        lines: list[str] = []
        headered: set[str] = set()
        for key in self.names():
            m = self._metrics[key]
            if m.name not in headered:
                headered.add(m.name)
                if m.help:
                    lines.append(f"# HELP {m.name} {m.help}")
                lines.append(f"# TYPE {m.name} {m.kind}")
            labels = dict(m.labels)
            if isinstance(m, Histogram):
                exemplars = m.exemplars() if include_exemplars else {}
                for le, c in m.bucket_counts().items():
                    line = f"{m.name}_bucket{format_labels({**labels, 'le': le})} {c}"
                    ex = exemplars.get(le)
                    if ex is not None:
                        tid = escape_label_value(ex["trace_id"])
                        line += f' # {{trace_id="{tid}"}} {ex["value"]:g}'
                    lines.append(line)
                lines.append(f"{m.name}_sum{format_labels(labels)} {m.sum:g}")
                lines.append(f"{m.name}_count{format_labels(labels)} {m.count}")
            else:
                lines.append(f"{m.name}{format_labels(labels)} {m.value:g}")
        return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# Text-format parser (the round-trip counterpart of render_prometheus).

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    # Exact label grammar (not greedy `.*`): an exemplar suffix also
    # contains `{...}`, and must not be folded into the label set.
    r'(?:\{(?P<labels>(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*",?)*)\})?'
    r"\s+(?P<value>[^\s#]+)"
    r"(?:\s*#.*)?$"  # OpenMetrics-style exemplar suffix, ignored
)
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _parse_labels(text: str) -> dict[str, str]:
    return {
        key: unescape_label_value(raw)
        for key, raw in _LABEL_PAIR_RE.findall(text)
    }


def parse_prometheus(text: str) -> dict[str, dict]:
    """Parse a 0.0.4 text exposition back into families.

    Returns ``{family: {"type": ..., "help": ..., "samples": [...]}}``
    where each sample is ``(sample_name, labels_dict, value)`` —
    histogram families carry their ``_bucket``/``_sum``/``_count``
    samples.  Exemplar suffixes and unknown comments are ignored, so the
    output of :meth:`MetricsRegistry.render_prometheus` (with or without
    exemplars) round-trips.
    """
    families: dict[str, dict] = {}

    def family_for(sample_name: str) -> dict:
        base = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            trimmed = sample_name.removesuffix(suffix)
            if trimmed != sample_name and families.get(trimmed, {}).get("type") == "histogram":
                base = trimmed
                break
        return families.setdefault(
            base, {"type": None, "help": None, "samples": []}
        )

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                fam = families.setdefault(
                    parts[2], {"type": None, "help": None, "samples": []}
                )
                fam["type"] = parts[3]
            elif len(parts) >= 3 and parts[1] == "HELP":
                fam = families.setdefault(
                    parts[2], {"type": None, "help": None, "samples": []}
                )
                fam["help"] = parts[3] if len(parts) > 3 else ""
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"unparseable exposition line: {line!r}")
        name = match.group("name")
        labels = _parse_labels(match.group("labels") or "")
        value = float(match.group("value"))
        family_for(name)["samples"].append((name, labels, value))
    return families


# ----------------------------------------------------------------------
#: Process-wide default registry (Prometheus-style global).
_global_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _global_registry


# ----------------------------------------------------------------------
# Scoreboard counters: one declaration per counter.

def counter(name: str, help: str, default: float = 0):
    """A scoreboard counter: a plain dataclass field (increments stay
    attribute arithmetic) whose metadata carries its Prometheus name and
    help text.  Pass ``default=0.0`` for a seconds total."""
    return dataclasses.field(default=default, metadata={"prometheus": (name, help)})


def _counter_fields(scoreboard) -> list:
    return [f for f in dataclasses.fields(scoreboard) if "prometheus" in f.metadata]


def publish_counters(scoreboard, registry: MetricsRegistry) -> None:
    """Register each :func:`counter` field as a callback-backed counter."""
    for f in _counter_fields(scoreboard):
        registry.counter(*f.metadata["prometheus"],
                         callback=lambda s=scoreboard, a=f.name: getattr(s, a))


def counter_values(scoreboard) -> dict:
    """``{field: value}`` of the :func:`counter` fields, in declaration order."""
    return {f.name: getattr(scoreboard, f.name) for f in _counter_fields(scoreboard)}
