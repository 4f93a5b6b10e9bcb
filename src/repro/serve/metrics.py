"""Serving counters and latency aggregates.

:class:`ServerMetrics` is the server-side scoreboard: request and
degradation counters, composition time spent vs. saved (the quantity the
plan cache exists to recover — Figures 8-9 measure exactly this overhead
per compose), and latency percentiles over the simulated execution times.
``snapshot()`` returns a flat JSON-friendly dict; ``report()`` renders a
plain-text summary for the CLI.

Memory is bounded under sustained traffic: :class:`LatencySeries` keeps a
fixed-size reservoir sample (Vitter's Algorithm R) instead of an
append-only list, with exact running count/mean/max, and every scoreboard
field is published onto a :class:`repro.obs.MetricsRegistry` (callback
instruments for the counters, fixed-bucket streaming histograms for the
latencies) so ``cli stats`` can render a Prometheus-style exposition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs import (
    AttributionCollector,
    MetricsRegistry,
    counter,
    counter_values,
    publish_counters,
)

#: Percentiles reported by every latency summary.
PERCENTILES = (50, 95, 99)

#: Default reservoir capacity of a :class:`LatencySeries` — exact
#: percentiles up to this many observations, a uniform sample beyond.
DEFAULT_MAX_SAMPLES = 4096


class LatencySeries:
    """Latency aggregate with bounded memory and percentile summaries.

    Up to ``max_samples`` observations are stored verbatim (percentiles
    are exact); past that, reservoir sampling keeps a uniform sample of
    everything seen, so memory stays O(``max_samples``) under sustained
    traffic while ``count``, ``mean``, and ``max`` remain exact.  The
    reservoir's RNG is seeded, keeping replays deterministic.
    """

    def __init__(self, unit: str = "ms", max_samples: int = DEFAULT_MAX_SAMPLES,
                 seed: int = 0):
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.unit = unit
        self.max_samples = int(max_samples)
        self._rng = np.random.default_rng(seed)
        self._values: list[float] = []
        self._count = 0
        self._sum = 0.0
        self._max = 0.0

    def add(self, value: float) -> None:
        value = float(value)
        self._count += 1
        self._sum += value
        if value > self._max:
            self._max = value
        if len(self._values) < self.max_samples:
            self._values.append(value)
        else:
            # Algorithm R: keep each of the _count observations with
            # probability max_samples / _count.
            j = int(self._rng.integers(0, self._count))
            if j < self.max_samples:
                self._values[j] = value

    def __len__(self) -> int:
        """Total observations seen (not the retained sample size)."""
        return self._count

    @property
    def values(self) -> np.ndarray:
        """The retained sample (all values while under ``max_samples``)."""
        return np.asarray(self._values, dtype=np.float64)

    def percentile(self, p: float) -> float:
        if not self._values:
            return 0.0
        return float(np.percentile(self.values, p))

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def summary(self) -> dict:
        """``{"p50": ..., "p95": ..., "p99": ..., "mean": ..., "max": ...}``."""
        out = {f"p{p}": self.percentile(p) for p in PERCENTILES}
        out["mean"] = self.mean
        out["max"] = self.max
        return out


@dataclass
class ServerMetrics:
    """Scoreboard updated by :class:`repro.serve.server.SpMMServer`.

    Every counter field is mirrored onto :attr:`registry` (a per-instance
    :class:`~repro.obs.MetricsRegistry` by default; pass
    ``repro.obs.get_registry()`` to publish onto the process-wide one).
    """

    requests: int = counter("serve_requests_total", "Requests served")
    cache_hits: int = counter("serve_cache_hits_total", "Plan-cache hits")
    cache_misses: int = counter("serve_cache_misses_total", "Plan-cache misses")
    #: Requests served the CSR fallback plan by admission control.
    degraded: int = counter("serve_degraded_total", "Requests degraded to the CSR fallback")
    #: Requests whose composition overhead exceeded their deadline anyway.
    deadline_misses: int = counter("serve_deadline_misses_total", "Requests missing their deadline")
    failed: int = counter("serve_failed_total",
                          "Requests failing after exhausting retries and degradation")
    retries: int = counter("serve_retries_total", "Execution attempts beyond each request's first")
    recovered: int = counter("serve_recovered_total",
                             "Requests served despite at least one failed attempt")
    oom_degraded: int = counter("serve_oom_degraded_total",
                                "Plans rebuilt as CSR after a structural OOM")
    device_lost: int = counter("serve_device_lost_total",
                               "Device-lost errors observed across the pool")
    #: Circuit-breaker trips (closed/half-open -> open) across the pool.
    breaker_open: int = counter("serve_breaker_open_total",
                                "Circuit-breaker trips across the device pool")
    speculative_misses: int = counter(
        "serve_speculative_misses_total",
        "Misses served the immediate CSR plan during a speculative recompose window",
    )
    speculative_swaps: int = counter("serve_speculative_swaps_total",
                                     "Background composes swapped into the plan cache")
    speculative_skipped: int = counter(
        "serve_speculative_skipped_total",
        "Background composes discarded because their key is OOM-pinned",
    )
    #: Logged, never swapped in, and kept apart from the pin skips.
    speculative_errors: int = counter("serve_speculative_errors_total",
                                      "Background composes that raised")
    #: Fed after every successful request (adaptive serving; docs/ADAPTIVE.md).
    bandit_observations: int = counter("serve_bandit_observations_total",
                                       "Successful requests fed to the format bandit as reward")
    #: Post-handoff Thompson decisions.
    bandit_overrides: int = counter(
        "serve_bandit_overrides_total",
        "Requests whose format the bandit chose over the static selector",
    )
    bandit_explorations: int = counter("serve_bandit_explorations_total",
                                       "Pre-handoff random-arm explorations by the format bandit")
    #: The bandit flipped a key to a different format arm than the cached plan's.
    bandit_flips: int = counter("serve_bandit_flips_total",
                                "Plan-cache entries re-pinned on a bandit format flip")
    bandit_retrains: int = counter("serve_bandit_retrains_total",
                                   "Static-selector refits on serving-derived samples")
    graphs: int = counter("serve_graph_requests_total", "Graph (DAG) requests served")
    #: Stages of op spmm, sddmm or spmv.
    graph_stages: int = counter("serve_graph_stages_total",
                                "Device op stages executed inside graph requests")
    #: Cache misses served by re-valuing a full compose's pattern template
    #: for a same-pattern matrix instead of re-running the pipeline.
    plan_reuses: int = counter("serve_graph_plan_reuses_total",
                               "Misses served by rebuilding a recorded composed geometry")
    #: The cheap "re-value" path; compare against :attr:`compose_spent_s`.
    revalue_s: float = counter("serve_graph_revalue_seconds",
                               "Wall-clock seconds spent rebuilding recorded geometries", 0.0)
    #: Spent on cache misses.
    compose_spent_s: float = counter("serve_compose_spent_seconds",
                                     "Wall-clock seconds spent composing", 0.0)
    #: What a compose-per-request server would have spent on the hits
    #: (credited from each cached entry's recorded overhead).
    compose_saved_s: float = counter("serve_compose_saved_seconds",
                                     "Composition seconds saved by cache hits", 0.0)
    #: Simulated kernel execution time per request.
    exec_ms: LatencySeries = field(default_factory=LatencySeries)
    #: End-to-end request latency: composition overhead + simulated execution.
    total_ms: LatencySeries = field(default_factory=LatencySeries)
    #: End-to-end latency of *failed* requests (overhead + retry backoff),
    #: kept out of the success series so they cannot skew p50/p95.
    failed_ms: LatencySeries = field(default_factory=LatencySeries)
    #: Registry this scoreboard publishes onto.
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Per-request stage breakdown (queue_wait / compose / launch /
    #: retry_backoff) for tail-latency attribution; publishes
    #: ``serve_stage_ms{stage="..."}`` histograms onto :attr:`registry`.
    attribution: AttributionCollector | None = None

    def __post_init__(self) -> None:
        if self.attribution is None:
            self.attribution = AttributionCollector(
                self.registry, prefix="serve_stage"
            )
        r = self.registry
        publish_counters(self, r)
        r.gauge("serve_cache_hit_rate", "Plan-cache hit rate",
                callback=lambda self=self: self.hit_rate)
        self._exec_hist = r.histogram(
            "serve_exec_latency_ms", "Simulated kernel time per request (ms)"
        )
        self._total_hist = r.histogram(
            "serve_request_latency_ms",
            "End-to-end latency per request: compose overhead + execution (ms)",
        )
        self._failed_hist = r.histogram(
            "serve_failed_latency_ms",
            "End-to-end latency of failed requests: overhead + retry backoff (ms)",
        )

    def observe_latency(self, exec_ms: float, total_ms: float) -> None:
        """Record one *served* request's latencies (series + histograms).

        Failed requests must go through :meth:`observe_failed_latency`
        instead; mixing them in here would skew the success percentiles.
        """
        self.exec_ms.add(exec_ms)
        self.total_ms.add(total_ms)
        self._exec_hist.observe(exec_ms)
        self._total_hist.observe(total_ms)

    def observe_failed_latency(self, total_ms: float) -> None:
        """Record the latency a failed request paid before giving up."""
        self.failed_ms.add(total_ms)
        self._failed_hist.observe(total_ms)

    @property
    def hit_rate(self) -> float:
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def availability(self) -> float:
        """Fraction of requests served (1.0 with no traffic yet)."""
        if not self.requests:
            return 1.0
        return 1.0 - self.failed / self.requests

    def snapshot(self) -> dict:
        """Flat, JSON-friendly view of the scoreboard."""
        return {
            **counter_values(self),
            "hit_rate": self.hit_rate,
            "availability": self.availability,
            "exec_ms": self.exec_ms.summary(),
            "total_ms": self.total_ms.summary(),
            "failed_ms": self.failed_ms.summary(),
            "attribution": self.attribution.snapshot(),
        }

    def report(self) -> str:
        """Plain-text summary for terminal output."""
        e, t = self.exec_ms.summary(), self.total_ms.summary()
        lines = [
            f"requests            {self.requests}",
            f"cache hits/misses   {self.cache_hits}/{self.cache_misses} "
            f"(hit rate {self.hit_rate:.1%})",
            f"degraded requests   {self.degraded}",
            f"deadline misses     {self.deadline_misses}",
            f"failed requests     {self.failed} "
            f"(availability {self.availability:.2%})",
            f"retries/recovered   {self.retries}/{self.recovered}",
            f"oom degraded        {self.oom_degraded}",
            f"device lost/trips   {self.device_lost}/{self.breaker_open}",
            f"compose spent       {self.compose_spent_s * 1e3:.1f} ms",
            f"compose saved       {self.compose_saved_s * 1e3:.1f} ms",
            "simulated exec ms   "
            f"p50={e['p50']:.3f} p95={e['p95']:.3f} p99={e['p99']:.3f} max={e['max']:.3f}",
            "request latency ms  "
            f"p50={t['p50']:.3f} p95={t['p95']:.3f} p99={t['p99']:.3f} max={t['max']:.3f}",
        ]
        if self.graphs:
            lines.append(
                f"graphs              {self.graphs} "
                f"({self.graph_stages} device stages, "
                f"{self.plan_reuses} plan reuses, "
                f"revalue {self.revalue_s * 1e3:.1f} ms)"
            )
        counts = counter_values(self)
        for family in ("speculative", "bandit"):
            # A counter family reports on one line once any member moved.
            members = {k[len(family) + 1:]: v for k, v in counts.items()
                       if k.startswith(family + "_")}
            if any(members.values()):
                lines.append(f"{family:20s}" + ", ".join(f"{v} {k}" for k, v in members.items()))
        if self.failed:
            f = self.failed_ms.summary()
            lines.append(
                "failed latency ms   "
                f"p50={f['p50']:.3f} p95={f['p95']:.3f} p99={f['p99']:.3f} "
                f"max={f['max']:.3f}"
            )
        return "\n".join(lines)
