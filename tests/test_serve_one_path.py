"""One request path, one scoreboard.

Every public way of serving a single request — ``serve``, the private
``_serve_one`` the scheduler and cluster call, and ``serve_batch`` with a
group of one — runs the same request path, so each must produce the same
response, the same counters and the same spans.  The Prometheus
exposition of the three scoreboards is pinned against a golden list of
metric names and help text, since every counter is now declared once.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import LiteForm, generate_training_data
from repro.matrices import SuiteSparseLikeCollection, power_law_graph
from repro.obs import MetricsRegistry, counter_values, tracing
from repro.serve import (
    ClusterFrontend,
    OpRequest,
    PlanCache,
    Scheduler,
    SchedulerMetrics,
    ServerMetrics,
    SpMMServer,
    WorkloadSpec,
    generate_workload,
)
from repro.serve.cluster import ClusterMetrics

#: Response fields that carry host wall-clock time (or an identity minted
#: per call) and so differ between two otherwise identical serves.
_WALL_FIELDS = {"C", "measurement", "plan", "compose_overhead_s", "latency_ms", "trace_id"}

#: Scoreboard counters in wall-clock seconds.
_WALL_COUNTERS = {"compose_spent_s", "compose_saved_s", "revalue_s"}

ENTRY_POINTS = {
    "serve": lambda server, r: server.serve(r),
    "_serve_one": lambda server, r: server._serve_one(r),
    "serve_batch": lambda server, r: server.serve_batch([r])[0],
}


@pytest.fixture(scope="module")
def liteform():
    coll = SuiteSparseLikeCollection(size=6, max_rows=2000, seed=3)
    return LiteForm().fit(generate_training_data(coll, J_values=(32,)))


def _request(op: str) -> OpRequest:
    A = power_law_graph(300, 6, seed=5)
    rng = np.random.default_rng(5)
    if op == "sddmm":
        U = rng.standard_normal((A.shape[0], 16)).astype(np.float32)
        V = rng.standard_normal((A.shape[1], 16)).astype(np.float32)
        return OpRequest(matrix=A, B=None, J=16, op="sddmm", operands=(U, V))
    if op == "spmv":
        x = rng.standard_normal((A.shape[1], 1)).astype(np.float32)
        return OpRequest(matrix=A, B=x, J=1, op="spmv")
    B = rng.standard_normal((A.shape[1], 32)).astype(np.float32)
    return OpRequest(matrix=A, B=None if op == "measure" else B, J=32)


def _run(liteform, entry: str, op: str):
    """Serve one request twice (miss, then hit) through ``entry``."""
    server = SpMMServer(liteform=liteform, cache=PlanCache(max_bytes=1 << 30))
    with tracing() as tracer:
        responses = [ENTRY_POINTS[entry](server, _request(op)) for _ in range(2)]
    counters = {
        k: v for k, v in counter_values(server.metrics).items() if k not in _WALL_COUNTERS
    }
    return responses, counters, [s.name for s in tracer.spans], server


@pytest.mark.parametrize("op", ["spmm", "measure", "spmv", "sddmm"])
def test_single_request_entry_points_agree(liteform, op):
    runs = {entry: _run(liteform, entry, op) for entry in ENTRY_POINTS}
    ref_responses, ref_counters, ref_spans, _ = runs["serve"]
    assert [r.cache_hit for r in ref_responses] == [False, True]
    assert ref_spans.count("request") == 2 and "batch" not in ref_spans
    for entry, (responses, counters, spans, server) in runs.items():
        for got, want in zip(responses, ref_responses):
            for f in dataclasses.fields(got):
                if f.name not in _WALL_FIELDS:
                    assert getattr(got, f.name) == getattr(want, f.name), (entry, f.name)
            assert got.batch_size == 1 and got.trace_id is not None
            assert got.measurement.time_s == want.measurement.time_s, entry
            assert type(got.plan.fmt) is type(want.plan.fmt), entry
            if sp.issparse(want.C):
                assert (got.C != want.C).nnz == 0, entry
            elif want.C is not None:
                np.testing.assert_array_equal(got.C, want.C)
            else:
                assert got.C is None
        assert counters == ref_counters, entry
        assert spans == ref_spans, entry
        assert server.metrics.requests == 2


#: Metric families of a seeded replay through all three scoreboards:
#: ``(name, type, help)``, in exposition (sorted-name) order.
GOLDEN_EXPOSITION = [
    ("cluster_availability", "gauge", "Fraction of completed requests served"),
    ("cluster_completed_total", "counter", "Requests with a final cluster-level response"),
    ("cluster_failed_total", "counter", "Requests failed on every shard tried"),
    ("cluster_graph_stages_total", "counter", "Device op stages executed inside graph requests"),
    ("cluster_graphs_total", "counter", "Graph (DAG) requests served end to end"),
    ("cluster_hot_keys_total", "counter",
     "Distinct fingerprints that crossed the hot threshold"),
    ("cluster_plans_migrated_total", "counter", "Cached plans moved by membership changes"),
    ("cluster_plans_replicated_total", "counter", "Cached plans copied to replica shards"),
    ("cluster_remigration_fraction", "gauge",
     "Cached-key remigration fraction of the last membership change"),
    ("cluster_replica_routes_total", "counter", "Routes resolved among hot-key replicas"),
    ("cluster_rerouted_total", "counter", "Requests re-routed after a shard-level failure"),
    ("cluster_routed_total", "counter", "Routing decisions made"),
    ("cluster_routing_skew", "gauge", "Max over mean per-shard routed share (1.0 = balanced)"),
    ("cluster_shards_added_total", "counter", "Shards added"),
    ("cluster_shards_killed_total", "counter", "Shards killed by chaos"),
    ("cluster_shards_live", "gauge", "Live shards on the ring"),
    ("cluster_shards_removed_total", "counter", "Shards removed gracefully"),
    ("cluster_stage_ms", "histogram", "Per-stage request latency"),
    ("cluster_stage_total_ms", "histogram", "End-to-end request latency"),
    ("cluster_throughput_rps", "gauge",
     "Served requests per simulated second of fleet busy time"),
    ("sched_batch_size", "histogram", "Requests per micro-batch"),
    ("sched_batches_total", "counter", "Micro-batches launched"),
    ("sched_coalesce_rate", "gauge", "Fraction of dispatched requests that shared a launch"),
    ("sched_coalesced_total", "counter", "Requests sharing a launch with at least one other"),
    ("sched_dispatched_total", "counter", "Requests dispatched through batches"),
    ("sched_makespan_ms", "gauge", "Virtual completion time of the last dispatched batch"),
    ("sched_queue_wait_ms", "histogram", "Virtual queueing delay before dispatch (ms)"),
    ("sched_shed_total", "counter", "Arrivals shed by backpressure"),
    ("sched_submitted_total", "counter", "Requests submitted to the scheduler"),
    ("serve_bandit_explorations_total", "counter",
     "Pre-handoff random-arm explorations by the format bandit"),
    ("serve_bandit_flips_total", "counter",
     "Plan-cache entries re-pinned on a bandit format flip"),
    ("serve_bandit_observations_total", "counter",
     "Successful requests fed to the format bandit as reward"),
    ("serve_bandit_overrides_total", "counter",
     "Requests whose format the bandit chose over the static selector"),
    ("serve_bandit_retrains_total", "counter",
     "Static-selector refits on serving-derived samples"),
    ("serve_breaker_open_total", "counter", "Circuit-breaker trips across the device pool"),
    ("serve_cache_hit_rate", "gauge", "Plan-cache hit rate"),
    ("serve_cache_hits_total", "counter", "Plan-cache hits"),
    ("serve_cache_misses_total", "counter", "Plan-cache misses"),
    ("serve_compose_saved_seconds", "counter", "Composition seconds saved by cache hits"),
    ("serve_compose_spent_seconds", "counter", "Wall-clock seconds spent composing"),
    ("serve_deadline_misses_total", "counter", "Requests missing their deadline"),
    ("serve_degraded_total", "counter", "Requests degraded to the CSR fallback"),
    ("serve_device_lost_total", "counter", "Device-lost errors observed across the pool"),
    ("serve_exec_latency_ms", "histogram", "Simulated kernel time per request (ms)"),
    ("serve_failed_latency_ms", "histogram",
     "End-to-end latency of failed requests: overhead + retry backoff (ms)"),
    ("serve_failed_total", "counter",
     "Requests failing after exhausting retries and degradation"),
    ("serve_graph_plan_reuses_total", "counter",
     "Misses served by rebuilding a recorded composed geometry"),
    ("serve_graph_requests_total", "counter", "Graph (DAG) requests served"),
    ("serve_graph_revalue_seconds", "counter",
     "Wall-clock seconds spent rebuilding recorded geometries"),
    ("serve_graph_stages_total", "counter", "Device op stages executed inside graph requests"),
    ("serve_oom_degraded_total", "counter", "Plans rebuilt as CSR after a structural OOM"),
    ("serve_recovered_total", "counter",
     "Requests served despite at least one failed attempt"),
    ("serve_request_latency_ms", "histogram",
     "End-to-end latency per request: compose overhead + execution (ms)"),
    ("serve_requests_total", "counter", "Requests served"),
    ("serve_retries_total", "counter", "Execution attempts beyond each request's first"),
    ("serve_speculative_errors_total", "counter", "Background composes that raised"),
    ("serve_speculative_misses_total", "counter",
     "Misses served the immediate CSR plan during a speculative recompose window"),
    ("serve_speculative_skipped_total", "counter",
     "Background composes discarded because their key is OOM-pinned"),
    ("serve_speculative_swaps_total", "counter",
     "Background composes swapped into the plan cache"),
    ("serve_stage_ms", "histogram", "Per-stage request latency"),
    ("serve_stage_total_ms", "histogram", "End-to-end request latency"),
]


def test_seeded_replay_exposition_matches_golden(liteform):
    registry = MetricsRegistry()
    spec = WorkloadSpec(
        num_requests=24, num_matrices=3, max_rows=2000, with_operands=False, seed=5
    )
    server = SpMMServer(liteform=liteform, metrics=ServerMetrics(registry=registry))
    Scheduler(
        server=server, max_batch=4, metrics=SchedulerMetrics(registry=registry)
    ).replay(generate_workload(spec))
    ClusterFrontend(
        liteform, num_shards=2, metrics=ClusterMetrics(registry=registry)
    ).replay(generate_workload(spec))
    text = registry.render_prometheus()
    helps = re.findall(r"^# HELP (\S+) (.*)$", text, re.M)
    types = dict(re.findall(r"^# TYPE (\S+) (\S+)$", text, re.M))
    assert [(name, types[name], h) for name, h in helps] == GOLDEN_EXPOSITION
    assert set(types) == {name for name, _, _ in GOLDEN_EXPOSITION}
    assert "serve_requests_total 24" in text.splitlines()
