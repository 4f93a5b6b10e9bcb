"""Which functions mark each layer, and the per-layer metrics of a traced run.

Layer names follow the package layout (``serve.*``, ``core.*``,
``kernels.*``, ``gpu.*``, ``formats.*``).  Every span of a traced request
lands in exactly one *bucket*: spans nested inside ``core.compose`` count
toward compose and spans nested inside ``serve.revalue`` toward revalue;
every other span counts toward its own layer.  The buckets' self times
therefore partition the request wall, which the reconciliation checks.
"""

from __future__ import annotations

import statistics

from ledger import NAME, ROOT, Instrumentation, Ledger

#: Wall buckets, in the order they are reported (``<bucket>.ms_per_req``).
BUCKETS = (
    "serve.cluster.route",
    "serve.scheduler",
    "serve.graph",
    "serve.graph.host",
    "serve.fingerprint",
    "serve.plan_cache",
    "serve.execute",
    "serve.revalue",
    "core.compose",
    "formats.build",
    "kernels.plan",
    "gpu.measure",
    "kernels.execute",
)

#: Compose stages reported per compose call (self time inside compose).
COMPOSE_STAGES = (
    "core.features",
    "core.select",
    "core.partition",
    "core.tune",
    "formats.build",
)

#: Buckets whose metric name does not follow ``<bucket>.ms_per_req``.
_BUCKET_METRIC = {
    "serve.cluster.route": "serve.cluster.route_ms_per_req",
    "serve.graph.host": "serve.graph.host_ms_per_req",
}


def instrument(ledger: Ledger) -> Instrumentation:
    """Wrap every layer's entry points; use the result as a context manager."""
    import repro.core.parallel as parallel
    import repro.core.pipeline as pipeline
    import repro.formats.cell as cell
    import repro.kernels  # noqa: F401  (registers every kernel class)
    import repro.serve.fingerprint as fingerprint
    from repro.core.cost_model import PartitionCostProfile
    from repro.core.partition_model import PartitionPredictor
    from repro.core.selector import FormatSelector
    from repro.formats.base import SparseFormat
    from repro.gpu.device import SimulatedDevice
    from repro.kernels.base import SpMMKernel
    from repro.serve.cluster.frontend import ClusterFrontend
    from repro.serve.graph import GraphEngine
    from repro.serve.plan_cache import PlanCache
    from repro.serve.scheduler import Scheduler
    from repro.serve.server import SpMMServer

    counts = ledger.counts
    samples = ledger.samples

    def served_one(args, kwargs, result):
        counts["serve.server.requests"] += 1

    def served_batch(args, kwargs, result):
        requests = args[1] if len(args) > 1 else kwargs["requests"]
        n = len(requests)
        counts["serve.server.requests"] += n
        counts["serve.scheduler.batches"] += 1
        if n > 1:
            counts["serve.scheduler.coalesced"] += n
            counts["serve.server.fused_extra"] += n - 1
        waits = kwargs.get("queue_waits_ms") or [0.0] * n
        samples["batch_size"].append(n)
        samples["queue_wait_virtual_ms"].extend(waits)

    def looked_up(args, kwargs, entry):
        counts["serve.plan_cache.misses" if entry is None else "serve.plan_cache.hits"] += 1

    def planned(args, kwargs, stats):
        J = args[2] if len(args) > 2 else next(iter(kwargs.values()), 1)
        ledger.note_plan(args[1], J)
        counts["kernels.flops"] += stats.flops
        counts["kernels.bytes"] += stats.total_load_bytes + stats.total_store_bytes

    def graph_served(args, kwargs, response):
        counts["serve.graph.device_stages"] += response.device_stages

    ins = Instrumentation(ledger)
    ins.method(SpMMServer, "_serve_one", "serve.server", served_one)
    ins.method(SpMMServer, "serve_batch", "serve.server", served_batch)
    ins.method(SpMMServer, "_execute", "serve.execute")
    # Revalue has no public entry point; this private method is its boundary.
    ins.method(SpMMServer, "_rebuild_structure", "serve.revalue")
    ins.method(SpMMServer, "serve_graph", "serve.graph", graph_served)
    ins.method(GraphEngine, "_local_stage", "serve.graph.host")
    ins.method(Scheduler, "drain", "serve.scheduler")
    ins.method(ClusterFrontend, "submit", "serve.cluster.route")
    ins.function(fingerprint, "fingerprint_csr", "serve.fingerprint")
    ins.method(PlanCache, "get", "serve.plan_cache", looked_up)
    ins.overrides(SpMMKernel, "plan", "kernels.plan", planned)
    ins.overrides(SpMMKernel, "execute", "kernels.execute")
    ins.overrides(SimulatedDevice, "measure", "gpu.measure")
    ins.method(pipeline.LiteForm, "compose_csr", "core.compose")
    ins.function(pipeline, "format_selection_features", "core.features")
    ins.overrides(FormatSelector, "predict_features", "core.select")
    ins.overrides(PartitionPredictor, "predict", "core.partition")
    ins.function(cell, "split_csr", "core.partition")
    ins.function(parallel, "tune_partition", "core.tune")
    ins.method(PartitionCostProfile, "from_cells", "core.tune")
    ins.method(cell.CELLFormat, "_build_partition_buckets", "formats.build")
    ins.method(parallel.FanoutResult, "to_format", "formats.build")
    ins.overrides(SparseFormat, "from_csr", "formats.build")
    return ins


def layer_metrics(ledger: Ledger, requests: int, walls_ms: float, extra: dict) -> dict:
    """Per-layer metrics of the traced requests, as ``name -> (value, unit)``.

    ``walls_ms`` is the summed wall of the traced requests, timed by the
    client independently of the ledger; ``extra`` carries the values read
    from the program after the run (evictions, cluster gauges).
    """
    spans = ledger.spans
    self_ms = [t * 1e3 for t in ledger.self_times()]
    in_compose = ledger.inside("core.compose")
    in_revalue = ledger.inside("serve.revalue")
    calls: dict[str, int] = {}
    bucket_ms = dict.fromkeys(BUCKETS + (ROOT, "serve.server"), 0.0)
    stage_ms = dict.fromkeys(COMPOSE_STAGES, 0.0)
    total_ms: dict[str, float] = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        total_ms[name] = total_ms.get(name, 0.0) + (s[2] - s[1]) * 1e3
        if in_compose[i]:
            bucket_ms["core.compose"] += self_ms[i]
            if name in stage_ms:
                stage_ms[name] += self_ms[i]
        elif in_revalue[i]:
            bucket_ms["serve.revalue"] += self_ms[i]
        else:
            bucket_ms[name] = bucket_ms.get(name, 0.0) + self_ms[i]
    c = ledger.counts
    n = max(1, requests)
    composes = calls.get("core.compose", 0)
    lookups = calls.get("serve.plan_cache", 0)
    plan_calls = calls.get("kernels.plan", 0)
    measure_calls = calls.get("gpu.measure", 0)
    executes = calls.get("serve.execute", 0)
    revalues = calls.get("serve.revalue", 0)
    sizes = ledger.samples["batch_size"]
    waits = ledger.samples["queue_wait_virtual_ms"]
    batches = c["serve.scheduler.batches"]
    m = {
        "ledger.requests": (requests, "count"),
        "serve.server.self_ms_per_req": (
            (bucket_ms[ROOT] + bucket_ms["serve.server"]) / n, "ms"),
        "serve.fingerprint.calls": (calls.get("serve.fingerprint", 0), "count"),
        "serve.plan_cache.lookups": (lookups, "count"),
        "serve.plan_cache.hits": (c["serve.plan_cache.hits"], "count"),
        "serve.plan_cache.misses": (c["serve.plan_cache.misses"], "count"),
        "serve.plan_cache.hit_ratio": (
            c["serve.plan_cache.hits"] / lookups if lookups else 0.0, "ratio"),
        "serve.plan_cache.evictions": (extra["evictions"], "count"),
        "serve.execute.attempts": (measure_calls, "count"),
        "serve.execute.retries": (measure_calls - executes, "count"),
        "kernels.plan.calls": (plan_calls, "count"),
        "kernels.plan.distinct": (c["kernels.plan.distinct"], "count"),
        "kernels.plan.useful_ratio": (
            c["kernels.plan.distinct"] / plan_calls if plan_calls else 0.0, "ratio"),
        "gpu.measure.calls": (measure_calls, "count"),
        "kernels.flops_per_req": (c["kernels.flops"] / n, "flop"),
        "kernels.bytes_per_req": (c["kernels.bytes"] / n, "B"),
        "core.compose.calls": (composes, "count"),
        "core.compose.ms_per_call": (
            total_ms.get("core.compose", 0.0) / composes if composes else 0.0, "ms"),
        "serve.revalue.calls": (revalues, "count"),
        "serve.revalue.ms_per_call": (
            total_ms.get("serve.revalue", 0.0) / revalues if revalues else 0.0, "ms"),
        "serve.graph.full_composes": (composes if c["serve.graph.device_stages"] else 0,
                                      "count"),
        "serve.graph.device_stages_per_req": (c["serve.graph.device_stages"] / n, "count"),
        "serve.scheduler.batches": (batches, "count"),
        "serve.scheduler.mean_batch_size": (sum(sizes) / batches if batches else 0.0, "req"),
        "serve.scheduler.coalesce_rate": (
            c["serve.scheduler.coalesced"] / sum(sizes) if sizes else 0.0, "ratio"),
        "serve.scheduler.queue_wait_virtual_ms_p50": (
            statistics.median(waits) if waits else 0.0, "virtual_ms"),
        "serve.cluster.routing_skew": (extra.get("routing_skew", 0.0), "ratio"),
        "serve.cluster.replicated_keys": (extra.get("replicated_keys", 0), "count"),
        "serve.cluster.makespan_virtual_ms": (extra.get("makespan_ms", 0.0), "virtual_ms"),
    }
    for stage in COMPOSE_STAGES:
        m[f"{stage}.ms_per_call"] = (stage_ms[stage] / composes if composes else 0.0, "ms")
    for bucket in BUCKETS:
        m[_BUCKET_METRIC.get(bucket, f"{bucket}.ms_per_req")] = (bucket_ms[bucket] / n, "ms")
    m["ledger.unaccounted_ms_per_req"] = (
        (walls_ms - sum(bucket_ms.values())) / n, "ms")
    return m
