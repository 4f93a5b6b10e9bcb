"""Run one workload in this process and print its result.

Started by ``run.py`` (which pins the BLAS/OpenMP threads to 1 before
NumPy loads); not meant to be run by hand.  The last line of standard
output is the result object; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy

import layers
from ledger import Ledger
from workloads import WORKLOADS, ClusterBatched, train_liteform

#: Set-ups timed per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Untraced/traced chunk pairs of a traced run.
TRACE_PAIRS = 8
#: A run that has not reached its minimum unit count by now gives up.
HARD_LIMIT_S = 140.0
#: Share of the traced wall the layer buckets may leave unaccounted.
WALL_TOLERANCE = 0.02


#: Input of the calibration slice (fixed, so every run times the same work).
_CAL_KEYS = (np.arange(20_000, dtype=np.int64) * 7919) % 100_003
#: Calibration slice time of the reference machine (2-core x86-64 Linux box,
#: Python 3.11, NumPy 2.4); wall metrics are scaled to it.
CAL_REF_MS = 5.0
#: Seconds of the closed loop between two calibration slices.
CAL_EVERY_S = 0.1
#: Slices nearest a unit whose median scales its wall (about 0.4 s).
CAL_WINDOW = 4


def calibration_slice() -> float:
    """Milliseconds of a fixed Python loop plus a NumPy sort.

    Interleaved with the workload, its run median tracks how fast this
    machine is right now: per 3 s window its time correlates at 0.98 with
    the zipf-hot request wall on a shared 2-core box, and scaling by it cut
    the window-to-window spread of that wall from 12% to under 4%."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += i * i
    np.unique(_CAL_KEYS)
    return (time.perf_counter() - t0) * 1e3


def git_rev(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def make_session(name: str, seed: int, out_dir: Path):
    liteform = train_liteform()
    cls = WORKLOADS[name]
    if cls is ClusterBatched:
        return cls(seed, liteform, spill_dir=out_dir / f"spill-{os.getpid()}")
    return cls(seed, liteform)


def counters(session) -> dict:
    """The program's own counters, summed over the session's servers."""
    servers = session.servers()
    scheds = session.schedulers() if hasattr(session, "schedulers") else []
    return {
        "requests": sum(s.metrics.requests for s in servers),
        "cache_hits": sum(s.metrics.cache_hits for s in servers),
        "cache_misses": sum(s.metrics.cache_misses for s in servers),
        "evictions": sum(s.cache.evictions for s in servers),
        "batches": sum(s.metrics.batches for s in scheds),
    }


def serve_unit(session, i: int, ledger: Ledger | None = None):
    unit = session.prepare(i)
    t0 = time.perf_counter()
    if ledger is None:
        result = session.serve(unit)
    else:
        with ledger.request(i):
            result = session.serve(unit)
    wall = time.perf_counter() - t0
    outs = session.outcomes(unit, result)
    expected = len(unit) if isinstance(unit, list) else 1
    if len(outs) != expected:
        raise RuntimeError(f"unit {i}: {len(outs)} responses for {expected} requests")
    return wall, outs


def warm_up(session) -> tuple[float, list]:
    """Serve the untimed warm-up units; returns (seconds, outcomes)."""
    t0 = time.perf_counter()
    outcomes = []
    for i in range(session.warmup_units):
        outcomes.extend(serve_unit(session, i)[1])
    return time.perf_counter() - t0, outcomes


def run_timed(session, seconds: float, cals: list[tuple[float, float]]) -> dict:
    """Closed loop for ``seconds`` (and at least ``min_units`` units).

    A calibration slice runs every :data:`CAL_EVERY_S` of loop time and is
    appended to ``cals`` as ``(start time, ms)``.  Each unit's wall is then
    scaled to the reference machine by the median of the
    :data:`CAL_WINDOW` slices nearest in time, half before and half after,
    which follows the machine through its fast and slow phases; the
    unscaled figures come back under ``raw``."""
    start = last_cal = time.perf_counter()
    units, outcomes = [], []
    modeled_ms, modeled_requests = 0.0, 0
    first = i = session.warmup_units
    while i - first < session.min_units or time.perf_counter() - start < seconds:
        now = time.perf_counter()
        if now - start > HARD_LIMIT_S:
            raise RuntimeError(f"only {i} of {session.min_units} units in {HARD_LIMIT_S:g} s")
        if now - last_cal >= CAL_EVERY_S:
            cals.append((now, calibration_slice()))
            last_cal = now
        wall, outs = serve_unit(session, i)
        units.append((now, wall, len(outs)))
        outcomes.extend(outs)
        if i - first < session.min_units:
            modeled_ms += sum(o.modeled_ms for o in outs)
            modeled_requests += len(outs)
        i += 1

    cal_times = np.array([t for t, _ in cals])
    cal_ms = np.array([ms for _, ms in cals])
    half = CAL_WINDOW // 2

    def scale(t: float) -> float:
        k = int(np.searchsorted(cal_times, t))
        return CAL_REF_MS / float(np.median(cal_ms[max(0, k - half): k + half]))

    # min_units guarantees at least 200 requests: p95 has 10 samples beyond it.
    n = len(outcomes)

    def wall_metrics(factors) -> dict:
        lat_ms = [w * f * 1e3 for (_, w, k), f in zip(units, factors) for _ in range(k)]
        return {
            "throughput_rps": (n / sum(w * f for (_, w, _), f in zip(units, factors)), "req/s"),
            "latency_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
            "latency_p95_ms": (float(np.percentile(lat_ms, 95)), "ms"),
        }

    metrics = wall_metrics([scale(t) for t, _, _ in units])
    metrics["modeled_device_ms_per_req"] = (modeled_ms / modeled_requests, "ms")
    return {
        "outcomes": outcomes,
        "samples": n,
        "metrics": metrics,
        "raw": {k: v for k, (v, _) in wall_metrics([1.0] * len(units)).items()},
        "modeled_requests": modeled_requests,
    }


def run_traced(session, out_dir: Path, tag: str) -> dict:
    """Untraced and traced chunks in alternating pairs; layer ledger of the traced."""
    ledger = Ledger()
    chunk = session.trace_chunk
    ratios, outcomes, problems = [], [], []
    delta = dict.fromkeys(counters(session), 0)
    walls_ms, traced_requests = 0.0, 0
    i = session.warmup_units
    for pair in range(TRACE_PAIRS):
        per_req = {}
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            before = counters(session)
            wall_s, reqs = 0.0, 0
            with layers.instrument(ledger) if traced else nullcontext():
                for _ in range(chunk):
                    wall, outs = serve_unit(session, i, ledger if traced else None)
                    wall_s += wall
                    reqs += len(outs)
                    outcomes.extend(outs)
                    i += 1
            per_req[traced] = wall_s / reqs
            if traced:
                walls_ms += wall_s * 1e3
                traced_requests += reqs
                after = counters(session)
                for k in delta:
                    delta[k] += after[k] - before[k]
        ratios.append(per_req[True] / per_req[False])
    extra = {"evictions": delta["evictions"]}
    if hasattr(session, "frontend"):
        fe = session.frontend
        extra.update(routing_skew=fe.routing_skew, replicated_keys=fe.metrics.hot_keys,
                     makespan_ms=fe.makespan_ms)
    metrics = layers.layer_metrics(ledger, traced_requests, walls_ms, extra)
    metrics["obs.trace_overhead"] = (statistics.median(ratios), "ratio")
    c = ledger.counts
    lookups = metrics["serve.plan_cache.lookups"][0]
    checks = {
        "plan-cache hits + misses = lookups":
            (c["serve.plan_cache.hits"] + c["serve.plan_cache.misses"], lookups),
        "lookups = requests reaching a server (a fused batch is one)":
            (lookups, delta["requests"] - c["serve.server.fused_extra"]),
        "ledger hits = ServerMetrics.cache_hits": (c["serve.plan_cache.hits"], delta["cache_hits"]),
        "ledger misses = ServerMetrics.cache_misses":
            (c["serve.plan_cache.misses"], delta["cache_misses"]),
        "ledger server requests = ServerMetrics.requests":
            (c["serve.server.requests"], delta["requests"]),
        "ledger batches = SchedulerMetrics.batches":
            (c["serve.scheduler.batches"], delta["batches"]),
    }
    for label, (got, want) in checks.items():
        if got != want:
            problems.append(f"reconciliation: {label}: {got} != {want}")
    unaccounted = metrics["ledger.unaccounted_ms_per_req"][0] * traced_requests
    if abs(unaccounted) > WALL_TOLERANCE * walls_ms:
        problems.append(
            f"reconciliation: layer self times leave {unaccounted:.3f} ms of "
            f"{walls_ms:.3f} ms request wall unaccounted")
    ledger.write(out_dir / f"spans-{tag}.tsv")
    return {"outcomes": outcomes, "samples": traced_requests, "metrics": metrics,
            "problems": problems}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    args = p.parse_args(argv)
    import_s = time.time() - args.spawned_at
    args.out_dir.mkdir(parents=True, exist_ok=True)

    # Each set-up is scaled by the slices just before and after it, and the
    # imports by the first slice: the machine's speed drifts within a run.
    cals = [(time.perf_counter(), calibration_slice())]
    setups, scaled, session = [], [], None
    for _ in range(SETUP_REPEATS):
        session = None
        t0 = time.perf_counter()
        session = make_session(args.workload, args.seed, args.out_dir)
        setups.append(time.perf_counter() - t0)
        cals.append((time.perf_counter(), calibration_slice()))
        scaled.append(setups[-1] * 2 * CAL_REF_MS / (cals[-2][1] + cals[-1][1]))
    setup_s = import_s + statistics.median(setups)
    setup_scaled = import_s * CAL_REF_MS / cals[0][1] + statistics.median(scaled)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        warmup_s, warmup_outcomes = warm_up(session)
        cals += [(time.perf_counter(), calibration_slice()) for _ in range(3)]
        if args.trace:
            run = run_traced(session, args.out_dir, tag)
        else:
            run = run_timed(session, args.seconds, cals)
    finally:
        shutil.rmtree(args.out_dir / f"spill-{os.getpid()}", ignore_errors=True)
    outcomes = run["outcomes"]
    attempted = len(outcomes)
    ok = sum(o.status.value == "ok" and o.correct for o in outcomes)
    failed = sum(o.status.value == "failed" or not o.correct for o in outcomes)
    degraded = sum(o.status.value == "degraded" for o in outcomes)
    problems = [o.problem for o in warmup_outcomes + outcomes if o.problem]
    problems += run.get("problems", [])
    by_status = Counter(o.status.value for o in outcomes)
    if by_status["ok"] + by_status["degraded"] + by_status["failed"] != attempted:
        problems.append(f"reconciliation: ok + degraded + failed != {attempted} attempted")
    correct = not problems and all(o.correct for o in warmup_outcomes + outcomes)

    cal_ms = statistics.median(ms for _, ms in cals)
    metrics = dict(run["metrics"])
    raw_wall = dict(run.get("raw", {}))
    if not args.trace:
        metrics["ok_fraction"] = (ok / attempted, "fraction")
        raw_wall["setup_s"] = setup_s
        metrics["setup_s"] = (setup_scaled, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "git_rev": git_rev(Path.cwd()),
        "calibration_ms": cal_ms, "calibration_slices": len(cals),
        "calibration_ref_ms": CAL_REF_MS,
    }
    printed = {
        "samples": run["samples"],
        "failed_fraction": failed / attempted,
        "degraded_fraction": degraded / attempted,
        "setup_runs_s": setups,
        "import_s": import_s,
        "warmup_s": warmup_s,
        "warmup_units": session.warmup_units,
        "raw_wall": raw_wall,
    }
    if not args.trace:
        printed["modeled_requests"] = run["modeled_requests"]

    for problem in problems[:20]:
        print(f"MISMATCH {problem}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>16.6g} {unit:10s} (n={run['samples']})")
    print(f"{'failed_fraction':44s} {printed['failed_fraction']:>16.6g} {'fraction':10s} "
          f"(n={attempted})")
    print(f"{'degraded_fraction':44s} {printed['degraded_fraction']:>16.6g} {'fraction':10s} "
          f"(n={attempted})")
    for name, value in raw_wall.items():
        print(f"{name + ' (unscaled)':44s} {value:>16.6g} {metrics[name][1]:10s} "
              f"(calibration {cal_ms:.3f} ms vs reference {CAL_REF_MS:g} ms)")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (args.out_dir / f"result-{tag}.json").write_text(
        json.dumps({**result, "meta": meta, "printed": printed}, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
