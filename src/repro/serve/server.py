"""`SpMMServer` — the request loop between traffic and the pipeline.

Per request the server (1) canonicalizes and fingerprints the matrix,
(2) consults the plan cache keyed on ``(fingerprint, J)``, (3) on a miss
runs admission control — if the request carries a deadline and the
*estimated* composition overhead (an EWMA rate per non-zero learned from
this server's own ``OverheadBreakdown`` history) would blow it, the ML
pipeline is skipped and a plain CSR row-split plan is built immediately
(the degraded path) — otherwise composes via ``LiteForm.compose_csr``,
and (4) executes on the least-loaded device of a homogeneous pool (the
same shortest-queue idea :mod:`repro.gpu.multi` uses for shard
placement, applied across requests instead of within one).

The serving surface is async-style: :meth:`SpMMServer.submit` enqueues a
request and returns a ticket, :meth:`SpMMServer.poll` retrieves one
completed response, :meth:`SpMMServer.drain` completes everything
pending.  :meth:`SpMMServer.serve` is the one-request convenience
wrapper over that surface (submit + drain + claim), kept source
compatible with the original blocking API.  The same surface is
implemented by :class:`repro.serve.scheduler.Scheduler`, which adds
open-loop queueing and fingerprint-coalesced micro-batching on top.

:meth:`SpMMServer.serve_batch` serves a group of requests that share one
``(fingerprint, J)`` cache key with a *single* plan lookup/compose and a
single fused launch: the dense operands are stacked column-wise into one
``(K, n*J)`` operand, executed once, and split back per request.  Column
``j`` of the result depends only on column ``j`` of the operand, so the
per-request slices are bit-identical to individually served results.  A
single request is the same path with a group of one: both go through
``SpMMServer._serve_group``, the one place a response is built.

Deadlines bound the *composition overhead* (time until the kernel can be
launched), not the simulated kernel time — execution cost is intrinsic
to the workload, while composition overhead is the part the paper (and
admission control) can do something about.  Queueing delay (reported by
the scheduler as ``queue_wait_ms``) also counts against the deadline: a
request that waited 3 ms of a 5 ms deadline has only 2 ms of composition
budget left.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from collections import OrderedDict, deque
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.sparse as sp

from repro.core.pipeline import ComposePlan, LiteForm, OverheadBreakdown
from repro.formats.base import VALUE_DTYPE, PatternTemplate, as_csr
from repro.formats.cell import CELLFormat
from repro.formats.csr import CSRFormat
from repro.gpu.device import DeviceLostError, SimulatedDevice, SimulatedOOMError
from repro.gpu.stats import Measurement
from repro.kernels.base import SpMMKernel
from repro.kernels.csr_spmm import RowSplitCSRSpMM
from repro.kernels.registry import kernel_for_op
from repro.kernels.sddmm import CSRSDDMM
from repro.obs import TraceContext, get_tracer
from repro.serve.adaptive import FormatBandit, build_arm_plan, plan_arm
from repro.serve.fingerprint import fingerprint_csr, plan_key, plan_op
from repro.serve.metrics import ServerMetrics
from repro.serve.plan_cache import PlanCache
from repro.serve.resilience import CircuitBreaker, RetryPolicy

_log = logging.getLogger(__name__)

#: Most recent pattern templates remembered per server for the
#: structural-reuse ("re-value") path.
_MAX_TEMPLATES = 512

#: Smoothing factor of the per-nnz composition-cost estimate.
_OVERHEAD_EWMA_ALPHA = 0.3


class ResponseStatus(str, Enum):
    """Structured outcome of one served request.

    * ``OK`` — full-pipeline plan, executed successfully;
    * ``DEGRADED`` — served, but on the CSR fallback plan (admission
      control, backpressure shedding, or structural-OOM degradation);
    * ``FAILED`` — every recovery path exhausted, no result.

    ``response.ok`` and ``response.failed`` view this enum; the
    ``admission_degraded``, ``speculative`` and ``degraded_oom`` fields
    say which fallback produced a ``DEGRADED`` response.
    """

    OK = "ok"
    DEGRADED = "degraded"
    FAILED = "failed"


@dataclass
class OpRequest:
    """One unit of traffic: an op over ``matrix`` with dense operand(s).

    ``op`` selects the sparse primitive: ``"spmm"`` multiplies
    ``matrix @ B`` with ``J`` columns; ``"spmv"`` is its ``J = 1`` corner
    (``B`` is a ``(K, 1)`` column); ``"sddmm"`` samples ``U @ V.T`` onto
    the matrix's pattern (pass ``operands=(U, V)``, with ``J`` carrying
    the shared feature width ``K``).

    ``B`` may be ``None`` for measure-only traffic (replay benchmarks that
    only need timing).  ``deadline_ms`` bounds the composition overhead;
    ``None`` means best-effort (always take the full pipeline).
    ``arrival_ms`` is the request's position on the workload's virtual
    timeline (0.0 for legacy closed-loop traces); the open-loop scheduler
    replays arrivals at these timestamps.
    """

    matrix: sp.spmatrix
    B: np.ndarray | None
    J: int
    deadline_ms: float | None = None
    name: str = ""
    arrival_ms: float = 0.0
    #: Distributed trace context minted at the ingress point (e.g. the
    #: cluster frontend); None = the server mints one itself when traced.
    ctx: TraceContext | None = None
    #: Op kind; see :data:`repro.serve.fingerprint.OP_KINDS`.
    op: str = "spmm"
    #: SDDMM dense pair ``(U, V)``; None for spmm/spmv.
    operands: tuple[np.ndarray, np.ndarray] | None = None
    #: On a cache miss, allow serving a *same-pattern* matrix by re-valuing
    #: the pattern template of an earlier full compose: one gather of the
    #: values into the composed index arrays, sharing its launch stats.
    #: This is what lets a GNN chain pay one compose per (A, op-set) even
    #: though stage outputs carry fresh values.
    reuse_structure: bool = False


@dataclass
class OpResponse:
    """Outcome of one served request.

    ``C`` is dense for spmm/spmv and a CSR matrix for sddmm.
    """

    C: np.ndarray | sp.csr_matrix | None
    measurement: Measurement | None
    plan: ComposePlan | None
    key: str
    cache_hit: bool
    #: Structured outcome; see :class:`ResponseStatus`.
    status: ResponseStatus
    #: Admission control (or backpressure shedding) served the CSR
    #: fallback plan instead of running the pipeline.
    admission_degraded: bool
    deadline_missed: bool
    device_index: int
    #: Composition overhead actually paid for this request (wall clock):
    #: fingerprint+lookup on a hit, full compose on a miss, CSR build on
    #: the degraded path.
    compose_overhead_s: float
    #: ``queue_wait_ms`` + ``compose_overhead_s`` + retry backoff +
    #: simulated execution time.
    latency_ms: float
    #: Total executions tried (1 = no retries needed).
    attempts: int = 1
    #: At least one attempt failed but the request ultimately succeeded.
    recovered: bool = False
    #: Retry backoff accounted into :attr:`latency_ms`.
    backoff_ms: float = 0.0
    #: The plan was rebuilt as CSR after a structural OOM.
    degraded_oom: bool = False
    #: Requests coalesced into the launch that served this one (1 = no
    #: batching).  The shared :attr:`measurement` times the whole batch.
    batch_size: int = 1
    #: Virtual milliseconds spent queued before dispatch (scheduler only).
    queue_wait_ms: float = 0.0
    #: The scheduler's bounded queue was full; this request was shed to
    #: the degraded CSR path instead of queueing.
    shed: bool = False
    #: Served the immediate CSR plan of a speculative-recompose window: a
    #: background compose was (or already had been) kicked off for this
    #: key and will be swapped into the cache when ready.
    speculative: bool = False
    #: Trace id the request was served under (None when untraced).
    trace_id: str | None = None
    #: Op kind the request carried (spmm/sddmm/spmv).
    op: str = "spmm"
    #: A cache miss was served by re-valuing a same-pattern template
    #: (the structural-reuse path) instead of composing.
    plan_reused: bool = False

    @property
    def ok(self) -> bool:
        return self.status is ResponseStatus.OK

    @property
    def failed(self) -> bool:
        """Back-compat view of :attr:`status`."""
        return self.status is ResponseStatus.FAILED


class _PlanPath(Enum):
    """Which branch of :meth:`SpMMServer._prepare_plan` produced a plan."""

    HIT = "hit"
    #: Miss served by the format bandit's chosen arm.
    BANDIT = "bandit"
    #: Miss served by re-valuing a same-pattern template.
    REVALUE = "revalue"
    #: Miss served the CSR plan while a background compose runs.
    SPECULATIVE = "speculative"
    #: Admission control (or shedding) served the uncached CSR plan.
    DEGRADED = "degraded"
    COMPOSED = "composed"


@dataclass(frozen=True)
class _Prepared:
    """A plan ready to execute and the path that produced it."""

    plan: ComposePlan
    path: _PlanPath


@dataclass(frozen=True)
class _Template:
    """What a full compose leaves for same-pattern re-values: its format's
    pattern template and the plan's own SpMM kernel (re-values bind per
    op), widths and cost."""

    pattern: PatternTemplate
    kernel: SpMMKernel
    num_partitions: int
    max_widths: tuple[int, ...]
    predicted_cost: float | None


def member_trace_ids(requests: list[OpRequest]) -> dict:
    """``{"trace_ids": "id,id,..."}`` for a span covering many requests —
    a fused launch serves many trace ids at once, so any member's trace
    finds the span — or ``{}`` when none is traced."""
    ids = ",".join(r.ctx.trace_id for r in requests if r.ctx is not None)
    return {"trace_ids": ids} if ids else {}


@dataclass
class _DeviceSlot:
    device: SimulatedDevice
    breaker: CircuitBreaker
    busy_s: float = 0.0
    #: Requests successfully served by this device.
    requests: int = 0
    #: Failed execution attempts on this device (transient OOMs, losses).
    failures: int = 0
    #: The device raised :class:`DeviceLostError` at least once.
    lost: bool = False


@dataclass
class SpMMServer:
    """Serve SpMM requests with plan caching and admission control."""

    liteform: LiteForm
    cache: PlanCache = field(default_factory=PlanCache)
    #: The device pool (homogeneous; its length sizes the pool).
    devices: list[SimulatedDevice] = field(default_factory=lambda: [SimulatedDevice()])
    metrics: ServerMetrics = field(default_factory=ServerMetrics)
    #: Bounded-retry policy for transient execution faults.
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    #: Rebuild the plan as CSR (smaller footprint) on a structural OOM
    #: instead of failing the request.
    degrade_on_oom: bool = True
    #: Consecutive failures before a device's circuit breaker opens.
    breaker_threshold: int = 3
    #: Seconds an open breaker waits before admitting a probe request.
    breaker_cooldown_s: float = 1.0
    #: Speculative recompose: a cache miss serves the CSR fallback plan
    #: immediately while a background thread composes the full plan, which
    #: is swapped into the cache (on the serving thread) when ready.
    speculative: bool = False
    #: Online adaptive format selection (docs/ADAPTIVE.md): a
    #: :class:`~repro.serve.adaptive.FormatBandit` consulted on every
    #: request once armed with enough per-key reward; a decision that
    #: differs from the cached plan's arm re-pins the cache entry.
    #: ``None`` serves statically.
    bandit: FormatBandit | None = None
    #: Refit the static format selector on serving-derived samples every
    #: N bandit observations (0 = never retrain online).
    bandit_retrain_every: int = 0

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("device pool must not be empty")
        self._slots = [
            _DeviceSlot(
                device=d,
                breaker=CircuitBreaker(
                    failure_threshold=self.breaker_threshold,
                    cooldown_s=self.breaker_cooldown_s,
                ),
            )
            for d in self.devices
        ]
        #: EWMA of compose seconds per non-zero, None until the first compose.
        self._compose_s_per_nnz: float | None = None
        self._next_ticket = 0
        self._pending: deque[tuple[int, OpRequest]] = deque()
        self._completed: dict[int, OpResponse] = {}
        #: key -> (background compose future, matrix nnz, canonical CSR).
        self._inflight: dict[str, tuple[Future, int, sp.csr_matrix]] = {}
        #: pattern digest -> template of a full compose (the structural-
        #: reuse recipe); bounded FIFO of :data:`_MAX_TEMPLATES`.
        self._templates: "OrderedDict[str, _Template]" = OrderedDict()
        #: Keys whose cache entry holds a structurally-OOM-degraded CSR
        #: plan (the PR 3 pin): background swaps must never overwrite it.
        self._oom_pinned: set[str] = set()
        self._spec_pool = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="speculate")
            if self.speculative
            else None
        )
        #: key -> arm -> op-bound plan, memoized so a bandit flip back to
        #: a previously built arm costs a dict lookup, not a rebuild.
        self._bandit_plans: dict[str, dict[str, ComposePlan]] = {}

    # ------------------------------------------------------------------
    def estimate_compose_s(self, nnz: int) -> float | None:
        """Predicted full-pipeline composition overhead for an ``nnz``-sized
        matrix, from this server's own compose history (None = no history
        yet; admission control then admits optimistically)."""
        if self._compose_s_per_nnz is None:
            return None
        return self._compose_s_per_nnz * max(1, nnz)

    def _observe_compose(self, nnz: int, overhead_s: float) -> None:
        rate = overhead_s / max(1, nnz)
        if self._compose_s_per_nnz is None:
            self._compose_s_per_nnz = rate
        else:
            a = _OVERHEAD_EWMA_ALPHA
            self._compose_s_per_nnz = a * rate + (1 - a) * self._compose_s_per_nnz

    @staticmethod
    def _canonical(matrix: sp.spmatrix | np.ndarray) -> sp.csr_matrix:
        """Canonicalize once per request; already-canonical float32 CSR
        (everything the generators and workload produce) passes through.

        The fast path requires ``has_canonical_format`` (sorted indices,
        no duplicates): :func:`fingerprint_csr` and the kernels assume
        canonical CSR, and letting a user-supplied unsorted/duplicated
        matrix through would give the same logical matrix two cache keys.
        """
        if (
            sp.issparse(matrix)
            and matrix.format == "csr"
            and matrix.dtype == VALUE_DTYPE
            and matrix.has_canonical_format
        ):
            return matrix
        return as_csr(matrix)

    @staticmethod
    def _fallback_plan(A: sp.csr_matrix) -> ComposePlan:
        tb = time.perf_counter()
        fmt = CSRFormat.from_csr(A)
        build_s = time.perf_counter() - tb
        return ComposePlan(
            use_cell=False,
            fmt=fmt,
            kernel=RowSplitCSRSpMM(),
            num_partitions=1,
            overhead=OverheadBreakdown(0.0, 0.0, 0.0, build_s),
        )

    def _bind_op(self, plan: ComposePlan, A: sp.csr_matrix, op: str) -> ComposePlan:
        """Bind the kernel that executes ``op`` onto a composed plan.

        The pipeline composes formats with an SpMM kernel attached; the
        same built format serves SDDMM and SpMV through a different
        kernel (:func:`repro.kernels.registry.kernel_for_op`).  When no
        kernel of the op speaks the plan's format (SDDMM over a fixed
        block/ELL format), the format is rebuilt as CSR — cheap relative
        to composition, charged to the plan's build time.  SpMV over a
        non-CSR format keeps the plan's SpMM kernel: a ``(K, 1)`` operand
        is exact through any SpMM execution path.
        """
        if op == "spmm":
            return plan
        kernel = kernel_for_op(plan.fmt, op)
        if kernel is not None:
            return dataclasses.replace(plan, kernel=kernel)
        if op == "sddmm":
            tb = time.perf_counter()
            fmt = CSRFormat.from_csr(A)
            build_s = time.perf_counter() - tb
            overhead = dataclasses.replace(
                plan.overhead, build_s=plan.overhead.build_s + build_s
            )
            return dataclasses.replace(
                plan,
                use_cell=False,
                fmt=fmt,
                kernel=CSRSDDMM(),
                overhead=overhead,
                incremental=None,
            )
        return plan

    # -- structural reuse ("re-value") ----------------------------------
    def _rebuild_structure(self, A: sp.csr_matrix, template: _Template) -> ComposePlan:
        """The template's plan holding ``A``'s values — the "re-value"
        path: one gather, no selection, partitioning, width search,
        bucket build or launch-stat derivation."""
        tb = time.perf_counter()
        fmt = template.pattern.revalue(A)
        build_s = time.perf_counter() - tb
        return ComposePlan(
            use_cell=isinstance(fmt, CELLFormat),
            fmt=fmt,
            kernel=template.kernel,
            num_partitions=template.num_partitions,
            max_widths=list(template.max_widths),
            overhead=OverheadBreakdown(0.0, 0.0, 0.0, build_s),
            predicted_cost=template.predicted_cost,
        )

    def _pick_device(self, exclude: set[int] | frozenset[int] = frozenset()) -> int:
        """Least-busy device whose breaker admits traffic.

        ``exclude`` holds devices that already failed this request (retries
        prefer somewhere else).  Degrades gracefully: if every breaker is
        open (or everything is excluded) the least-busy device overall is
        used — serving on a suspect device beats not serving at all.
        """
        allowed = [i for i, s in enumerate(self._slots) if s.breaker.allow()]
        candidates = [i for i in allowed if i not in exclude] or allowed
        if not candidates:
            candidates = list(range(len(self._slots)))
        return min(candidates, key=lambda i: self._slots[i].busy_s)

    # ------------------------------------------------------------------
    def _execute(
        self,
        A: sp.csr_matrix,
        plan: ComposePlan,
        B: np.ndarray | tuple | None,
        J: int,
        op: str = "spmm",
    ) -> dict:
        """Run ``plan`` against operand ``B`` (an ndarray, or the SDDMM
        ``(U, V)`` pair; measure-only at width ``J`` when None) with
        bounded retry, breaker updates, and OOM degradation; returns the
        execution outcome as a dict.

        Recovery rules, per failed attempt:

        * transient OOM (``not err.is_structural``) or device loss —
          record on the device's breaker, retry on the least-busy other
          device with exponential backoff, up to ``retry.max_attempts``
          total executions;
        * structural OOM — retrying cannot help; if :attr:`degrade_on_oom`
          and the plan is not already plain CSR, rebuild it as CSR (the
          smallest-footprint format) and execute that, otherwise fail.
        """
        m = self.metrics
        tracer = get_tracer()
        attempts = 0
        backoff_ms = 0.0
        degraded_oom = False
        had_failure = False
        failed_on: set[int] = set()
        C: np.ndarray | None = None
        measurement: Measurement | None = None
        slot_index = self._pick_device()
        with tracer.span("execute", device=slot_index) as ex_span:
            while True:
                attempts += 1
                slot = self._slots[slot_index]
                try:
                    with tracer.span("attempt", device=slot_index, attempt=attempts):
                        if B is not None:
                            C, measurement = plan.kernel.run(
                                plan.fmt, B, slot.device
                            )
                        else:
                            measurement = plan.kernel.measure(
                                plan.fmt, J, slot.device
                            )
                    slot.breaker.record_success()
                    slot.requests += 1
                    slot.busy_s += measurement.time_s
                    failed = False
                    break
                except SimulatedOOMError as err:
                    if err.is_structural:
                        # No device of the homogeneous pool can fit this
                        # working set; the only recovery is a smaller format.
                        if self.degrade_on_oom and not isinstance(
                            plan.fmt, CSRFormat
                        ):
                            with tracer.span("oom_degrade", nnz=A.nnz):
                                plan = self._bind_op(self._fallback_plan(A), A, op)
                            degraded_oom = True
                            m.oom_degraded += 1
                            continue  # fresh plan, not a retry
                        slot.failures += 1
                        failed = True
                        break
                    had_failure = True
                    slot.failures += 1
                    if slot.breaker.record_failure():
                        m.breaker_open += 1
                except DeviceLostError:
                    had_failure = True
                    slot.failures += 1
                    slot.lost = True
                    m.device_lost += 1
                    if slot.breaker.record_failure(fatal=True):
                        m.breaker_open += 1
                retries_used = attempts - 1
                if attempts >= self.retry.max_attempts:
                    failed = True
                    break
                m.retries += 1
                backoff_ms += self.retry.pause(retries_used + 1)
                failed_on.add(slot_index)
                slot_index = self._pick_device(exclude=failed_on)
            recovered = had_failure and not failed
            ex_span.set(
                attempts=attempts,
                failed=failed,
                recovered=recovered,
                degraded_oom=degraded_oom,
                backoff_ms=round(backoff_ms, 4),
            )
        return {
            "plan": plan,
            "C": C,
            "measurement": measurement,
            "slot_index": slot_index,
            "failed": failed,
            "attempts": attempts,
            "recovered": recovered,
            "backoff_ms": backoff_ms,
            "degraded_oom": degraded_oom,
        }

    # -- speculative recompose -----------------------------------------
    def _speculate(self, A: sp.csr_matrix, key: str) -> None:
        """Kick off a background compose for ``key`` (idempotent while one
        is already in flight)."""
        if key in self._inflight or self._spec_pool is None:
            return
        self._inflight[key] = (
            self._spec_pool.submit(
                self.liteform.compose_csr, A, max(1, self._plan_J(key))
            ),
            int(A.nnz),
            A,
        )

    def _apply_ready_swaps(self) -> int:
        """Swap completed background composes into the plan cache.

        Runs on the serving thread only — the :class:`PlanCache` is not
        thread-safe, and applying swaps here (instead of from the worker
        thread) serializes them against the structural-OOM degrade pin:
        a key whose entry was pinned to its CSR fallback after a
        structural OOM never gets the doomed CELL plan swapped back in
        (counted as ``speculative_skipped``); a compose that raised is
        logged and counted as ``speculative_errors``.  Returns swaps applied.
        """
        if not self._inflight:
            return 0
        m = self.metrics
        tracer = get_tracer()
        applied = 0
        for key in [k for k, (f, *_rest) in self._inflight.items() if f.done()]:
            future, nnz, A = self._inflight.pop(key)
            try:
                plan = future.result()
            except Exception:
                # A compose bug, not a pin: count and log it apart from
                # the skips so it cannot hide among them.
                _log.exception("speculative compose for %s raised", key)
                m.speculative_errors += 1
                continue
            if key in self._oom_pinned:
                with tracer.span("speculative_swap", key=key, skipped=True):
                    m.speculative_skipped += 1
                continue
            plan = self._bind_op(plan, A, plan_op(key))
            with tracer.span("speculative_swap", key=key, nnz=nnz):
                self.cache.put(key, plan, compose_overhead_s=plan.overhead.total_s)
            self._observe_compose(nnz, plan.overhead.total_s)
            m.compose_spent_s += plan.overhead.total_s
            m.speculative_swaps += 1
            applied += 1
        return applied

    def wait_for_speculation(self, timeout: float | None = None) -> int:
        """Block until in-flight background composes finish (bounded by
        ``timeout`` seconds) and apply their swaps; returns swaps applied.

        The serving path itself never blocks — it applies whatever is
        ready at each request.  Callers that need a settled cache (replay
        tails, tests, shutdown) call this explicitly.
        """
        futures = [f for f, *_rest in self._inflight.values()]
        if futures:
            futures_wait(futures, timeout=timeout)
        return self._apply_ready_swaps()

    # -- adaptive format selection (docs/ADAPTIVE.md) --------------------
    def _sync_bandit_metrics(self) -> None:
        """Mirror the bandit's lifetime counters onto the scoreboard
        (``bandit_flips`` is server-side and incremented directly)."""
        b, m = self.bandit, self.metrics
        m.bandit_observations = b.observations
        m.bandit_overrides = b.overrides
        m.bandit_explorations = b.explorations
        m.bandit_retrains = b.retrains

    def _arm_plan(self, A: sp.csr_matrix, key: str, arm: str, op: str) -> ComposePlan:
        """The op-bound plan of one bandit arm for ``key``, built once."""
        per_key = self._bandit_plans.setdefault(key, {})
        plan = per_key.get(arm)
        if plan is None:
            with get_tracer().span("bandit_build", arm=arm, nnz=A.nnz):
                plan = self._bind_op(
                    build_arm_plan(self.liteform, A, self._plan_J(key), arm), A, op
                )
            self.metrics.compose_spent_s += plan.overhead.total_s
            per_key[arm] = plan
        return plan

    def _bandit_decide(
        self, A: sp.csr_matrix, key: str, cached_plan: ComposePlan, op: str
    ) -> ComposePlan:
        """Hit-path bandit decision: keep the cached plan, or substitute
        the chosen arm's plan and re-pin the cache entry (a "flip")."""
        b = self.bandit
        if b is None or key in self._oom_pinned:
            return cached_plan
        arm = b.select(key)
        self._sync_bandit_metrics()
        if arm is None or arm == plan_arm(cached_plan):
            return cached_plan
        plan = self._arm_plan(A, key, arm, op)
        with get_tracer().span("bandit_repin", arm=arm, key=key):
            self.cache.put(key, plan, compose_overhead_s=plan.overhead.total_s)
        self.metrics.bandit_flips += 1
        return plan

    def _bandit_observe(
        self, A: sp.csr_matrix, key: str, plan: ComposePlan, exec_ms: float
    ) -> None:
        """Feed one successful request's simulated latency back as reward
        for the arm that actually executed."""
        b = self.bandit
        if b is None or key in self._oom_pinned:
            return
        b.observe(key, plan_arm(plan), exec_ms, A=A)
        if self.bandit_retrain_every and b.observations % self.bandit_retrain_every == 0:
            with get_tracer().span("bandit_retrain", observations=b.observations):
                b.retrain(self.liteform)
        self._sync_bandit_metrics()

    # ------------------------------------------------------------------
    def _prepare_plan(
        self,
        A: sp.csr_matrix,
        key: str,
        effective_deadline_ms: float | None,
        force_degrade: bool,
        reuse_structure: bool = False,
        pattern: str | None = None,
    ) -> _Prepared:
        """Cache lookup → admission → compose-or-fallback for one plan key.

        ``effective_deadline_ms`` is the request's (or group's tightest)
        deadline with queueing delay already subtracted;
        ``force_degrade`` (backpressure shedding) skips the pipeline on a
        miss outright.  With :attr:`speculative` enabled, a miss returns
        the CSR fallback immediately and composes in the background
        (unless the key is OOM-pinned, in which case the pin is restored).
        With ``reuse_structure``, a miss whose *pattern* equals that of a
        recorded compose is served by re-valuing its template (the
        "re-value" path) instead of re-running the pipeline.  ``pattern``
        is ``A``'s pattern digest when the caller already has it; it is
        hashed here otherwise.

        Every returned plan carries the kernel of the key's op segment.
        """
        m = self.metrics
        tracer = get_tracer()
        op = plan_op(key)
        if self._inflight:
            self._apply_ready_swaps()
        entry = self.cache.get(key)
        if entry is not None:
            m.cache_hits += 1
            m.compose_saved_s += entry.compose_overhead_s
            return _Prepared(self._bandit_decide(A, key, entry.plan, op), _PlanPath.HIT)

        m.cache_misses += 1
        if (
            self.bandit is not None
            and not force_degrade
            and key not in self._oom_pinned
        ):
            # Miss-path override: a bandit with enough reward for this key
            # (e.g. after an eviction) serves its chosen arm directly
            # instead of re-running the static pipeline.
            arm = self.bandit.select(key)
            self._sync_bandit_metrics()
            if arm is not None:
                plan = self._arm_plan(A, key, arm, op)
                self.cache.put(key, plan, compose_overhead_s=plan.overhead.total_s)
                return _Prepared(plan, _PlanPath.BANDIT)
        reuse_structure = reuse_structure and not force_degrade
        if reuse_structure:
            if pattern is None:
                pattern = fingerprint_csr(A, include_values=False).digest
            template = self._templates.get(pattern)
            if template is not None and template.pattern.matches(A):
                with tracer.span("revalue", op=op, nnz=A.nnz):
                    plan = self._bind_op(self._rebuild_structure(A, template), A, op)
                m.plan_reuses += 1
                m.revalue_s += plan.overhead.total_s
                self.cache.put(key, plan, compose_overhead_s=plan.overhead.total_s)
                return _Prepared(plan, _PlanPath.REVALUE)
        if self.speculative and not force_degrade:
            pinned = key in self._oom_pinned
            with tracer.span("speculative_build", nnz=A.nnz, pinned=pinned):
                plan = self._bind_op(self._fallback_plan(A), A, op)
            if pinned:
                # A structural OOM already proved the full plan cannot fit
                # this working set; restore the degraded pin instead of
                # paying a background compose that would be discarded.
                self.cache.put(key, plan, compose_overhead_s=plan.overhead.total_s)
            else:
                self._speculate(A, key)
            return _Prepared(plan, _PlanPath.SPECULATIVE)
        with tracer.span("admission") as adm_span:
            estimate = self.estimate_compose_s(A.nnz)
            degraded = force_degrade or (
                effective_deadline_ms is not None
                and estimate is not None
                and estimate * 1e3 > effective_deadline_ms
            )
            adm_span.set(
                admitted=not degraded,
                forced=force_degrade,
                estimate_ms=None if estimate is None else estimate * 1e3,
            )
        if degraded:
            with tracer.span("degraded_build"):
                plan = self._bind_op(self._fallback_plan(A), A, op)
            # degraded plans are intentionally NOT cached: a later
            # best-effort request for the same matrix should get the
            # full pipeline, not a pinned fallback.
            return _Prepared(plan, _PlanPath.DEGRADED)
        with tracer.span("compose", nnz=A.nnz, op=op):
            plan = self.liteform.compose_csr(A, max(1, self._plan_J(key)))
        self._observe_compose(A.nnz, plan.overhead.total_s)
        m.compose_spent_s += plan.overhead.total_s
        if reuse_structure:
            # Record before op binding so the template holds the plan's own
            # SpMM kernel; re-values re-bind per op.
            self._templates[pattern] = _Template(
                PatternTemplate(plan.fmt, A), plan.kernel, plan.num_partitions,
                tuple(plan.max_widths), plan.predicted_cost,
            )
            self._templates.move_to_end(pattern)
            if len(self._templates) > _MAX_TEMPLATES:
                self._templates.popitem(last=False)
        plan = self._bind_op(plan, A, op)
        self.cache.put(key, plan, compose_overhead_s=plan.overhead.total_s)
        return _Prepared(plan, _PlanPath.COMPOSED)

    @staticmethod
    def _plan_J(key: str) -> int:
        """Recover ``J`` from a plan key (``.../J<width>``)."""
        return int(key.rsplit("/J", 1)[1])

    # ------------------------------------------------------------------
    def _serve_one(
        self,
        request: OpRequest,
        *,
        queue_wait_ms: float = 0.0,
        force_degrade: bool = False,
        shed: bool = False,
        A: sp.csr_matrix | None = None,
        key: str | None = None,
    ) -> OpResponse:
        """Serve one request: :meth:`_serve_group` with a group of one."""
        return self._serve_group(
            [request], [queue_wait_ms], A, key, force_degrade=force_degrade, shed=shed
        )[0]

    def _serve_group(
        self,
        requests: list[OpRequest],
        waits: list[float],
        A: sp.csr_matrix | None,
        key: str | None,
        force_degrade: bool = False,
        shed: bool = False,
    ) -> list[OpResponse]:
        """The one request path: one plan lookup and one launch for
        ``requests``, which share the plan key ``key``; every path updates
        :attr:`metrics`.

        A group of one canonicalizes and fingerprints when ``A``/``key``
        are not supplied and executes its operand as given (an SDDMM
        ``(U, V)`` pair included).  With a tracer installed
        (:func:`repro.obs.get_tracer`) it emits a ``request`` span with
        children ``cache_lookup``, ``admission`` / ``degraded_build`` /
        ``compose`` (which nests the pipeline's per-stage spans) and
        ``execute`` (which nests the simulated ``kernel_launch`` spans).
        A larger group is a fused SpMM launch under one ``batch`` span:
        the operands are stacked column-wise into one ``(K, n*J)``
        operand and the result is split back per member.  ``waits`` are
        the members' queueing delays; admission uses the tightest
        effective deadline.
        """
        m = self.metrics
        tracer = get_tracer()
        n, first, J = len(requests), requests[0], requests[0].J
        m.requests += n
        if n == 1:
            ctx = first.ctx
            if ctx is None and tracer.enabled:
                # Standalone server = its own ingress point: mint here so the
                # whole request subtree (compose, kernel launches) is linked.
                ctx = TraceContext.mint("req")
            trace_ids = [ctx.trace_id if ctx is not None else None]
            group_span = tracer.span(
                "request", ctx=ctx, J=J, op=first.op, matrix=first.name or "anonymous"
            )
        else:
            trace_ids = [r.ctx.trace_id if r.ctx is not None else None for r in requests]
            group_span = tracer.span("batch", size=n, J=J, key=key, **member_trace_ids(requests))
        with group_span as span:
            t0 = time.perf_counter()
            reuse_structure = any(r.reuse_structure for r in requests)
            pattern = None
            if n == 1:
                with tracer.span("cache_lookup"):
                    if A is None:
                        A = self._canonical(first.matrix)
                    if key is None:
                        fp = fingerprint_csr(A, with_pattern=reuse_structure)
                        key, pattern = plan_key(fp, J, first.op), fp.pattern_digest
            deadlines = [
                r.deadline_ms - w for r, w in zip(requests, waits) if r.deadline_ms is not None
            ]
            prepared = self._prepare_plan(
                A,
                key,
                min(deadlines) if deadlines else None,
                force_degrade,
                reuse_structure=reuse_structure,
                pattern=pattern,
            )
            overhead_s = time.perf_counter() - t0
            cache_hit = prepared.path is _PlanPath.HIT
            degraded = prepared.path is _PlanPath.DEGRADED
            speculative = prepared.path is _PlanPath.SPECULATIVE
            if degraded:
                m.degraded += n
            if speculative:
                m.speculative_misses += n

            if n == 1:
                operand = first.operands if first.op == "sddmm" else first.B
            else:
                operand = np.hstack([r.B for r in requests]) if first.B is not None else None
            outcome = self._execute(A, prepared.plan, operand, n * J, op=first.op)
            plan, measurement, failed = outcome["plan"], outcome["measurement"], outcome["failed"]
            if outcome["degraded_oom"] and not failed:
                # Pin the degraded CSR plan under this key: later requests
                # for the same (matrix, J) must not re-pay the structural
                # OOM and the rebuild on every hit.  The pin also blocks
                # any in-flight speculative swap for this key.
                self.cache.put(key, plan, compose_overhead_s=plan.overhead.total_s)
                self._oom_pinned.add(key)
            exec_ms = measurement.time_ms if measurement is not None else 0.0
            overhead_ms = overhead_s * 1e3
            if failed:
                status = ResponseStatus.FAILED
            else:
                # One reward per launch (the per-request share), not per
                # member: the bandit's unit of evidence is a launch.
                self._bandit_observe(A, key, plan, exec_ms / n)
                fallback = degraded or outcome["degraded_oom"] or speculative
                status = ResponseStatus.DEGRADED if fallback else ResponseStatus.OK

            responses = []
            for i, (request, wait, trace_id) in enumerate(zip(requests, waits, trace_ids)):
                deadline_missed = (
                    request.deadline_ms is not None and overhead_ms + wait > request.deadline_ms
                )
                if deadline_missed:
                    m.deadline_misses += 1
                latency_ms = wait + overhead_ms + outcome["backoff_ms"] + exec_ms
                if failed:
                    # Failed requests never enter the success latency series —
                    # a 0 ms "latency" would drag p50/p95 down (they are tracked
                    # separately, with the retry cost they actually paid).
                    m.failed += 1
                    m.observe_failed_latency(latency_ms)
                else:
                    if outcome["recovered"]:
                        m.recovered += 1
                    m.observe_latency(exec_ms, latency_ms)
                m.attribution.record(
                    trace_id,
                    {
                        "queue_wait": wait,
                        "compose": overhead_ms,
                        "launch": exec_ms,
                        "retry_backoff": outcome["backoff_ms"],
                    },
                    total_ms=latency_ms,
                )
                C = outcome["C"]
                if n > 1 and C is not None:
                    C = np.ascontiguousarray(C[:, i * J : (i + 1) * J])
                responses.append(
                    OpResponse(
                        C=C,
                        measurement=measurement,
                        plan=plan,
                        key=key,
                        cache_hit=cache_hit,
                        status=status,
                        admission_degraded=degraded,
                        deadline_missed=deadline_missed,
                        device_index=outcome["slot_index"],
                        compose_overhead_s=overhead_s,
                        latency_ms=latency_ms,
                        attempts=outcome["attempts"],
                        recovered=outcome["recovered"],
                        backoff_ms=outcome["backoff_ms"],
                        degraded_oom=outcome["degraded_oom"],
                        batch_size=n,
                        queue_wait_ms=wait,
                        shed=shed,
                        speculative=speculative,
                        trace_id=trace_id,
                        op=request.op,
                        plan_reused=prepared.path is _PlanPath.REVALUE,
                    )
                )
            if n == 1:
                span.set(cache_hit=cache_hit, status=status.value, speculative=speculative,
                         deadline_missed=deadline_missed, sim_exec_ms=exec_ms)
            else:
                span.set(cache_hit=cache_hit, degraded=degraded, failed=failed,
                         sim_exec_ms=exec_ms)
        return responses

    # -- async-style surface -------------------------------------------
    def submit(self, request: OpRequest) -> int:
        """Enqueue a request; returns a ticket for :meth:`poll`.

        The in-process server is lazy-synchronous: the work happens at
        the next :meth:`poll` / :meth:`drain` call.
        """
        ticket = self._next_ticket
        self._next_ticket += 1
        self._pending.append((ticket, request))
        return ticket

    def _process_pending(self) -> None:
        while self._pending:
            ticket, request = self._pending.popleft()
            self._completed[ticket] = self._serve_one(request)

    def poll(self, ticket: int) -> OpResponse | None:
        """Claim one completed response (processing anything pending
        first); None if the ticket is unknown or already claimed."""
        self._process_pending()
        return self._completed.pop(ticket, None)

    def drain(self) -> list[OpResponse]:
        """Serve everything pending; returns all unclaimed responses in
        submission order (each response is delivered exactly once)."""
        self._process_pending()
        out = [self._completed.pop(t) for t in sorted(self._completed)]
        return out

    def serve(self, request: OpRequest) -> OpResponse:
        """Serve one request now — thin wrapper over submit/poll."""
        ticket = self.submit(request)
        response = self.poll(ticket)
        assert response is not None  # in-process poll always completes
        return response

    # -- coalesced micro-batches ---------------------------------------
    def serve_batch(
        self,
        requests: list[OpRequest],
        *,
        queue_waits_ms: list[float] | None = None,
        prepared: list[tuple[sp.csr_matrix, str]] | None = None,
    ) -> list[OpResponse]:
        """Serve requests sharing one ``(fingerprint, J)`` key as a single
        fused launch.

        One plan lookup (or compose) covers the whole group; the dense
        operands are stacked column-wise into a ``(K, n*J)`` operand and
        executed once, then the result is split back per request — each
        slice bit-identical to an individually served response, because
        output column ``j`` depends only on operand column ``j``.  All
        requests must agree on the plan key and on operand kind (all
        numeric or all measure-only); a mixed group raises
        :exc:`ValueError` — the :class:`~repro.serve.scheduler.Batcher`
        never forms one.

        ``queue_waits_ms`` (scheduler-provided) is the per-request
        virtual queueing delay; the group's admission decision uses the
        *tightest* effective deadline (deadline minus wait) among its
        members.  ``prepared`` lets the scheduler pass pre-canonicalized
        ``(A, key)`` pairs so fingerprints are not recomputed at dispatch.
        """
        n = len(requests)
        if n == 0:
            return []
        waits = list(queue_waits_ms) if queue_waits_ms is not None else [0.0] * n
        if len(waits) != n:
            raise ValueError(f"queue_waits_ms has {len(waits)} entries for {n} requests")
        if prepared is None:
            prepared = []
            for r in requests:
                A = self._canonical(r.matrix)
                prepared.append((A, plan_key(fingerprint_csr(A), r.J, r.op)))
        keys = {key for _, key in prepared}
        if len(keys) != 1:
            raise ValueError(
                f"serve_batch requires one (fingerprint, J) group per op, "
                f"got {len(keys)} distinct plan keys: {sorted(keys)}"
            )
        numeric = [r.B is not None for r in requests]
        if any(numeric) and not all(numeric):
            raise ValueError(
                "serve_batch cannot mix numeric and measure-only requests"
            )
        A, key = prepared[0]
        if plan_op(key) != "spmm":
            # SDDMM operand pairs and SpMV columns have no column-stacked
            # fused-launch equivalence; group members still share the one
            # plan lookup through the cache, just not a launch.
            return [
                self._serve_one(r, queue_wait_ms=w, A=a, key=k)
                for r, w, (a, k) in zip(requests, waits, prepared)
            ]
        return self._serve_group(requests, waits, A, key)

    def replay(self, requests: list[OpRequest]) -> ServerMetrics:
        """Serve a whole workload in order and return the scoreboard.

        The whole replay runs under one root ``replay`` span so a traced
        run attributes (nearly) all wall time to spans.
        """
        with get_tracer().span("replay", requests=len(requests)):
            for request in requests:
                self.serve(request)
            if self.speculative:
                # Settle outstanding background composes so the returned
                # scoreboard (swap counters, cache stats) is stable.
                self.wait_for_speculation()
        return self.metrics

    # -- DAG (graph) requests --------------------------------------------
    def serve_graph(self, graph):
        """Serve one :class:`repro.serve.graph.GraphRequest` end to end;
        returns its :class:`~repro.serve.graph.GraphResponse`."""
        from repro.serve.graph import GraphEngine

        return GraphEngine(self).run(graph)

    def serve_graphs(self, graphs):
        """Serve many graph requests with cross-graph stage coalescing:
        same-wave SpMM stages sharing a plan key fuse into one launch."""
        from repro.serve.graph import GraphEngine

        return GraphEngine(self).run_wave(list(graphs))

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Merged metrics + cache + device-pool view (JSON-friendly)."""
        out = self.metrics.snapshot()
        out["cache"] = self.cache.stats()
        out["devices"] = [
            {
                "index": i,
                "busy_s": s.busy_s,
                "requests": s.requests,
                "failures": s.failures,
                "lost": s.lost,
                "breaker": s.breaker.state,
                "breaker_trips": s.breaker.trips,
            }
            for i, s in enumerate(self._slots)
        ]
        return out

    def report(self) -> str:
        """Plain-text report: metrics, cache, and device utilization."""
        c = self.cache.stats()
        lines = [
            self.metrics.report(),
            f"cache entries       {c['entries']} "
            f"({c['bytes'] / 2**20:.1f}/{c['max_bytes'] / 2**20:.1f} MiB, "
            f"{c['evictions']} evictions, {c['rejected']} rejected)",
        ]
        for i, s in enumerate(self._slots):
            health = f", breaker {s.breaker.state}" if s.breaker.state != "closed" else ""
            lost = ", LOST" if s.lost else ""
            lines.append(
                f"device[{i}]           {s.requests} requests, "
                f"{s.failures} failed attempts, "
                f"{s.busy_s * 1e3:.3f} ms simulated busy{health}{lost}"
            )
        return "\n".join(lines)
