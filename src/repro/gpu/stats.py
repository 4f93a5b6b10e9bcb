"""Structural kernel statistics and measurement records."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.gpu.device import GPUSpec
    from repro.gpu.timing import TimeBreakdown, TimingModel


@dataclass(frozen=True, eq=False)
class KernelStats:
    """Structural description of the work one GPU kernel launch performs.

    Every field is a *count* derived from the sparse format and the operand
    shapes, never from wall-clock timing, so measurements are deterministic.

    Records are immutable (``block_costs`` is a read-only copy), so one
    record can be shared by every launch of the same ``(format, kernel,
    J)`` — see :meth:`repro.kernels.base.SpMMKernel.stats` — and its
    timing estimate can be cached with it (:meth:`breakdown`).  Derive a
    variant with :func:`dataclasses.replace`.

    Attributes
    ----------
    coalesced_load_bytes:
        Global-memory bytes read through fully coalesced transactions
        (e.g. contiguous value/index arrays, dense-matrix row segments).
    scattered_load_bytes:
        Bytes read through scattered (gather) accesses *after* sector
        expansion, e.g. random rows of ``B`` indexed by column ids.
    coalesced_store_bytes:
        Bytes written with plain coalesced stores.
    atomic_store_bytes:
        Bytes written with atomic read-modify-write operations; the device
        charges :attr:`repro.gpu.device.GPUSpec.atomic_penalty` per byte.
    flops:
        Floating-point operations (one fused multiply-add counts as 2).
    block_costs:
        Per-thread-block work estimate in arbitrary but consistent units
        (typically "non-zeros processed, padding included").  Drives the
        load-imbalance factor.
    threads_per_block:
        Threads per block; used for a warp-granularity utilization factor.
    lane_utilization:
        Fraction of SIMT lanes doing useful work (1.0 = no divergence).
    num_launches:
        Number of kernel launches this statistic represents (each pays the
        fixed launch overhead); composable formats may emit one launch per
        bucket unless horizontally fused.
    footprint_bytes:
        Device-resident bytes of the operands (format arrays + B + C); used
        for the simulated-OOM check.
    """

    coalesced_load_bytes: float = 0.0
    scattered_load_bytes: float = 0.0
    coalesced_store_bytes: float = 0.0
    atomic_store_bytes: float = 0.0
    flops: float = 0.0
    block_costs: np.ndarray = field(default_factory=lambda: np.zeros(0))
    threads_per_block: int = 128
    lane_utilization: float = 1.0
    num_launches: int = 1
    footprint_bytes: float = 0.0
    label: str = ""
    #: Kernel-specific multiplier on achievable FP32 throughput (dense-tile
    #: kernels using tensor cores exceed the generic scalar efficiency).
    compute_efficiency: float = 1.0
    #: Kernel-specific multiplier on achieved DRAM bandwidth: regular
    #: streaming kernels (ELL-family) sustain a higher fraction of peak than
    #: latency-bound gather kernels (generic CSR, TACO codegen).
    bandwidth_efficiency: float = 1.0
    #: Whether the kernel's blocks are dispatched longest-first (sorted
    #: workloads, e.g. Sputnik's row swizzle) rather than in natural order.
    lpt_dispatch: bool = False

    def __post_init__(self) -> None:
        if self.lane_utilization <= 0.0 or self.lane_utilization > 1.0:
            raise ValueError(
                f"lane_utilization must be in (0, 1], got {self.lane_utilization}"
            )
        costs = np.array(self.block_costs, dtype=np.float64)
        costs.setflags(write=False)
        object.__setattr__(self, "block_costs", costs)
        #: (timing-model key, GPUSpec) -> TimeBreakdown; see breakdown().
        object.__setattr__(self, "_breakdowns", {})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KernelStats):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )

    __hash__ = None  # type: ignore[assignment]  # equal by value, holds an array

    def breakdown(self, timing: "TimingModel", spec: "GPUSpec") -> "TimeBreakdown":
        """``timing.estimate(self, spec)``, computed once per timing-model
        parameters and device spec — the record is immutable, so its
        estimate (block schedule included) is too."""
        key = (timing.key, spec)
        cached = self._breakdowns.get(key)
        if cached is None:
            cached = self._breakdowns[key] = timing.estimate(self, spec)
        return cached

    @property
    def total_load_bytes(self) -> float:
        return self.coalesced_load_bytes + self.scattered_load_bytes

    @property
    def total_store_bytes(self) -> float:
        return self.coalesced_store_bytes + self.atomic_store_bytes

    @property
    def num_blocks(self) -> int:
        return int(self.block_costs.size)

    def effective_memory_bytes(self, atomic_penalty: float) -> float:
        """Total charged memory traffic including the atomic penalty."""
        return (
            self.total_load_bytes
            + self.coalesced_store_bytes
            + self.atomic_store_bytes * atomic_penalty
        )

    @staticmethod
    def merge(stats: Sequence["KernelStats"] | Iterable["KernelStats"]) -> "KernelStats":
        """Aggregate several launches into one record (sums counters)."""
        stats = list(stats)
        if not stats:
            raise ValueError("cannot merge an empty sequence of KernelStats")
        costs = (
            np.concatenate([s.block_costs for s in stats])
            if any(s.block_costs.size for s in stats)
            else np.zeros(0)
        )
        total_work = sum(float(np.sum(s.block_costs)) or s.flops for s in stats)
        if total_work > 0:
            lane = (
                sum(
                    s.lane_utilization * (float(np.sum(s.block_costs)) or s.flops)
                    for s in stats
                )
                / total_work
            )
        else:
            lane = 1.0
        if total_work > 0:
            ceff = (
                sum(
                    s.compute_efficiency * (float(np.sum(s.block_costs)) or s.flops)
                    for s in stats
                )
                / total_work
            )
        else:
            ceff = 1.0
        total_bytes = sum(
            s.total_load_bytes + s.total_store_bytes for s in stats
        )
        if total_bytes > 0:
            beff = (
                sum(
                    s.bandwidth_efficiency
                    * (s.total_load_bytes + s.total_store_bytes)
                    for s in stats
                )
                / total_bytes
            )
        else:
            beff = 1.0
        return KernelStats(
            bandwidth_efficiency=float(beff),
            coalesced_load_bytes=sum(s.coalesced_load_bytes for s in stats),
            scattered_load_bytes=sum(s.scattered_load_bytes for s in stats),
            coalesced_store_bytes=sum(s.coalesced_store_bytes for s in stats),
            atomic_store_bytes=sum(s.atomic_store_bytes for s in stats),
            flops=sum(s.flops for s in stats),
            block_costs=costs,
            threads_per_block=stats[0].threads_per_block,
            lane_utilization=float(min(1.0, max(lane, 1e-9))),
            num_launches=sum(s.num_launches for s in stats),
            footprint_bytes=max(s.footprint_bytes for s in stats),
            label="+".join(s.label for s in stats if s.label),
            compute_efficiency=float(ceff),
            lpt_dispatch=all(s.lpt_dispatch for s in stats),
        )


@dataclass
class Measurement:
    """Result of simulating one kernel (or fused kernel group).

    ``compute_throughput`` is the fraction of peak FP32 throughput achieved,
    mirroring the "GPU compute throughput (%)" metric of Figure 11.
    """

    time_s: float
    breakdown: "TimeBreakdown"
    stats: KernelStats
    compute_throughput: float

    @property
    def time_ms(self) -> float:
        return self.time_s * 1e3

    @property
    def time_us(self) -> float:
        return self.time_s * 1e6
