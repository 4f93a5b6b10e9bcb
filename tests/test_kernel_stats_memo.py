"""Launch statistics are derived once per (format, kernel config, J).

:meth:`SpMMKernel.stats` memoizes :meth:`SpMMKernel.plan` on the format
instance and :meth:`KernelStats.breakdown` memoizes the timing estimate on
the record.  These tests pin that the memo changes no observable result:
cached records equal fresh derivations, seeded fault and drift replays are
unchanged, rebuilt plans never see stale stats, a re-valued plan shares
its template's stats, and nothing cached leaks into a saved plan cache.
"""

import dataclasses

import numpy as np
import pytest

from repro.baselines.stile import STileBaseline
from repro.core import LiteForm, generate_training_data
from repro.gpu import FaultPolicy, FaultyDevice, SimulatedDevice
from repro.gpu.stats import KernelStats
from repro.kernels import CELLSpMM
from repro.kernels.base import SpMMKernel
from repro.matrices import SuiteSparseLikeCollection, power_law_graph
from repro.obs import get_registry
from repro.serve import FormatDriftDevice, OpRequest, PlanCache, SpMMServer
from repro.serve.workload import WorkloadSpec, generate_workload


@pytest.fixture(scope="module")
def liteform():
    coll = SuiteSparseLikeCollection(size=6, max_rows=2000, seed=11)
    return LiteForm().fit(generate_training_data(coll, J_values=(32,)))


def _zipf_trace(seed=5, num_requests=60):
    return generate_workload(
        WorkloadSpec(
            num_requests=num_requests,
            num_matrices=6,
            J_choices=(32, 64),
            gnn_names=(),
            max_rows=2000,
            seed=seed,
        )
    )


def _derived() -> float:
    return get_registry().get("kernel_stats_derived_total").value


@pytest.fixture()
def uncached(monkeypatch):
    """Turn both memos off: every launch re-plans and re-estimates."""
    monkeypatch.setattr(SpMMKernel, "stats", lambda self, fmt, J: self.plan(fmt, int(J)))
    monkeypatch.setattr(
        KernelStats, "breakdown", lambda self, timing, spec: timing.estimate(self, spec)
    )


def _outcome(response):
    m = response.measurement
    return (
        response.key,
        response.status,
        response.cache_hit,
        response.attempts,
        response.device_index,
        response.degraded_oom,
        None if m is None else (m.time_s, m.breakdown, m.compute_throughput),
        None if response.C is None else response.C.tobytes(),
    )


class TestDerivedOncePerPlan:
    def test_zipf_replay_plans_once_per_distinct_triple(self, liteform, monkeypatch):
        calls = []
        keep = []  # keeps formats alive so their ids stay distinct

        def counting_plan(cls):
            plan = cls.plan

            def wrapper(self, fmt, J):
                keep.append(fmt)
                calls.append((id(fmt), self.config, int(J)))
                return plan(self, fmt, J)

            return wrapper

        todo = [SpMMKernel]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if cls is not SpMMKernel and "plan" in vars(cls):
                monkeypatch.setattr(cls, "plan", counting_plan(cls))
        before = _derived()
        server = SpMMServer(liteform=liteform, cache=PlanCache())
        server.replay(_zipf_trace())
        m = server.metrics
        assert m.cache_hits > m.cache_misses > 0
        assert len(calls) == len(set(calls)) == m.cache_misses
        assert _derived() - before == len(calls)

    def test_relaunch_reads_the_same_record(self):
        A = power_law_graph(400, 6, seed=3)
        plan = LiteForm().compose(A, 32, force_cell=True)
        device = SimulatedDevice()
        first = plan.kernel.measure(plan.fmt, 32, device)
        before = _derived()
        # A fresh kernel instance with the same configuration shares the memo.
        again = CELLSpMM().measure(plan.fmt, 32, device)
        assert _derived() == before
        assert again.stats is first.stats
        assert again.breakdown is first.breakdown
        # A different configuration or width is a different record.
        unfused = CELLSpMM(fused=False).stats(plan.fmt, 32)
        wider = plan.kernel.stats(plan.fmt, 64)
        assert _derived() == before + 2
        assert unfused is not first.stats and wider is not first.stats


class TestCachedEqualsFresh:
    @pytest.mark.parametrize("J", [1, 32, 128])
    def test_every_field_matches_plan(self, J):
        A = power_law_graph(600, 8, seed=4)
        for force_cell in (True, False):
            plan = LiteForm().compose(A, J, force_cell=force_cell)
            cached = plan.kernel.stats(plan.fmt, J)
            fresh = plan.kernel.plan(plan.fmt, J)
            assert cached is not fresh
            for f in dataclasses.fields(KernelStats):
                assert np.array_equal(getattr(cached, f.name), getattr(fresh, f.name)), f.name
            assert cached == fresh

    def test_cached_breakdown_matches_estimate(self):
        A = power_law_graph(600, 8, seed=4)
        plan = LiteForm().compose(A, 32, force_cell=True)
        device = SimulatedDevice()
        stats = plan.kernel.stats(plan.fmt, 32)
        device.measure(stats)
        assert device.measure(stats).breakdown == device.timing.estimate(stats, device.spec)

    def test_record_is_immutable(self):
        A = power_law_graph(300, 6, seed=2)
        plan = LiteForm().compose(A, 32, force_cell=True)
        stats = plan.kernel.stats(plan.fmt, 32)
        with pytest.raises(dataclasses.FrozenInstanceError):
            stats.num_launches = 7
        with pytest.raises(ValueError):
            stats.block_costs[0] = 1.0
        assert plan.kernel.stats(plan.fmt, 32) == plan.kernel.plan(plan.fmt, 32)

    def test_construction_copies_block_costs(self):
        costs = np.ones(4)
        stats = KernelStats(block_costs=costs)
        costs[0] = 5.0  # the caller's array stays writable and unshared
        assert stats.block_costs[0] == 1.0


class TestSeededReplaysUnchanged:
    def _fault_replay(self, liteform):
        devices = [
            FaultyDevice(
                faults=FaultPolicy(
                    transient_oom_rate=0.15, latency_spike_rate=0.2, seed=7 + i
                )
            )
            for i in range(2)
        ]
        # Breakers never open: their cooldown runs on the wall clock.
        server = SpMMServer(
            liteform=liteform, cache=PlanCache(), devices=devices, breaker_threshold=10**6
        )
        responses = [server.serve(r) for r in _zipf_trace(seed=9, num_requests=50)]
        counts = [(d.launches, d.injected_ooms, d.injected_spikes) for d in devices]
        return [_outcome(r) for r in responses], counts

    def _drift_replay(self, liteform):
        device = FormatDriftDevice(slowdown=4.0, shift_after_launches=20)
        server = SpMMServer(liteform=liteform, cache=PlanCache(), devices=[device])
        responses = [server.serve(r) for r in _zipf_trace(seed=3, num_requests=50)]
        return [_outcome(r) for r in responses], (device.launches, device.drifted)

    def test_faulty_device_replay(self, liteform, request):
        cached = self._fault_replay(liteform)
        request.getfixturevalue("uncached")
        fresh = self._fault_replay(liteform)
        assert cached == fresh
        assert sum(ooms for _, ooms, _ in cached[1]) > 0
        assert sum(spikes for *_, spikes in cached[1]) > 0

    def test_format_drift_device_replay(self, liteform, request):
        cached = self._drift_replay(liteform)
        request.getfixturevalue("uncached")
        fresh = self._drift_replay(liteform)
        assert cached == fresh
        assert cached[1] == (50, True)


class TestRebuiltPlansRederive:
    def test_patch_rows_gets_fresh_stats(self):
        A = power_law_graph(800, 8, seed=6)
        plan = LiteForm().compose(A, 32, force_cell=True)
        old = plan.kernel.stats(plan.fmt, 32)
        A2 = A.tolil()
        A2[5, :200] = 1.0  # one row becomes long: its partition rebuilds
        patched = plan.patch_rows(A2.tocsr(), [5])
        assert patched.fmt is not plan.fmt
        new = patched.kernel.stats(patched.fmt, 32)
        assert new == patched.kernel.plan(patched.fmt, 32)
        assert new != old
        assert plan.kernel.stats(plan.fmt, 32) is old



class TestRevaluedPlansShareStats:
    def test_revalued_plan_shares_stats(self, liteform):
        server = SpMMServer(liteform=liteform, cache=PlanCache())
        A = power_law_graph(500, 6, seed=8)
        first = server.serve(OpRequest(matrix=A, B=None, J=32, reuse_structure=True))
        A2 = A.copy()
        A2.data = A2.data * 2.0
        before = _derived()
        second = server.serve(OpRequest(matrix=A2, B=None, J=32, reuse_structure=True))
        assert second.plan_reused and second.plan.fmt is not first.plan.fmt
        # Stats depend on the pattern only: the revalue derives none.
        assert _derived() == before
        assert second.measurement.stats is first.measurement.stats
        fresh = second.plan.kernel.plan(second.plan.fmt, 32)
        for f in dataclasses.fields(KernelStats):
            assert np.array_equal(
                getattr(second.measurement.stats, f.name), getattr(fresh, f.name)
            ), f.name
        assert second.measurement.stats == fresh


class TestPlanCacheBundle:
    def test_save_load_drops_memo_and_rederives_equal(self, liteform, tmp_path):
        server = SpMMServer(liteform=liteform, cache=PlanCache())
        responses = [server.serve(r) for r in _zipf_trace(seed=2, num_requests=20)]
        originals = {r.key: r.measurement.stats for r in responses}
        assert all("_stats_memo" in vars(r.plan.fmt) for r in responses)
        path = tmp_path / "plans.pkl"
        server.cache.save(path)
        loaded = PlanCache.load(path)
        keys = loaded.keys()
        assert sorted(keys) == sorted(originals)
        for key in keys:
            plan = loaded.get(key).plan
            assert "_stats_memo" not in vars(plan.fmt)
            J = SpMMServer._plan_J(key)
            before = _derived()
            assert plan.kernel.stats(plan.fmt, J) == originals[key]
            assert _derived() == before + 1


class TestSTileMerge:
    def test_planning_twice_leaves_sub_stats_untouched(self):
        A = power_law_graph(1200, 8, seed=12)
        prepared = STileBaseline(panel_rows=256, micro_samples=2).prepare(
            A, 32, SimulatedDevice()
        )
        kernel, fmt = prepared.kernel, prepared.fmt
        kinds = {p.kind for p in fmt.panels}
        assert kinds == {"ell", "csr"}, "fixture should mix panel kinds"
        subs = [
            (kernel._cell if p.kind == "ell" else kernel._csr, p.fmt) for p in fmt.panels
        ]
        first = kernel.plan(fmt, 32)
        cached_subs = [k.stats(f, 32) for k, f in subs]
        second = kernel.plan(fmt, 32)
        assert first == second
        assert first.num_launches == len(kinds) + (first.atomic_store_bytes > 0)
        for (k, f), cached in zip(subs, cached_subs):
            assert k.stats(f, 32) is cached
            assert cached == k.plan(f, 32)
