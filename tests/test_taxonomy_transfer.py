"""Tests for the Table 1 taxonomy and the transfer-learning utility."""

import copy
import pickle

import pytest

from repro.baselines.taxonomy import TABLE1, liteform_row
from repro.core import LiteForm, generate_training_data
from repro.core.transfer import (
    refit_format_selector,
    transfer_fit,
    transfer_training_data,
)
from repro.gpu import SimulatedDevice
from repro.gpu.device import V100
from repro.matrices import SuiteSparseLikeCollection


class TestTable1:
    def test_thirteen_rows(self):
        assert len(TABLE1) == 13

    def test_liteform_positioning(self):
        """The paper's claim: LiteForm is the only system with all three
        properties — automatic, pattern-aware, low overhead."""
        lf = liteform_row()
        assert lf.automatic_selection and lf.sparsity_pattern_aware
        assert lf.construction_overhead == "low"
        others = [
            r
            for r in TABLE1
            if r.system != "LiteForm"
            and r.automatic_selection
            and r.sparsity_pattern_aware
            and r.construction_overhead == "low"
        ]
        assert not others

    def test_fixed_format_rows(self):
        fixed = [r for r in TABLE1 if r.category == "fixed"]
        assert {r.system for r in fixed} == {"cuSPARSE", "Triton", "TACO", "Sputnik", "dgSPARSE"}
        assert all(not r.automatic_selection for r in fixed)

    def test_composable_rows_high_overhead_except_liteform(self):
        for r in TABLE1:
            if r.category == "composable" and r.system != "LiteForm":
                assert r.construction_overhead == "high"

    def test_evaluated_systems_are_reimplemented(self):
        evaluated = {"cuSPARSE", "Triton", "TACO", "Sputnik", "dgSPARSE", "SparseTIR", "STile", "LiteForm"}
        for r in TABLE1:
            assert r.reimplemented == (r.system in evaluated)


class TestTransfer:
    @pytest.fixture(scope="class")
    def source_data(self):
        coll = SuiteSparseLikeCollection(size=10, max_rows=3000, seed=61)
        return generate_training_data(coll, J_values=(32,))

    @pytest.fixture(scope="class")
    def target_data(self):
        """'Measurements' from a different device (half the bandwidth)."""
        coll = SuiteSparseLikeCollection(size=3, max_rows=3000, seed=62)
        slow = SimulatedDevice(spec=V100.with_overrides(mem_bandwidth_gbs=450.0))
        return generate_training_data(coll, device=slow, J_values=(32,))

    def test_weighting(self, source_data, target_data):
        combined = transfer_training_data(source_data, target_data, target_weight=3)
        assert len(combined.format_samples) == len(source_data.format_samples) + 3 * len(
            target_data.format_samples
        )

    def test_transfer_fit_produces_usable_model(self, source_data, target_data):
        from repro.matrices import power_law_graph

        lf = transfer_fit(LiteForm(), source_data, target_data, target_weight=2)
        plan = lf.compose(power_law_graph(500, 6, seed=1), 32)
        assert plan.overhead.total_s > 0

    def test_invalid_weight(self, source_data, target_data):
        with pytest.raises(ValueError):
            transfer_training_data(source_data, target_data, target_weight=0)

    def test_empty_target_rejected(self, source_data):
        from repro.core.training import TrainingData

        with pytest.raises(ValueError):
            transfer_fit(LiteForm(), source_data, TrainingData())

    def test_sources_not_mutated(self, source_data, target_data):
        n_before = len(source_data.format_samples)
        transfer_training_data(source_data, target_data, target_weight=2)
        assert len(source_data.format_samples) == n_before

    def test_refit_swaps_in_a_fitted_copy(self, source_data, target_data):
        """The selector other threads may be predicting with is never
        mutated; the swapped-in copy equals an in-place fit."""
        lf = LiteForm().fit(source_data)
        old = lf.selector
        before = pickle.dumps(old)
        twin = copy.deepcopy(old)
        refit_format_selector(lf, target_data, source=source_data, target_weight=2)
        assert lf.selector is not old
        assert pickle.dumps(old) == before
        combined = transfer_training_data(source_data, target_data, target_weight=2)
        twin.fit(combined.format_X, combined.format_y)
        assert pickle.dumps(lf.selector) == pickle.dumps(twin)
