"""Seeded replays of every workload repeat exactly; another seed changes the inputs.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest e2ebench/tests -q``.
Small sizes, so the whole module takes well under a minute.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
import worker  # noqa: E402
from ledger import Ledger  # noqa: E402
from workloads import (  # noqa: E402
    ClusterBatched,
    ComposeCold,
    GNNEpochs,
    ZipfHot,
    train_liteform,
    zipf_quota,
)

#: Units served per replay: small, but enough to hit, miss and batch.
UNITS = {ZipfHot: 30, ComposeCold: 4, GNNEpochs: 4, ClusterBatched: 4}


@pytest.fixture(scope="module")
def liteform():
    return train_liteform()


def session(cls, seed, liteform, tmp_path):
    if cls is ClusterBatched:
        return cls(seed, liteform, spill_dir=tmp_path / f"spill-{seed}")
    return cls(seed, liteform)


def replay(cls, seed, liteform, tmp_path) -> dict:
    """Exact figures of a small traced replay: modeled ms, statuses, counts."""
    s = session(cls, seed, liteform, tmp_path)
    ledger = Ledger()
    outcomes = []
    with layers.instrument(ledger):
        for i in range(UNITS[cls]):
            _, outs = worker.serve_unit(s, i, ledger)
            outcomes.extend(outs)
    calls: dict[str, int] = {}
    for span in ledger.spans:
        calls[span[0]] = calls.get(span[0], 0) + 1
    return {
        "modeled_device_ms_per_req": sum(o.modeled_ms for o in outcomes) / len(outcomes),
        "statuses": [o.status.value for o in outcomes],
        "correct": [o.correct for o in outcomes],
        "keys": [o.key for o in outcomes],
        "calls": calls,
        "counts": dict(ledger.counts),
        "program": worker.counters(s),
    }


@pytest.mark.parametrize("cls", list(UNITS), ids=lambda c: c.name)
def test_same_seed_repeats_exactly(cls, liteform, tmp_path):
    first = replay(cls, 7, liteform, tmp_path)
    second = replay(cls, 7, liteform, tmp_path)
    assert first == second
    assert all(first["correct"])
    assert set(first["statuses"]) == {"ok"}


@pytest.mark.parametrize("cls", list(UNITS), ids=lambda c: c.name)
def test_other_seed_changes_inputs(cls, liteform, tmp_path):
    a = session(cls, 7, liteform, tmp_path)
    b = session(cls, 8, liteform, tmp_path)
    ua, ub = a.prepare(0), b.prepare(0)
    if cls is GNNEpochs:
        wa, wb = ua.stages[3].weight, ub.stages[3].weight
        assert not np.array_equal(wa, wb)
        return
    ra = ua[0] if isinstance(ua, list) else ua
    rb = ub[0] if isinstance(ub, list) else ub
    same_matrix = ra.matrix.shape == rb.matrix.shape and (ra.matrix != rb.matrix).nnz == 0
    same_operand = ra.B.shape == rb.B.shape and np.array_equal(ra.B, rb.B)
    assert not (same_matrix and same_operand)


def test_compose_cold_never_repeats_a_pattern(liteform, tmp_path):
    s = session(ComposeCold, 7, liteform, tmp_path)
    for i in range(8):
        s.serve(s.prepare(i))
    assert s.server.metrics.cache_hits == 0
    assert s.server.metrics.cache_misses == 8


def test_zipf_quota_matches_block_size():
    counts = zipf_quota(8, 1.1, 100)
    assert counts.sum() == 100
    assert list(counts) == sorted(counts, reverse=True)
