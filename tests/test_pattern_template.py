"""Pattern templates: a same-pattern matrix re-valued by one gather.

:class:`repro.formats.base.PatternTemplate` keeps a built format's index
arrays, its stats memo and a gather index; :meth:`PatternTemplate.revalue`
puts new values into that structure.  These tests pin that a re-valued
format is bit-identical to a from-scratch build of the same geometry, that
the server accepts a template only for a byte-equal pattern (a sampled
digest collision included), and that templates outlive the cached plan
they came from.
"""

import functools
import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import repro.serve.server as server_module
from repro.core import LiteForm, generate_training_data
from repro.formats import BCSRFormat, CELLFormat, CSRFormat
from repro.formats.base import PatternTemplate, as_csr
from repro.kernels import CELLSpMM, spmm_reference
from repro.matrices import SuiteSparseLikeCollection, power_law_graph
from repro.serve import OpRequest, PlanCache, SpMMServer, fingerprint_csr


def _bits(a) -> np.ndarray:
    a = np.asarray(a)
    return a.view(np.uint32) if a.dtype == np.float32 else a


def _same_values(A: sp.csr_matrix, values: np.ndarray) -> sp.csr_matrix:
    """``A``'s pattern (explicit zeros kept) holding ``values``."""
    return sp.csr_matrix((values, A.indices.copy(), A.indptr.copy()), shape=A.shape)


def _assert_cell_identical(got: CELLFormat, ref: CELLFormat) -> None:
    assert got.shape == ref.shape and got.nnz == ref.nnz
    assert len(got.partitions) == len(ref.partitions)
    for p, q in zip(got.partitions, ref.partitions):
        assert (p.index, p.col_start, p.col_end) == (q.index, q.col_start, q.col_end)
        assert len(p.buckets) == len(q.buckets)
        for b, c in zip(p.buckets, q.buckets):
            assert (b.width, b.has_folds, b.block_rows) == (c.width, c.has_folds, c.block_rows)
            assert np.array_equal(b.row_ind, c.row_ind)
            assert np.array_equal(b.col, c.col)
            assert b.val.dtype == c.val.dtype
            assert np.array_equal(_bits(b.val), _bits(c.val))
    for mine, theirs in zip(got.operator, ref.operator):
        assert mine.shape == theirs.shape
        assert np.array_equal(mine.indptr, theirs.indptr)
        assert np.array_equal(mine.indices, theirs.indices)
        assert np.array_equal(_bits(mine.data), _bits(theirs.data))


@st.composite
def cell_cases(draw):
    """A canonical CSR pattern with explicit zeros, two value sets, and a
    CELL geometry: 1-4 partitions (trailing ones often empty) and width
    caps small enough to fold rows."""
    rows = draw(st.integers(1, 30))
    cols = draw(st.integers(1, 40))
    P = draw(st.integers(1, min(4, cols)))
    # Keep the columns left of `span` so later partitions can be empty.
    span = draw(st.integers(1, cols))
    nnz = draw(st.integers(0, rows * span))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    r = rng.integers(0, rows, size=nnz)
    c = rng.integers(0, span, size=nnz)
    A = as_csr(sp.csr_matrix((np.ones(nnz, np.float32), (r, c)), shape=(rows, cols)))

    def values():
        v = rng.standard_normal(A.nnz).astype(np.float32)
        v[rng.random(A.nnz) < 0.2] = 0.0  # explicit zeros stay stored
        return v

    caps = draw(st.lists(st.sampled_from([None, 1, 2, 4]), min_size=P, max_size=P))
    block_multiple = draw(st.sampled_from([1, 2, 4]))
    geometry = dict(num_partitions=P, max_widths=caps, block_multiple=block_multiple)
    return _same_values(A, values()), _same_values(A, values()), geometry


@settings(max_examples=60, deadline=None)
@given(case=cell_cases())
def test_cell_revalue_bit_identical_to_from_csr(case):
    A, A2, geometry = case
    template = PatternTemplate(CELLFormat.from_csr(A, **geometry), A)
    got = template.revalue(A2)
    ref = CELLFormat.from_csr(A2, **geometry)
    _assert_cell_identical(got, ref)
    B = np.random.default_rng(0).standard_normal((A.shape[1], 3)).astype(np.float32)
    assert np.array_equal(_bits(CELLSpMM().execute(got, B)), _bits(CELLSpMM().execute(ref, B)))


@pytest.mark.parametrize(
    "cls, kwargs", [(CSRFormat, {}), (BCSRFormat, {"block_shape": (4, 4)})]
)
def test_fixed_format_revalue_matches_from_csr(cls, kwargs):
    A = power_law_graph(300, 6, seed=2)
    A2 = _same_values(A, np.linspace(-1.0, 1.0, A.nnz, dtype=np.float32))
    fmt = cls.from_csr(A, **kwargs)
    template = PatternTemplate(fmt, A)
    assert (template.perm is None) == (cls is CSRFormat)
    got = template.revalue(A2)
    assert got._stats_memo is fmt._stats_memo
    assert (got.to_csr() != cls.from_csr(A2, **kwargs).to_csr()).nnz == 0


def test_revalue_rejects_another_pattern():
    A = power_law_graph(200, 5, seed=3)
    template = PatternTemplate(CELLFormat.from_csr(A, num_partitions=2), A)
    other = power_law_graph(200, 5, seed=4)
    assert not template.matches(other)
    with pytest.raises(ValueError):
        template.revalue(other)
    with pytest.raises(ValueError):
        PatternTemplate(CELLFormat.from_csr(A, num_partitions=2), other)


# -- the server's re-value path -----------------------------------------
@pytest.fixture(scope="module")
def liteform():
    coll = SuiteSparseLikeCollection(size=6, max_rows=2000, seed=11)
    return LiteForm().fit(generate_training_data(coll, J_values=(32,)))


def _serve(server, A, seed=0):
    B = np.random.default_rng(seed).standard_normal((A.shape[1], 8)).astype(np.float32)
    response = server.serve(OpRequest(matrix=A, B=B, J=8, reuse_structure=True))
    assert response.ok
    assert np.allclose(response.C, spmm_reference(A, B), atol=1e-4)
    return response


def _moved_entry(A: sp.csr_matrix, position: int) -> sp.csr_matrix:
    """``A`` with the entry at ``indices[position]`` moved one column to
    the right: same shape, nnz, ``indptr`` and values."""
    indices = A.indices.copy()
    indices[position] += 1
    moved = sp.csr_matrix((A.data.copy(), indices, A.indptr.copy()), shape=A.shape)
    assert moved.has_canonical_format
    return moved


def _movable(A: sp.csr_matrix, avoid=()) -> int:
    """A position whose entry can move one column right within its row."""
    row_end = np.repeat(A.indptr[1:], np.diff(A.indptr))
    for k in range(A.nnz):
        last = k + 1 == row_end[k]
        room = A.indices[k] + 1 < A.shape[1] if last else A.indices[k] + 1 < A.indices[k + 1]
        if room and k not in avoid:
            return k
    raise AssertionError("no movable entry")


class TestServerTemplates:
    def test_equal_shape_and_nnz_other_pattern_composes(self, liteform):
        server = SpMMServer(liteform=liteform, cache=PlanCache())
        A = power_law_graph(400, 6, seed=5)
        _serve(server, A)
        other = _moved_entry(A, _movable(A))
        assert other.shape == A.shape and other.nnz == A.nnz
        response = _serve(server, other)
        assert not response.plan_reused
        assert server.metrics.plan_reuses == 0

    def test_sampled_digest_collision_is_rejected(self, liteform, monkeypatch):
        # A 64-byte budget hashes one element per sampled chunk, so an
        # entry moved between sampled positions keeps the pattern digest.
        budget = 64
        monkeypatch.setattr(
            server_module,
            "fingerprint_csr",
            functools.partial(fingerprint_csr, sample_budget_bytes=budget),
        )
        server = SpMMServer(liteform=liteform, cache=PlanCache())
        A = power_law_graph(400, 6, seed=5)
        sampled = set(np.linspace(0, A.nnz - 1, 16).astype(np.int64).tolist())
        other = _moved_entry(A, _movable(A, avoid=sampled))
        other.data[0] *= 2.0  # sampled: a different value key, so a miss
        fp_a = fingerprint_csr(A, sample_budget_bytes=budget, with_pattern=True)
        fp_o = fingerprint_csr(other, sample_budget_bytes=budget, with_pattern=True)
        assert fp_a.pattern_digest == fp_o.pattern_digest
        assert fp_a.key != fp_o.key
        _serve(server, A)
        response = _serve(server, other)
        assert not response.plan_reused and not response.cache_hit

    def test_one_fingerprint_per_request(self, liteform, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs)
            return fingerprint_csr(*args, **kwargs)

        monkeypatch.setattr(server_module, "fingerprint_csr", counting)
        server = SpMMServer(liteform=liteform, cache=PlanCache())
        A = power_law_graph(400, 6, seed=5)
        _serve(server, A)  # full compose: records the template
        response = _serve(server, _same_values(A, (A.data * 3.0).astype(np.float32)))
        assert response.plan_reused
        assert len(calls) == 2
        assert all(c.get("include_values", True) for c in calls)

    def test_revalue_after_original_plan_evicted(self, liteform):
        server = SpMMServer(liteform=liteform, cache=PlanCache())
        A = power_law_graph(400, 6, seed=5)
        first = _serve(server, A)
        composed = weakref.ref(first.plan.fmt)
        assert server.cache.pop(first.key) is not None
        del first
        gc.collect()
        # The template keeps no reference to the composed format.
        assert composed() is None
        A2 = _same_values(A, (A.data * 3.0).astype(np.float32))
        response = _serve(server, A2, seed=1)
        assert response.plan_reused and not response.cache_hit
