"""Each format's numeric operator is built on the first execute and read by
every later launch: no SciPy sparse matrix is constructed per call, and a
spilled plan does not carry the operator."""

from functools import partial

import numpy as np
import pytest
from scipy.sparse import _bsr, _compressed

from repro.core import LiteForm
from repro.formats import BCSRFormat, CELLFormat, CSRFormat
from repro.kernels.bcsr_spmm import BCSRSpMM
from repro.kernels.cell_spmm import CELLSpMM
from repro.kernels.csr_spmm import DgSparseSpMM, RowSplitCSRSpMM, SputnikSpMM
from repro.kernels.sddmm import CELLSDDMM, CSRSDDMM
from repro.kernels.spmv import MergeCSRSpMV, ScalarCSRSpMV, VectorCSRSpMV
from repro.kernels.taco_spmm import TacoSpMM
from repro.matrices import power_law_graph
from repro.serve import PlanCache, fingerprint_csr, plan_key

# 601 columns: not a multiple of the 8-wide BCSR tile, so the padded path runs.
A = power_law_graph(601, 8, seed=3)

_rng = np.random.default_rng(0)
B = _rng.standard_normal((A.shape[1], 32)).astype(np.float32)
x = _rng.standard_normal(A.shape[1]).astype(np.float32)
UV = (
    _rng.standard_normal((A.shape[0], 16)).astype(np.float32),
    _rng.standard_normal((A.shape[1], 16)).astype(np.float32),
)
# Two partitions and a small cap: atomic buckets with folded rows.
cell = partial(CELLFormat.from_csr, A, num_partitions=2, max_widths=4)
csr = partial(CSRFormat.from_csr, A)

#: name -> (kernel, format factory, operand)
CASES = {
    "cell-spmm": (CELLSpMM(), cell, B),
    "cusparse": (RowSplitCSRSpMM(), csr, B),
    "sputnik": (SputnikSpMM(), csr, B),
    "dgsparse": (DgSparseSpMM(), csr, B),
    "taco": (TacoSpMM(), csr, B),
    "spmv-scalar": (ScalarCSRSpMV(), csr, x),
    "spmv-vector": (VectorCSRSpMV(), csr, x),
    "spmv-merge": (MergeCSRSpMV(), csr, x),
    "sddmm-csr": (CSRSDDMM(), csr, UV),
    "sddmm-cell": (CELLSDDMM(), cell, UV),
    "triton": (BCSRSpMM(), partial(BCSRFormat.from_csr, A), B),
}


@pytest.fixture
def constructions(monkeypatch):
    """Every compressed (CSR/CSC) and BSR matrix constructed, in order."""
    built = []
    for cls in (_compressed._cs_matrix, _bsr._bsr_base):

        def counting(self, *args, _init=cls.__init__, **kwargs):
            built.append(self)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_sparse_construction_after_first_execute(name, constructions):
    kernel, make_fmt, operand = CASES[name]
    fmt = make_fmt()
    first = kernel.execute(fmt, operand)
    operator = fmt.operator
    for _ in range(10):
        constructions.clear()
        out = kernel.execute(fmt, operand)
        # The product reads the cached operator; only a sparse result
        # (SDDMM's output matrix) may be built per call.
        assert [m for m in constructions if m is not out] == []
        assert fmt.operator is operator
    if isinstance(first, np.ndarray):
        assert np.array_equal(out, first)
    else:
        assert (out != first).nnz == 0


def test_spilled_cell_plan_drops_operator(tmp_path):
    plan = LiteForm().compose(A, 32, force_cell=True)
    assert isinstance(plan.fmt, CELLFormat)
    cache = PlanCache()
    key = plan_key(fingerprint_csr(A), 32)
    cache.put(key, plan)
    before, after = tmp_path / "before.pkl", tmp_path / "after.pkl"
    cache.save(before)
    C = plan.kernel.execute(plan.fmt, B)
    assert "operator" in vars(plan.fmt)
    cache.save(after)
    assert after.stat().st_size <= before.stat().st_size
    reloaded = PlanCache.load(after).get(key).plan
    assert "operator" not in vars(reloaded.fmt)
    again = reloaded.kernel.execute(reloaded.fmt, B)
    assert np.array_equal(again.view(np.uint32), C.view(np.uint32))
