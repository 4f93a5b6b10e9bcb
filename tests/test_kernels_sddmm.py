"""Tests for the SDDMM kernels (Section 10 kernel-extension)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.bench.reference import reference_cell_sddmm
from repro.formats import CELLFormat, CSRFormat
from repro.kernels.sddmm import CELLSDDMM, CSRSDDMM, sddmm_reference
from repro.matrices import power_law_graph


@pytest.fixture(scope="module")
def operands():
    rng = np.random.default_rng(0)

    def make(I, Jc, K=16):
        return (
            rng.standard_normal((I, K)).astype(np.float32),
            rng.standard_normal((Jc, K)).astype(np.float32),
        )

    return make


def _dense_check(A, U, V, out):
    expected = A.toarray() * (U @ V.T)
    np.testing.assert_allclose(out.toarray(), expected, rtol=1e-3, atol=1e-3)


class TestReference:
    def test_matches_dense(self, matrix_suite, operands):
        for name, A in matrix_suite.items():
            U, V = operands(*A.shape)
            _dense_check(A, U, V, sddmm_reference(A, U, V))

    def test_preserves_pattern(self, matrix_suite, operands):
        A = matrix_suite["power_law"]
        U, V = operands(*A.shape)
        out = sddmm_reference(A, U, V)
        assert (out != 0).nnz <= A.nnz
        assert out.shape == A.shape

    def test_operand_validation(self, matrix_suite, operands):
        A = matrix_suite["tiny"]
        U, V = operands(*A.shape)
        with pytest.raises(ValueError):
            sddmm_reference(A, U[:-1], V)
        with pytest.raises(ValueError):
            sddmm_reference(A, U, V[:-1])
        with pytest.raises(ValueError):
            sddmm_reference(A, U[:, :3], V)


class TestKernels:
    @pytest.mark.parametrize("P,W", [(1, None), (2, None), (1, 4), (3, 8)])
    def test_cell_sddmm_correct(self, matrix_suite, operands, P, W):
        for name, A in matrix_suite.items():
            if P > A.shape[1]:
                continue
            U, V = operands(*A.shape)
            fmt = CELLFormat.from_csr(A, num_partitions=P, max_widths=W)
            out = CELLSDDMM().execute(fmt, (U, V))
            _dense_check(A, U, V, out)

    @pytest.mark.parametrize("P,W", [(1, None), (2, None), (1, 2), (3, 4)])
    def test_cell_sddmm_bits_match_per_bucket_reference(self, matrix_suite, operands, P, W):
        cases = dict(matrix_suite, zero=sp.csr_matrix((9, 7), dtype=np.float32))
        for name, A in cases.items():
            if P > A.shape[1]:
                continue
            U, V = operands(*A.shape)
            fmt = CELLFormat.from_csr(A, num_partitions=P, max_widths=W)
            out = CELLSDDMM().execute(fmt, (U, V))
            ref = reference_cell_sddmm(fmt, U, V)
            assert out.shape == ref.shape, name
            for field in ("indptr", "indices", "data"):
                got, want = getattr(out, field), getattr(ref, field)
                assert got.dtype == want.dtype, (name, field)
                assert got.tobytes() == want.tobytes(), (name, field)

    def test_csr_sddmm_correct(self, matrix_suite, operands):
        for A in matrix_suite.values():
            U, V = operands(*A.shape)
            out = CSRSDDMM().execute(CSRFormat.from_csr(A), (U, V))
            _dense_check(A, U, V, out)

    def test_plan_stats_sane(self, matrix_suite, device):
        A = matrix_suite["power_law"]
        for kernel, fmt in [
            (CSRSDDMM(), CSRFormat.from_csr(A)),
            (CELLSDDMM(), CELLFormat.from_csr(A)),
        ]:
            st = kernel.plan(fmt, 32)
            assert st.flops >= 2.0 * A.nnz * 32
            assert st.total_load_bytes > 0
            m = device.measure(st)
            assert m.time_s > 0

    def test_wrong_format_rejected(self, matrix_suite):
        A = matrix_suite["tiny"]
        with pytest.raises(TypeError):
            CELLSDDMM().plan(CSRFormat.from_csr(A), 8)
        with pytest.raises(TypeError):
            CSRSDDMM().plan(CELLFormat.from_csr(A), 8)

    def test_cell_regularity_vs_csr_timing(self, device, operands):
        """On a skewed graph the CELL SDDMM's uniform blocks avoid the CSR
        straggler tail — same mechanism as SpMM."""
        A = power_law_graph(6000, 10, seed=4)
        U, V = operands(*A.shape, K=64)
        t_csr = device.measure(CSRSDDMM().plan(CSRFormat.from_csr(A), 64)).time_s
        fmt = CELLFormat.from_csr(A, num_partitions=1, max_widths=32)
        t_cell = device.measure(CELLSDDMM().plan(fmt, 64)).time_s
        assert t_cell < t_csr * 1.5  # competitive or better
