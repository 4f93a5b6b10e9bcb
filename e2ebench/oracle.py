"""Output oracle: every response is checked against an independent reference.

* SpMM and SpMV results against ``spmm_reference`` and SDDMM results
  against ``sddmm_reference``, with ``max|C - ref| <= OP_RTOL * (1 + max|ref|)``.
  The composed kernels sum in another order than SciPy, so results are
  close, not always bit-identical.
* A GNN epoch's final output against a plain NumPy forward pass of the same
  stages in float64, with ``GNN_RTOL`` in the same form.  Every device
  stage of the epoch is also checked on its own, as above.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.kernels import spmm_reference
from repro.kernels.sddmm import sddmm_reference

#: Tolerance of one op against its reference (float32 sums in any order).
OP_RTOL = 1e-4
#: Tolerance of a whole GNN epoch against the float64 NumPy forward pass.
GNN_RTOL = 1e-3


def close(C, ref, rtol: float) -> bool:
    """``max|C - ref| <= rtol * (1 + max|ref|)``, shapes equal, all finite."""
    if C is None:
        return False
    if sp.issparse(C) or sp.issparse(ref):
        if not (sp.issparse(C) and sp.issparse(ref)) or C.shape != ref.shape:
            return False
        err = abs(C - ref).max() if C.nnz or ref.nnz else 0.0
        scale = abs(ref).max() if ref.nnz else 0.0
        return bool(np.isfinite(C.data).all()) and err <= rtol * (1.0 + scale)
    C = np.asarray(C)
    ref = np.asarray(ref)
    if C.shape != ref.shape or not np.isfinite(C).all():
        return False
    err = float(np.max(np.abs(C - ref), initial=0.0))
    return err <= rtol * (1.0 + float(np.max(np.abs(ref), initial=0.0)))


def op_reference(op: str, A: sp.csr_matrix, operand):
    """Reference result of one op; ``operand`` is ``B`` or the SDDMM ``(U, V)``."""
    if op == "sddmm":
        U, V = operand
        return sddmm_reference(A, U, V)
    B = np.asarray(operand)
    if op == "spmv":
        B = B.reshape(A.shape[1], -1)
    return spmm_reference(A, B)


def _resolve(ref, outputs: dict):
    return outputs[ref[1:]] if isinstance(ref, str) else ref


def _rows(A: sp.csr_matrix) -> np.ndarray:
    return np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))


def numpy_forward(stages) -> object:
    """Final output of a graph request's stages, computed in float64."""
    out: dict = {}
    for st in stages:
        if st.op in ("spmm", "spmv", "sddmm"):
            A = sp.csr_matrix(_resolve(st.matrix, out), dtype=np.float64)
        if st.op == "sddmm":
            U = np.asarray(_resolve(st.inputs[0], out), dtype=np.float64)
            V = np.asarray(_resolve(st.inputs[1], out), dtype=np.float64)
            S = A.copy()
            S.data = A.data * np.einsum("ij,ij->i", U[_rows(A)], V[A.indices])
            out[st.name] = S
        elif st.op in ("spmm", "spmv"):
            x = np.asarray(_resolve(st.inputs[0], out), dtype=np.float64)
            if st.op == "spmv":
                x = x.reshape(-1, 1)
            out[st.name] = A @ x
        elif st.op == "normalize":
            S = sp.csr_matrix(_resolve(st.inputs[0], out), dtype=np.float64)
            rows = _rows(S)
            data = S.data
            if st.kind == "softmax":
                peak = np.full(S.shape[0], -np.inf)
                np.maximum.at(peak, rows, data)
                data = np.exp(data - peak[rows])
            sums = np.bincount(rows, weights=data, minlength=S.shape[0])
            sums[sums == 0.0] = 1.0
            S = S.copy()
            S.data = data / sums[rows]
            out[st.name] = S
        elif st.op == "dense":
            H = np.asarray(_resolve(st.inputs[0], out), dtype=np.float64)
            H = H @ np.asarray(st.weight, dtype=np.float64)
            out[st.name] = np.maximum(H, 0.0) if st.activation == "relu" else H
        else:
            raise ValueError(f"unknown stage op {st.op!r}")
    return out[stages[-1].name]


def check_graph(graph, response) -> list[str]:
    """Problems found in one served graph request (empty when correct)."""
    problems = []
    outputs = response.outputs
    for st in graph.stages:
        if st.op not in ("spmm", "spmv", "sddmm"):
            continue
        A = _resolve(st.matrix, outputs)
        if st.op == "sddmm":
            operand = (_resolve(st.inputs[0], outputs), _resolve(st.inputs[1], outputs))
        else:
            operand = _resolve(st.inputs[0], outputs)
        C = outputs.get(st.name)
        if C is not None and st.op == "spmv":
            C = np.asarray(C).reshape(-1, 1)
        if not close(C, op_reference(st.op, sp.csr_matrix(A), operand), OP_RTOL):
            problems.append(f"stage {st.name} ({st.op}) differs from its reference")
    final = np.asarray(response.output)
    if not close(final, numpy_forward(graph.stages), GNN_RTOL):
        problems.append("epoch output differs from the NumPy forward pass")
    return problems
