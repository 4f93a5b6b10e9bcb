"""Shared machinery for sparse formats."""

from __future__ import annotations

import abc
from functools import cached_property

import numpy as np
import scipy.sparse as sp

#: Index dtype used by all formats (CUDA kernels use 32-bit indices).
INDEX_DTYPE = np.int32
#: Value dtype used by all formats.
VALUE_DTYPE = np.float32


def ceil_pow2(n: int | np.ndarray) -> int | np.ndarray:
    """Smallest power of two >= ``n`` (n >= 1). Vectorized over arrays."""
    if np.isscalar(n):
        if n < 1:
            raise ValueError(f"ceil_pow2 requires n >= 1, got {n}")
        return 1 << max(0, int(np.ceil(np.log2(n))))
    arr = np.asarray(n)
    if arr.size and arr.min() < 1:
        raise ValueError("ceil_pow2 requires all entries >= 1")
    return (1 << np.ceil(np.log2(arr)).astype(np.int64)).astype(arr.dtype)


def ceil_pow2_exponent(n: int | np.ndarray) -> int | np.ndarray:
    """Exponent ``i`` such that ``2**i`` is the smallest power of two >= n.

    This is the bucket index of the CELL format: a row of length ``l`` lands
    in bucket ``i`` with ``2**(i-1) < l <= 2**i`` (Section 4).
    """
    if np.isscalar(n):
        if n < 1:
            raise ValueError(f"requires n >= 1, got {n}")
        return max(0, int(np.ceil(np.log2(int(n)))))
    arr = np.asarray(n, dtype=np.int64)
    if arr.size and arr.min() < 1:
        raise ValueError("requires all entries >= 1")
    return np.maximum(0, np.ceil(np.log2(arr)).astype(np.int64))


def padding_ratio(stored: int, nnz: int) -> float:
    """Fraction of stored value slots that are zero padding."""
    if stored <= 0:
        return 0.0
    return 1.0 - nnz / stored


def as_csr(matrix: sp.spmatrix | np.ndarray) -> sp.csr_matrix:
    """Canonicalize any input to a deduplicated, sorted float32 CSR matrix."""
    A = sp.csr_matrix(matrix, dtype=VALUE_DTYPE)
    A.sum_duplicates()
    A.sort_indices()
    # Drop explicit zeros so "non-zero count" is meaningful for formats.
    A.eliminate_zeros()
    return A


class SparseFormat(abc.ABC):
    """Abstract base class for all sparse storage formats.

    Subclasses convert from CSR on construction (``from_csr``) and expose:

    * :attr:`shape`, :attr:`nnz` — logical matrix identity;
    * :meth:`to_csr` — lossless round-trip used by tests;
    * :attr:`footprint_bytes` — device bytes occupied by the format arrays;
    * :attr:`stored_elements` — value slots including zero padding;
    * :attr:`padding_ratio` — 1 - nnz / stored_elements.

    A built format is never mutated: code that changes a matrix builds a
    new format.  That is what lets kernels cache launch statistics
    (:meth:`repro.kernels.base.SpMMKernel.stats`) and the numeric
    :attr:`operator` on the instance.
    """

    shape: tuple[int, int]
    nnz: int

    @cached_property
    def _stats_memo(self) -> dict:
        """``(kernel config, J) -> KernelStats`` cache of this instance."""
        return {}

    @cached_property
    def operator(self):
        """The SciPy operator(s) the numeric kernels multiply with.

        Built on the first ``execute`` and read by every later launch, so
        a cached plan never rebuilds a SciPy matrix per call.  Kernels
        only read it; :meth:`to_csr` still returns a fresh matrix.
        """
        return self._build_operator()

    def _build_operator(self):
        """Build :attr:`operator`: the canonical CSR matrix by default."""
        return self.to_csr()

    def __getstate__(self) -> dict:
        # Cached stats and the operator are derived data: a pickled format
        # (a saved plan cache) rebuilds them on first use.
        state = self.__dict__.copy()
        state.pop("_stats_memo", None)
        state.pop("operator", None)
        return state

    # -- pattern templates (see PatternTemplate) ------------------------
    def _value_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """Matrix ``(row, col)`` of every stored value slot, flattened in
        storage order.  A slot whose position is not in the pattern (or
        whose column is outside ``[0, cols)``, like CELL's ``PAD``) is a
        pad."""
        raise NotImplementedError(f"{type(self).__name__} has no pattern template")

    def _structure(self) -> tuple:
        """Every array and scalar of the format except its values."""
        raise NotImplementedError(f"{type(self).__name__} has no pattern template")

    @classmethod
    def _from_structure(cls, structure: tuple, values: np.ndarray) -> "SparseFormat":
        """The format of ``structure`` holding ``values`` (flat, storage
        order, pads zero).  Index arrays are shared, not copied."""
        raise NotImplementedError(f"{cls.__name__} has no pattern template")

    @classmethod
    @abc.abstractmethod
    def from_csr(cls, A: sp.csr_matrix, **kwargs) -> "SparseFormat":
        """Build the format from a canonical CSR matrix."""

    @classmethod
    def from_matrix(cls, matrix: sp.spmatrix | np.ndarray, **kwargs) -> "SparseFormat":
        """Build the format from any SciPy sparse matrix or dense array."""
        return cls.from_csr(as_csr(matrix), **kwargs)

    @abc.abstractmethod
    def to_csr(self) -> sp.csr_matrix:
        """Reconstruct the logical matrix (used to verify losslessness)."""

    @property
    @abc.abstractmethod
    def footprint_bytes(self) -> int:
        """Device memory occupied by the format's arrays."""

    @property
    @abc.abstractmethod
    def stored_elements(self) -> int:
        """Number of value slots stored, including zero padding."""

    @property
    def padding_ratio(self) -> float:
        return padding_ratio(self.stored_elements, self.nnz)

    @property
    def density(self) -> float:
        rows, cols = self.shape
        denom = rows * cols
        return self.nnz / denom if denom else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(shape={self.shape}, nnz={self.nnz}, "
            f"padding={self.padding_ratio:.2%})"
        )


class PatternTemplate:
    """A built format's structure, kept to re-value matrices of one pattern.

    Launch statistics and every index array of a format depend on the
    sparsity pattern only, so a matrix with the same ``indptr``/``indices``
    and new values needs neither a rebuild nor new statistics.  The
    template holds the pattern it was built from, the format's index
    arrays (never a value array), the format's stats memo, and a gather
    index ``perm``: the format's values are ``A.data[perm]``, with pad
    slots (``perm == nnz``) set to zero.  ``perm`` is None where it is the
    identity (CSR).

    ``A`` is the canonical CSR matrix ``fmt`` was built from.
    :meth:`revalue` builds a new format that shares the index arrays and
    the stats memo, so its kernels hit the memo at once.  It accepts only
    a matrix whose pattern equals the template's byte for byte.
    """

    def __init__(self, fmt: SparseFormat, A: sp.csr_matrix):
        if not A.has_canonical_format:
            raise ValueError("a pattern template needs canonical CSR")
        self.fmt_cls = type(fmt)
        self.shape = fmt.shape
        self.indptr = A.indptr.copy()
        self.indices = A.indices.copy()
        self.stats_memo = fmt._stats_memo
        self.structure = fmt._structure()
        self.perm = self._gather_index(fmt, A)

    @staticmethod
    def _gather_index(fmt: SparseFormat, A: sp.csr_matrix) -> np.ndarray | None:
        """``perm`` of ``fmt``: each slot's position in ``A.data`` (``nnz``
        for a pad), found by matching its ``(row, col)`` in ``A``."""
        rows, cols = fmt._value_slots()
        I, K = A.shape
        nnz = A.nnz
        row_of = np.repeat(np.arange(I, dtype=np.int64), np.diff(A.indptr))
        keys = row_of * K + A.indices  # ascending: A is canonical
        real = np.flatnonzero((cols >= 0) & (cols < K))
        slot_keys = rows[real].astype(np.int64) * K + cols[real]
        pos = np.minimum(np.searchsorted(keys, slot_keys), max(nnz - 1, 0))
        hit = keys[pos] == slot_keys if nnz else np.zeros(0, dtype=bool)
        if np.count_nonzero(hit) != nnz:
            raise ValueError("the format was not built from this matrix")
        perm = np.full(rows.size, nnz, dtype=np.intp)
        perm[real[hit]] = pos[hit]
        if perm.size == nnz and np.array_equal(perm, np.arange(nnz)):
            return None
        return perm

    def matches(self, A: sp.csr_matrix) -> bool:
        """Whether ``A`` has exactly this template's pattern.

        Compares the arrays, not a digest: pattern digests of large arrays
        are chunk-sampled, and a false match would give wrong numerics."""
        return (
            A.shape == self.shape
            and np.array_equal(A.indptr, self.indptr)
            and np.array_equal(A.indices, self.indices)
        )

    def revalue(self, A: sp.csr_matrix) -> SparseFormat:
        """The template's format holding ``A``'s values: one gather."""
        if not self.matches(A):
            raise ValueError("matrix pattern differs from the template's")
        data = np.asarray(A.data, dtype=VALUE_DTYPE)
        if self.perm is not None:
            data = np.concatenate((data, np.zeros(1, dtype=VALUE_DTYPE)))[self.perm]
        fmt = self.fmt_cls._from_structure(self.structure, data)
        fmt.__dict__["_stats_memo"] = self.stats_memo
        return fmt
