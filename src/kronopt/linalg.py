"""Deterministic dense linear algebra on float64 numpy arrays.

This is the only numeric substrate the rest of the package uses.  Matrices
are 2-D float64 arrays, vectors are 1-D float64 arrays.  ``matmul`` takes
views in any layout, so callers pass ``x.T`` rather than a transposed copy,
and returns a new C-contiguous (row-major) matrix.  The summation-order
sensitive kernels are pinned: ``matmul`` and ``mean_columns`` run one small C
kernel (``_pinned.c``) that gives entry (i, j) the scalar triple loop's work,
one rounded multiply and one rounded add per term for the contracted index
ascending, so their results are bit-identical to that loop.  The kernel's
vectors span output entries only, and it is compiled without contraction, so
no multiply-add is ever fused.  ``matvec`` and ``dot`` go through BLAS; they
repeat bit for bit at a fixed BLAS thread count, and the benchmark runs them
at one thread.

The kernel needs a C compiler on the path as ``cc``.  The first import
compiles it into ``__pycache__/_pinned.<key>.so`` beside this file, where the
key is the SHA-256 of the source and the compile command, so a binary built
from other source or other flags never matches; later imports only hash the
source and load the cached library.

The one inverse, ``direct_inverse``, takes symmetric positive-definite input
through ``cholesky``, and its final X^T X through ``matmul`` is exactly
symmetric.  The factor and the substitution use BLAS gemv, which repeats bit
for bit at one thread; writing them here pins their failure down to one named
column.  The test suite checks both against independent oracles.

No sparse formats, no complex numbers, no BLAS bindings beyond numpy's
elementwise kernels, matrix-vector and dot products.
"""

from __future__ import annotations

import ctypes
import hashlib
import os

import numpy as np

from . import counters

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_pinned.c")
_COMPILE = ("cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")
_SSIZE = ctypes.c_ssize_t


class LinalgError(Exception):
    """Base class for numeric-substrate failures."""


class DimensionMismatch(LinalgError):
    """Operands have incompatible shapes (contract violation)."""


class SingularMatrix(LinalgError):
    """Matrix is singular to working precision."""


class NumericalError(AssertionError):
    """A numerical guarantee failed.  Raised explicitly, so ``python -O`` keeps
    it; an AssertionError, so callers that map those to exit code 3 map it too."""


def make_rng(seed: int) -> np.random.Generator:
    """Seeded PCG64 generator; the same seed yields the same stream everywhere."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def load_kernel(cache_dir: str):
    """The pinned-order product ``pinned_matmul`` from ``_pinned.c``, loaded
    from ``cache_dir`` and compiled there first if it is not cached yet.

    A cached library is found by name alone, ``_pinned.<key>.so`` with key
    the SHA-256 of the source and the compile command.  A miss runs the
    compiler into a temporary name and moves the result into place, so a
    reader never sees a half-written library.  A failed compile raises
    RuntimeError naming the command and the compiler's message.
    """
    with open(_SOURCE, "rb") as fh:
        key = hashlib.sha256(fh.read() + b"\0" + " ".join(_COMPILE).encode()).hexdigest()
    path = os.path.join(cache_dir, f"_pinned.{key}.so")
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        _build(path)
        lib = ctypes.CDLL(path)
    kernel = lib.pinned_matmul
    kernel.argtypes = (ctypes.c_void_p, _SSIZE, _SSIZE, ctypes.c_void_p, ctypes.c_void_p,
                       _SSIZE, _SSIZE, _SSIZE)
    kernel.restype = None
    return kernel


def _build(path: str) -> None:
    import subprocess  # a cache hit starts no process, so it imports none

    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    cmd = [*_COMPILE, "-o", tmp, _SOURCE]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        raise RuntimeError(f"cannot run the C compiler: {' '.join(cmd)}: {exc}") from exc
    if done.returncode != 0:
        raise RuntimeError(
            f"compiling the matmul kernel failed (exit {done.returncode}): "
            f"{' '.join(cmd)}\n{done.stderr}"
        )
    os.replace(tmp, path)


_kernel = load_kernel(os.path.join(os.path.dirname(_SOURCE), "__pycache__"))


def _operand(a) -> np.ndarray:
    """A 2-D float64 matrix, in the layout it came in (see :func:`matmul`)."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {np.shape(a)}")
    if m.strides[0] % 8 or m.strides[1] % 8:  # e.g. a field of a packed record array
        m = m.copy()
    return m


def as_matrix(a) -> np.ndarray:
    return np.ascontiguousarray(_operand(a))


def as_vector(a) -> np.ndarray:
    v = np.ascontiguousarray(a, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {np.shape(a)}")
    return v


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.float64)


def matmul(a, b) -> np.ndarray:
    """Matrix product with pinned summation order.

    Entry (i, j) starts at 0.0 and takes acc = acc + a[i, k] * b[k, j] for k
    ascending, one rounded multiply and one rounded add per term, exactly
    like the scalar triple loop with the inner loop over k.  The kernel
    (``_pinned.c``) holds tiles of C in vector registers, 4 rows by 8
    columns with AVX2 or by 4 columns with SSE2, whichever the CPU has when
    the library loads; its vectors span output entries, never k, and it is
    compiled with ``-ffp-contract=off``, so no term fuses a multiply-add.  A
    test fails if one does.

    a may be a view in any layout (a ``.T`` view instead of a transposed
    copy): the kernel reads it through its strides.  b is copied only when it
    is not C-contiguous, since the kernel reads its rows as vectors.  The
    result is a new C-contiguous array.
    """
    a = _operand(a)
    b = _operand(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(f"matmul: {a.shape} x {b.shape}")
    counters.add_flops(2.0 * a.shape[0] * b.shape[1] * a.shape[1])
    return _pinned(a, b)


def _pinned(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b through the kernel, uncounted; a from :func:`_operand`."""
    b = np.ascontiguousarray(b)
    (m, k), n = a.shape, b.shape[1]
    c = np.empty((m, n), dtype=np.float64)
    _kernel(a.ctypes.data, a.strides[0] // 8, a.strides[1] // 8, b.ctypes.data, c.ctypes.data,
            m, k, n)
    return c


def matvec(m, v) -> np.ndarray:
    m = as_matrix(m)
    v = as_vector(v)
    if m.shape[1] != v.shape[0]:
        raise DimensionMismatch(f"matvec: {m.shape} x {v.shape}")
    counters.add_flops(2.0 * m.shape[0] * m.shape[1])
    return m @ v


def dot(u, v) -> float:
    u = as_vector(u)
    v = as_vector(v)
    if u.shape != v.shape:
        raise DimensionMismatch(f"dot: {u.shape} vs {v.shape}")
    counters.add_flops(2.0 * u.shape[0])
    return float(np.dot(u, v))


def outer(u, v) -> np.ndarray:
    u = as_vector(u)
    v = as_vector(v)
    counters.add_flops(float(u.shape[0] * v.shape[0]))
    return np.outer(u, v)


def scale(m, alpha: float) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    counters.add_flops(float(m.size))
    return m * float(alpha)


def add(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionMismatch(f"add: {a.shape} vs {b.shape}")
    counters.add_flops(float(a.size))
    return a + b


def frobenius_norm(m) -> float:
    m = np.asarray(m, dtype=np.float64)
    flat = m.reshape(-1)
    counters.add_flops(2.0 * flat.size)
    return float(np.sqrt(np.dot(flat, flat)))


def inf_norm(m) -> float:
    """Induced infinity norm: maximum absolute row sum."""
    m = np.asarray(m, dtype=np.float64)
    counters.add_flops(2.0 * m.size)
    return float(np.max(np.sum(np.abs(m), axis=1)))


def mean_columns(m) -> np.ndarray:
    """Row-wise mean over columns: each row summed from 0.0 in column order,
    then divided by the column count.

    The sum is the kernel's product with a column of ones; x * 1.0 = x
    exactly, signed zeros included, so each term adds the entry itself.
    """
    m = _operand(m)
    rows, cols = m.shape
    counters.add_flops(float(rows * cols + rows))
    return _pinned(m, np.ones((cols, 1)))[:, 0] / float(cols)


def direct_inverse(m) -> np.ndarray:
    """Inverse of a symmetric positive-definite matrix, itself exactly symmetric.

    With M = C C^T from :func:`cholesky`, M^-1 = X^T X for X = C^-1, which
    forward substitution builds one row at a time.  Counted as n^3/3 for the
    factor, n^3/3 for the substitution and 2n^3 for X^T X.
    """
    c = cholesky(m)
    n = c.shape[0]
    x = np.zeros_like(c)
    for i in range(n):
        x[i, :i] = -(c[i, :i] @ x[:i, :i]) / c[i, i]
        x[i, i] = 1.0 / c[i, i]
    counters.add_flops(n * n * n / 3.0)
    return matmul(x.T, x)


def cholesky(m) -> np.ndarray:
    """Lower-triangular C with C @ C.T ~= M for an exactly symmetric M.

    Asymmetric input raises :class:`LinalgError`; it is never averaged with
    its transpose.  A non-positive or non-finite pivot means "not
    positive-definite within tolerance" and raises :class:`SingularMatrix`
    naming the pivot and its column.
    """
    m = as_matrix(m)
    n = m.shape[0]
    if m.shape[1] != n:
        raise DimensionMismatch(f"cholesky: non-square {m.shape}")
    if not np.array_equal(m, m.T, equal_nan=True):  # a NaN fails as a pivot below
        raise LinalgError("cholesky: input is not exactly symmetric")
    c = np.zeros_like(m)
    for j in range(n):
        d = m[j, j] - float(np.dot(c[j, :j], c[j, :j]))
        if not np.isfinite(d) or d <= 0.0:
            raise SingularMatrix(f"not positive-definite: pivot {d:.3e} at column {j}")
        c[j, j] = np.sqrt(d)
        if j + 1 < n:
            c[j + 1 :, j] = (m[j + 1 :, j] - c[j + 1 :, :j] @ c[j, :j]) / c[j, j]
    counters.add_flops(n * n * n / 3.0)
    return c


def power_iteration(m, iters: int = 1000, tol: float = 1e-12) -> tuple[float, np.ndarray]:
    """Top eigenpair (sigma, v) of a symmetric PSD matrix by power iteration.

    Starts from a fixed vector, generically non-orthogonal to any fixed
    eigenvector, and stops once ||m v - sigma v||_max < tol * max(1, |sigma|)
    or after ``iters`` steps.  Counts no flops: only diagnostics call it.
    """
    m = as_matrix(m)
    n = m.shape[0]
    v = 1.0 + np.arange(n, dtype=np.float64) / max(n, 1)
    v /= float(np.sqrt(np.dot(v, v)))
    sigma = 0.0
    for _ in range(iters):
        w = m @ v
        norm = float(np.sqrt(np.dot(w, w)))
        if norm == 0.0:
            return 0.0, v
        w /= norm
        sigma_new = float(w @ (m @ w))
        res = float(np.max(np.abs(m @ w - sigma_new * w)))
        v, sigma = w, sigma_new
        if res < tol * max(1.0, abs(sigma)):
            break
    return sigma, v
