"""Deterministic dense linear algebra on float64 numpy arrays.

This is the only numeric substrate the rest of the package uses.  Matrices
are 2-D float64 arrays, vectors are 1-D float64 arrays.  ``matmul`` takes
views in any layout, so callers pass ``x.T`` rather than a transposed copy,
and returns a new C-contiguous (row-major) matrix.  The summation-order
sensitive kernels are pinned: ``matmul``, ``gram``, ``mean_columns``,
``cholesky`` and ``direct_inverse`` run one small C library (``_pinned.c``)
that gives each entry the scalar loop's work, one rounded multiply and one
rounded add per term in a fixed ascending order, so their results are
bit-identical to that loop.  Its vectors span output entries only, and it is
compiled without contraction, so no multiply-add is ever fused.  Each entry
point has an AVX-512, an AVX2 and an SSE2 path, which give the same bits; one
``pinned_path()`` call at import picks the widest the CPU runs, :data:`PATH`,
and binds every entry point on it for the process.
``scale_rank1`` (alpha M + c u u^T) and ``blend_identity``
(zeta M + (1 - zeta) I) run the library's two elementwise entry points: one
rounded multiply or add per operation, as numpy's whole-array chain rounds
them.  They sum nothing, so there is no order to pin, and they give that
chain's bits on any CPU; only a NaN that meets another NaN may keep the
other's sign and payload, which IEEE 754 leaves open.
``matvec`` and ``dot`` go through BLAS; they repeat bit for bit at a fixed
BLAS thread count, and the benchmark runs them at one thread.

The library needs a C compiler on the path as ``cc``: the first import
compiles it into ``__pycache__`` beside this file (see :func:`_library`).

No sparse formats, no complex numbers, no BLAS bindings beyond numpy's
elementwise kernels, matrix-vector and dot products.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import os

import numpy as np

from . import counters

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_pinned.c")
_COMPILE = ("cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC")
_P, _S, _D = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_double
PATHS = ("avx512", "avx2", "sse2")  # indexed by _pinned.c's pinned_path()
# name -> (restype, argtypes) of every entry point; on a path it is pinned_<name>_<path>
_ENTRIES = {"matmul": (None, (_P, _S, _S, _P, _P, _S, _S, _S)),
            "gram": (None, (_P, _S, _S, _P, _P, _S, _S)),
            "cholesky": (_S, (_P, _P, _S, _S)),
            "tril_inverse": (None, (_P, _S, _S, _P, _S, _S)),
            "scale_rank1": (None, (_P, _P, _D, _D, _P, _S)),
            "scale_shift": (None, (_P, _D, _D, _P, _S))}


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


def kernels(cache_dir: str, path: str) -> dict:
    """{name: its instance on ``path``} for every entry point of ``_ENTRIES``.
    A path the CPU lacks kills the process at its first call."""
    lib = _library(cache_dir)
    bound = {}
    for name, (restype, argtypes) in _ENTRIES.items():
        bound[name] = kernel = getattr(lib, f"pinned_{name}_{path}")
        kernel.restype, kernel.argtypes = restype, argtypes
    return bound


@functools.cache
def _library(cache_dir: str) -> ctypes.CDLL:
    """``cache_dir/_pinned.<key>.so``, key the SHA-256 of the source and the
    compile command, so no binary of other source or flags matches; loaded
    once per process.  A miss compiles into a temporary name and moves it
    into place, so no reader sees half a library, then removes the other
    keys' libraries; a failed compile raises RuntimeError naming the command."""
    with open(_SOURCE, "rb") as fh:
        key = hashlib.sha256(fh.read() + b"\0" + " ".join(_COMPILE).encode()).hexdigest()
    path = os.path.join(cache_dir, f"_pinned.{key}.so")
    try:
        return ctypes.CDLL(path)
    except OSError:
        _build(path)
        return ctypes.CDLL(path)


def _build(path: str) -> None:
    import fnmatch
    import subprocess  # a cache hit starts no process, so it imports none

    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    cmd = [*_COMPILE, "-o", tmp, _SOURCE]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        raise RuntimeError(f"cannot run the C compiler: {' '.join(cmd)}: {exc}") from exc
    if done.returncode != 0:
        raise RuntimeError(f"compiling the pinned kernels failed (exit {done.returncode}): "
                           f"{' '.join(cmd)}\n{done.stderr}")
    os.replace(tmp, path)
    folder, built = os.path.split(path)
    for name in set(fnmatch.filter(os.listdir(folder), "_pinned.*.so")) - {built}:
        with contextlib.suppress(FileNotFoundError):  # another process's build removed it
            os.remove(os.path.join(folder, name))


_CACHE = os.path.join(os.path.dirname(_SOURCE), "__pycache__")
_choose = _library(_CACHE).pinned_path
_choose.restype, _choose.argtypes = ctypes.c_int, ()
PATH = PATHS[_choose()]  # the widest path this CPU runs, chosen once per process
_K = kernels(_CACHE, PATH)


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
    ascending, exactly like the scalar triple loop with the inner loop over
    k.  The kernel holds tiles of C in vector registers: 8 rows by 16 columns
    with AVX-512, 4 by 8 with AVX2 or 4 by 4 with SSE2.

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
    _K["matmul"](a.ctypes.data, a.strides[0] // 8, a.strides[1] // 8, b.ctypes.data,
                 c.ctypes.data, m, k, n)
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


def _square(m, op: str) -> np.ndarray:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"{op}: non-square {m.shape}")
    return m


def scale_rank1(m, u, alpha: float, c: float) -> np.ndarray:
    """alpha M + c u u^T for a square M, in one pass: entry (i, j) is
    m[i,j] * alpha + (u[i] * u[j]) * c, so bitwise
    ``add(scale(m, alpha), scale(outer(u, u), c))``, and counted as that
    chain's four passes, 4 n^2 flops."""
    m = _square(m, "scale_rank1")
    u = as_vector(u)
    n = m.shape[0]
    if u.shape[0] != n:
        raise DimensionMismatch(f"scale_rank1: {m.shape} and {u.shape}")
    counters.add_flops(4.0 * n * n)
    out = np.empty((n, n), dtype=np.float64)
    _K["scale_rank1"](m.ctypes.data, u.ctypes.data, float(alpha), float(c), out.ctypes.data, n)
    return out


def blend_identity(m, zeta: float) -> np.ndarray:
    """zeta M + (1 - zeta) I for a square M, in one pass: m[i,j] * zeta plus
    the scaled identity's entry, beta = 1 - zeta on the diagonal and
    beta * 0.0 off it, so bitwise
    ``add(scale(m, zeta), scale(identity(n), 1.0 - zeta))``, and counted as
    that chain's three passes, 3 n^2 flops.  For 0 < zeta <= 1 it is a
    convex blend, so a PD M gives a PD result."""
    m = _square(m, "blend_identity")
    n = m.shape[0]
    counters.add_flops(3.0 * n * n)
    out = np.empty((n, n), dtype=np.float64)
    _K["scale_shift"](m.ctypes.data, float(zeta), 1.0 - zeta, out.ctypes.data, n)
    return out


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


def gram(x) -> np.ndarray:
    """x x^T, bitwise ``matmul(x, x.T)`` and exactly symmetric: the kernel sums
    the triangle on and above the diagonal, k m (m + 1) flops for x of m x k,
    and mirrors it, since IEEE multiplication commutes."""
    x = _operand(x)
    m, k = x.shape
    counters.add_flops(float(k * m * (m + 1)))
    xt = np.ascontiguousarray(x.T)
    c = np.empty((m, m), dtype=np.float64)
    _K["gram"](x.ctypes.data, x.strides[0] // 8, x.strides[1] // 8, xt.ctypes.data,
               c.ctypes.data, m, k)
    return c


def direct_inverse(m) -> np.ndarray:
    """Inverse of a symmetric positive-definite M, itself exactly symmetric:
    with M = C C^T from :func:`cholesky`, M^-1 is the :func:`gram` X^T X of
    X = C^-1, x[i, i] = 1 / c[i, i] and x[i, j] = -(sum_{p=j}^{i-1} c[i, p]
    x[p, j]) / c[i, i] below the diagonal, counted at n^3/3."""
    c = cholesky(m)
    n = c.shape[0]
    x = _padded(n)
    _K["tril_inverse"](c.ctypes.data, c.strides[0] // 8, c.strides[1] // 8, x.ctypes.data, n,
                       x.shape[1])
    counters.add_flops(n * n * n / 3.0)
    return gram(x[:, :n].T)


def _padded(n: int) -> np.ndarray:  # the triangular kernels' n rows: whole 16-wide tiles, >= n
    return np.empty((n, -(-n // 16) * 16))


def cholesky(m) -> np.ndarray:
    """Lower-triangular C with C @ C.T ~= M for an exactly symmetric M (else
    :class:`LinalgError`), the transposed view of the kernel's C^T, counted at
    n^3/3.  A pivot that is not positive and finite, where any NaN or infinity
    in M ends, raises :class:`SingularMatrix` naming it and its column."""
    m = _square(m, "cholesky")
    n = m.shape[0]
    if not (np.array_equal(m, m.T) or np.array_equal(m, m.T, equal_nan=True)):
        raise LinalgError("cholesky: input is not exactly symmetric")
    u = _padded(n)
    j = _K["cholesky"](m.ctypes.data, u.ctypes.data, n, u.shape[1])
    if j >= 0:
        raise SingularMatrix(f"not positive-definite: pivot {u[j, j]:.3e} at column {j}")
    counters.add_flops(n * n * n / 3.0)
    return u[:, :n].T


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
