import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kronopt import counters, linalg
from kronopt.analysis import make_spd
from kronopt.linalg import (
    DimensionMismatch,
    SingularMatrix,
    cholesky,
    direct_inverse,
    gram,
    inf_norm,
    make_rng,
    matmul,
    matvec,
    mean_columns,
    outer,
    power_iteration,
)

from kernel_paths import CACHE, CPU_FLAGS, PATHS, on_path
from oracles import (
    cholesky_loops,
    jacobi_eigenvalues,
    matmul_columns,
    matmul_loops,
    mean_columns_loops,
    rank_via_minors,
    random_spd,
    tril_inverse_loops,
)

# An overflow inside an oracle would otherwise scroll past as a warning.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _through(path, a, b):
    with on_path(path):
        return matmul(a, b)


# "W.T" is backward's W^T g with W passed as a .T view, "l_inv.T" an exactly
# symmetric operand read as a .T view; the kernel reads both through their
# strides.  130 x 33 x 131 leaves a row tail and a column tail.  One entry in
# 16 of each operand is a signed zero.
_WORKLOAD_SHAPES = [
    pytest.param(*case, id="-".join(str(x) for x in case if x is not None)) for case in (
        (256, 256, 32, None), (256, 32, 256, None), (32, 256, 256, None),
        (128, 128, 128, None), (256, 256, 1, None),
        (256, 256, 32, "W.T"), (256, 256, 32, "l_inv.T"), (128, 128, 32, "l_inv.T"),
        (130, 33, 131, "W.T"),
    )
]


def _workload_operands(m, k, n, view):
    """(a, b) at a workload shape, a in the layout ``view`` names, and the
    column loop's a b."""
    rng = make_rng(m * 7 + k * 3 + n)

    def draw(shape):
        x = rng.standard_normal(shape) * np.exp(rng.uniform(-9.0, 9.0, shape))
        x[rng.uniform(size=shape) < 1.0 / 32] = 0.0
        x[rng.uniform(size=shape) < 1.0 / 32] = -0.0
        return x

    if view == "W.T":
        operand = draw((k, m)).T
    elif view == "l_inv.T":
        upper = np.triu(draw((m, k)))
        operand = (upper + np.triu(upper, 1).T).T
    else:
        operand = draw((m, k))
    b = draw((k, n))
    return operand, b, matmul_columns(np.ascontiguousarray(operand), b)


class TestMatmul:
    def test_identity(self):
        rng = make_rng(0)
        m = rng.standard_normal((5, 3))
        assert np.array_equal(matmul(np.eye(5), m), m)

    def test_permutation(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(matmul(a, b), np.array([[2.0, 1.0], [4.0, 3.0]]))

    def test_matches_triple_loop_bitwise(self):
        rng = make_rng(42)
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        got = matmul(a, b)
        want = matmul_loops(a, b)
        assert np.array_equal(got, want)  # 0 ULP, same summation order

    def test_rectangular_matches_loop(self):
        rng = make_rng(3)
        a = rng.standard_normal((4, 7))
        b = rng.standard_normal((7, 5))
        assert np.array_equal(matmul(a, b), matmul_loops(a, b))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            matmul(np.ones((2, 3)), np.ones((2, 3)))

    # A field of a packed record array is a float64 view whose strides are
    # not whole elements; the kernel takes strides in elements.
    def test_a_field_of_a_packed_record_array(self):
        rng = make_rng(8)
        records = np.zeros((5, 6), dtype=[("x", "f8"), ("flag", "i1")])
        records["x"] = rng.standard_normal((5, 6))
        a, b = records["x"], records["x"].T
        assert a.strides == (54, 9)
        assert matmul(a, b).tobytes() == matmul_loops(a, b).tobytes()

    # x*y = 1 - 2**-60 rounds to 1, so -1*1 + x*y is 0 with a rounded multiply
    # and -2**-60 under a fused multiply-add.  The 1 x 2 product reaches the
    # kernel's one-column tail; the 4 x 8 one fills a whole AVX2 tile and the
    # 8 x 16 one a whole AVX-512 tile.
    def test_no_fused_multiply_add(self):
        x, y = 1.0 + 2.0**-30, 1.0 - 2.0**-30
        for rows, cols in ((1, 2), (4, 8), (8, 16)):
            got = matmul(np.tile([[-1.0, x]], (rows, 1)), np.tile([[1.0], [y]], (1, cols)))
            assert np.array_equal(got, np.zeros((rows, cols))), (
                f"the pinned matmul kernel fuses multiply-add on this build "
                f"(got {got.tolist()}), so matmul no longer matches the triple loop"
            )

    @pytest.mark.parametrize("m,k,n,view", _WORKLOAD_SHAPES)
    def test_workload_shapes_match_the_column_loop_bitwise(self, m, k, n, view):
        a, b, want = _workload_operands(m, k, n, view)
        got = matmul(a, b)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


# Entries up to 1e150 keep every sum of up to 12 products below 1.8e308, so no
# draw overflows; the strategy reaches subnormals and signed zeros.  Up to 20
# rows and 40 columns reach whole 8 x 16 tiles, a row remainder and a
# column tail on every path.
_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-150, 1e150]),
    st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False),
)


@st.composite
def _operands(draw):
    """(a, b); each is drawn either C-ordered or as the .T view of its
    transpose (Fortran-ordered), as callers pass them."""
    m, k, n = draw(st.integers(1, 20)), draw(st.integers(1, 12)), draw(st.integers(1, 40))

    def operand(rows, cols):
        if draw(st.booleans()):
            return draw(arrays(np.float64, (cols, rows), elements=_ENTRY)).T
        return draw(arrays(np.float64, (rows, cols), elements=_ENTRY))

    return operand(m, k), operand(k, n)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(operands=_operands())
# m = 1, k = 1 and n = 1 (the zero-column route), each with extreme entries
@example(operands=(np.array([[1.0, -0.0, 3e-320]]), np.array([[2.0, 1.0], [-0.0, 5.0], [1e150, -1e-150]])))
@example(operands=(np.array([[1e150], [-0.0], [2.5]]), np.array([[1e-150, -0.0, 7.0]])))
@example(operands=(np.array([[0.1, 0.2, 0.3], [-0.0, 5e-324, 1e150]]), np.array([[0.3], [0.2], [0.1]])))
# more rows than columns, on a transposed view and a C-ordered operand
@example(operands=(np.array([[1.0, -0.0, 2.5], [3e-320, 1e150, -7.0]]).T, np.array([[-0.0, 4.0], [1e-150, 0.5]])))
def test_matmul_matches_the_triple_loop_byte_for_byte(operands):
    a, b = operands
    got = matmul(a, b)
    assert got.flags.c_contiguous
    assert got.tobytes() == matmul_loops(a, b).tobytes()


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(operands=_operands())
def test_each_path_matches_the_triple_loop_byte_for_byte(path, operands):
    a, b = operands
    assert _through(path, a, b).tobytes() == matmul_loops(a, b).tobytes()


class TestKernelPaths:
    @pytest.mark.parametrize("m,k,n,view", _WORKLOAD_SHAPES)
    def test_workload_shapes_match_the_column_loop_bitwise(self, path, m, k, n, view):
        a, b, want = _workload_operands(m, k, n, view)
        assert _through(path, a, b).tobytes() == want.tobytes()

    def test_the_import_binds_the_widest_path_the_cpu_lists(self):
        assert linalg.PATH == next(name for name, flag in PATHS if flag in CPU_FLAGS)
        assert linalg._K == linalg.kernels(CACHE, linalg.PATH)

    # The FMA canary in TestMatmul runs only the path this CPU picks; the
    # disassembly covers all three, for every entry point.
    def test_no_path_holds_a_fused_multiply_add_instruction(self, tmp_path):
        if shutil.which("objdump") is None:
            pytest.skip("objdump is not on the PATH, so the built kernel cannot be disassembled")
        linalg.kernels(str(tmp_path), linalg.PATH)
        [name] = os.listdir(tmp_path)
        listing = subprocess.run(["objdump", "-d", str(tmp_path / name)], capture_output=True,
                                 text=True, check=True).stdout
        for entry in linalg._ENTRIES:
            for path_name in linalg.PATHS:
                assert f"<pinned_{entry}_{path_name}>:" in listing
        fused = re.findall(r"\bv(?:fmadd|fmsub|fnmadd|fnmsub)\w*", listing)
        assert not fused, f"the built kernel holds fused multiply-adds: {sorted(set(fused))}"


@st.composite
def _gram_operands(draw):
    """x of m x k, drawn C-ordered or as the .T view of its transpose."""
    m, k = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    if draw(st.booleans()):
        return draw(arrays(np.float64, (k, m), elements=_ENTRY)).T
    return draw(arrays(np.float64, (m, k), elements=_ENTRY))


# Up to 40 rows reach whole 8-row tiles, row remainders and the diagonal
# tiles of every path, and m % 16 != 0 leaves a column tail.
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(x=_gram_operands())
@example(x=np.array([[1.0], [-0.0], [3e-320], [1e150], [-2.5]]))  # k = 1
@example(x=np.arange(17 * 3, dtype=np.float64).reshape(3, 17).T - 20.0)  # m = 17, a .T view
def test_each_path_gram_is_the_triple_loops_x_xt_byte_for_byte(path, x):
    with on_path(path):
        got = gram(x)
    assert got.flags.c_contiguous
    assert got.tobytes() == matmul_loops(x, x.T).tobytes()


# g g^T and a a^T as kfac_accumulate forms them, and a^T a as
# sngd_precondition does (a .T view); 130 x 33 leaves every tail.
@pytest.mark.parametrize("m,k,view", [(128, 32, None), (256, 32, None), (128, 32, "a.T"),
                                      (130, 33, None), (1, 32, None), (33, 1, "a.T")])
def test_each_path_gram_is_matmul_of_x_and_its_transpose_at_workload_shapes(path, m, k, view):
    rng = make_rng(m * 3 + k)
    x = rng.standard_normal((k, m)).T if view else rng.standard_normal((m, k))
    x[rng.uniform(size=x.shape) < 1.0 / 16] = -0.0
    with on_path(path):
        assert gram(x).tobytes() == matmul(x, x.T).tobytes()


def test_gram_counts_one_multiply_and_one_add_per_term_of_the_triangle():
    tally = dict.fromkeys(counters.PHASES, 0.0)
    with counters.recording(tally):
        gram(np.ones((5, 3)))
    assert tally["other"] == 3 * 5 * 6


def _diagonally_dominant(n, seed):
    """An exactly symmetric, diagonally dominant (so positive-definite) M of
    order n whose off-diagonal entries span six decades; one pair in 8 is
    +0.0 and one in 8 is -0.0, and so is the pair (n-1, 0), which makes
    c[n-1, 0] = -0.0."""
    rng = make_rng(seed)
    m = rng.standard_normal((n, n)) * np.exp(rng.uniform(-7.0, 7.0, (n, n)))
    draw = rng.uniform(size=(n, n))
    m[draw < 1.0 / 8] = 0.0
    m[(draw >= 1.0 / 8) & (draw < 1.0 / 4)] = -0.0
    lower = np.tril_indices(n, -1)
    m[0, n - 1] = -0.0
    m[lower] = m.T[lower]
    m[np.diag_indices(n)] = np.sum(np.abs(m), axis=1) + 1.0
    return m


def _tril_inverse(c):
    """X = C^-1 for a lower-triangular C in any layout, through the kernel
    that ``direct_inverse`` runs, into rows padded as it pads them."""
    n = c.shape[0]
    x = np.empty((n, -(-n // 16) * 16))
    linalg._K["tril_inverse"](c.ctypes.data, c.strides[0] // 8, c.strides[1] // 8,
                              x.ctypes.data, n, x.shape[1])
    return np.ascontiguousarray(x[:, :n])


# Orders 1 to 40 reach one-row panels, whole 8- and 4-row panels with a
# remainder, and every path's 16-, 8- and 4-wide tiles with partial ones.
_ORDERS = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24, 33, 40]


class TestTriangularKernels:
    @pytest.mark.parametrize("n", _ORDERS)
    def test_each_path_factors_like_the_scalar_loops_byte_for_byte(self, path, n):
        m = _diagonally_dominant(n, n)
        with on_path(path):
            got = cholesky(m)
        assert np.ascontiguousarray(got).tobytes() == cholesky_loops(m).tobytes()

    @pytest.mark.parametrize("n", _ORDERS)
    def test_each_path_inverts_a_triangle_like_the_scalar_loops_byte_for_byte(self, path, n):
        rng = make_rng(100 + n)
        c = np.tril(rng.standard_normal((n, n)) * np.exp(rng.uniform(-3.0, 3.0, (n, n))), -1)
        c[np.tril(rng.uniform(size=(n, n)) < 1.0 / 8, -1)] = -0.0
        c[np.diag_indices(n)] = rng.uniform(0.5, 2.0, n)
        want = tril_inverse_loops(c).tobytes()
        with on_path(path):
            for layout in (c, np.asfortranarray(c)):  # cholesky returns the second
                assert _tril_inverse(layout).tobytes() == want

    @pytest.mark.parametrize("n", [1, 9, 17, 40])
    def test_each_path_inverts_like_the_scalar_loops_byte_for_byte(self, path, n):
        m = _diagonally_dominant(n, 7 * n)
        x = tril_inverse_loops(cholesky_loops(m))
        with on_path(path):
            got = direct_inverse(m)
        assert got.tobytes() == matmul_loops(x.T, x).tobytes()

    def test_each_path_factors_and_inverts_at_the_workload_order(self, path):
        m = random_spd(make_rng(128), 128)
        c = cholesky_loops(m)
        with on_path(path):
            assert np.ascontiguousarray(cholesky(m)).tobytes() == c.tobytes()
            assert _tril_inverse(c).tobytes() == tril_inverse_loops(c).tobytes()

    # Each input fails as a named pivot: a bad diagonal entry at its own
    # column, a bad off-diagonal entry (i, j) at column i, where the square
    # of c[i, j] enters the pivot.
    @pytest.mark.parametrize("where, value", [
        ((5, 5), np.nan), ((7, 3), np.nan), ((4, 4), np.inf), ((0, 0), -np.inf),
        ((9, 2), np.inf), ((11, 10), -np.inf), ((1, 0), np.nan),
    ])
    def test_each_path_fails_a_non_finite_input_at_the_scalar_loops_pivot(self, path, where, value):
        m = _diagonally_dominant(12, 3)
        m[where] = m[where[::-1]] = value
        with pytest.raises(ArithmeticError) as oracle:
            cholesky_loops(m)
        column, pivot = oracle.value.args
        assert column == where[0]
        with on_path(path), pytest.raises(SingularMatrix) as exc:
            cholesky(m)
        assert str(exc.value) == f"not positive-definite: pivot {pivot:.3e} at column {column}"


class TestKernelLoader:
    def test_a_cache_hit_starts_no_process(self):
        # this process imported linalg, so the kernel for this source is cached
        src = os.path.dirname(os.path.dirname(linalg.__file__))
        code = "import sys, kronopt.harness; print('subprocess' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_a_build_into_an_empty_directory_gives_matmuls_bytes(self, tmp_path):
        kernel = linalg.kernels(str(tmp_path), linalg.PATH)["matmul"]
        [name] = os.listdir(tmp_path)
        assert re.fullmatch(r"_pinned\.[0-9a-f]{64}\.so", name)
        rng = make_rng(5)
        a, b = rng.standard_normal((256, 256)), rng.standard_normal((256, 32))
        c = np.empty((256, 32))
        kernel(a.ctypes.data, 256, 1, b.ctypes.data, c.ctypes.data, 256, 256, 32)
        assert c.tobytes() == matmul(a, b).tobytes()

    def test_a_build_removes_the_libraries_of_other_keys(self, tmp_path):
        stale = tmp_path / f"_pinned.{'0' * 64}.so"
        stale.write_bytes(b"built from another _pinned.c")
        linalg.kernels(str(tmp_path), linalg.PATH)
        [name] = os.listdir(tmp_path)
        assert re.fullmatch(r"_pinned\.[0-9a-f]{64}\.so", name) and name != stale.name

    def test_a_compiler_failure_names_the_command_and_its_message(self, tmp_path, monkeypatch):
        def fails(cmd, **kwargs):
            return subprocess.CompletedProcess(cmd, 1, "", "_pinned.c:1:1: error: boom\n")

        monkeypatch.setattr(subprocess, "run", fails)
        with pytest.raises(RuntimeError, match=r"cc -O2 -ffp-contract=off .*_pinned\.c\n_pinned\.c:1:1: error: boom"):
            linalg.kernels(str(tmp_path), linalg.PATH)

        def missing(cmd, **kwargs):
            raise FileNotFoundError(2, "No such file or directory", "cc")

        monkeypatch.setattr(subprocess, "run", missing)
        with pytest.raises(RuntimeError, match=r"cannot run the C compiler: cc -O2 .*No such file"):
            linalg.kernels(str(tmp_path), linalg.PATH)
        assert os.listdir(tmp_path) == []


# The wrappers hand the kernels raw addresses (``.ctypes.data``), so each
# array must be held by a name until the call returns.  A temporary passed
# inline is freed at once, and the kernel then writes into the heap: that can
# pass every in-process test and still abort a fresh process in malloc.  So
# the benchmark's kfac-ae128-w4 config (d = 128, 4 workers, inversion every
# 10 steps, 12 iterations) runs here in a process of its own.
def test_a_fresh_process_trains_the_kfac_benchmark_config_to_a_finite_loss(tmp_path):
    sets = [
        "dataset.kind=random-autoencoder", "dataset.n=1024", "batch=32", "loss=mse",
        "net.activation=tanh", "lr=0.01", "optimizer=kfac", "net.dims=128,128,128,128",
        "dataset.dim=128", "workers=4", "inversion_period=10", "iterations=12", "damping=0.1",
    ]
    out = tmp_path / "run"
    code = "import sys; from kronopt.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = ["train", "--seed", "7", "--out", str(out), *(a for s in sets for a in ("--set", s))]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(linalg.__file__))}
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    with open(out / "summary.json") as fh:
        assert np.isfinite(json.load(fh)["final_loss"])


class TestOuter:
    def test_basis(self):
        e1 = np.array([1.0, 0.0, 0.0])
        m = outer(e1, e1)
        want = np.zeros((3, 3))
        want[0, 0] = 1.0
        assert np.array_equal(m, want)

    def test_hand_expansion(self):
        m = outer(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.array_equal(m, np.array([[3.0, 4.0], [6.0, 8.0]]))

    def test_rank_one_by_minor_check(self):
        rng = make_rng(7)
        m = outer(rng.standard_normal(16), rng.standard_normal(16))
        assert rank_via_minors(m, tol=1e-12)


class TestDirectInverse:
    def test_diagonal(self):
        inv = direct_inverse(np.diag([2.0, 4.0]))
        assert np.allclose(inv, np.diag([0.5, 0.25]), atol=1e-15)

    def test_identity(self):
        assert np.array_equal(direct_inverse(np.eye(4)), np.eye(4))

    def test_spd_residual(self):
        rng = make_rng(11)
        m = random_spd(rng, 32)
        inv = direct_inverse(m)
        residual = inf_norm(m @ inv - np.eye(32))
        assert residual < 1e-9

    def test_residual_bound_random_spd(self):
        rng = make_rng(5)
        for d in (4, 16, 64):
            m = random_spd(rng, d)
            residual = inf_norm(m @ direct_inverse(m) - np.eye(d))
            assert residual < 1e-8 * d

    def test_singular_raises(self):
        m = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrix) as exc:
            direct_inverse(m)
        assert str(exc.value) == "not positive-definite: pivot 0.000e+00 at column 1"

    def test_zero_raises(self):
        with pytest.raises(SingularMatrix):
            direct_inverse(np.zeros((3, 3)))

    def test_matches_numpy(self):
        rng = make_rng(13)
        x = rng.standard_normal((10, 10))
        m = x @ x.T + 5 * np.eye(10)
        assert np.allclose(direct_inverse(m), np.linalg.inv(m), atol=1e-10)

    def test_rejects_input_that_is_not_exactly_symmetric(self):
        m = np.array([[2.0, 1.0], [np.nextafter(1.0, 2.0), 2.0]])  # one ulp off
        with pytest.raises(linalg.LinalgError, match="^cholesky: input is not exactly symmetric$"):
            direct_inverse(m)

    # The NaN-aware compare forgives a NaN only where its mirror is a NaN too.
    @pytest.mark.parametrize("where", [(3, 1), (1, 3)])
    def test_rejects_a_nan_whose_mirror_is_not_a_nan(self, where):
        m = _diagonally_dominant(6, 5)
        m[where] = np.nan
        with pytest.raises(linalg.LinalgError, match="^cholesky: input is not exactly symmetric$"):
            direct_inverse(m)


@st.composite
def _spd_with_condition(draw):
    """(M, eigenvalues, condition number): M = Q diag(lam) Q^T, made exactly
    symmetric, with lam log-spaced over [1, cond] and Q a random orthogonal."""
    n = draw(st.integers(1, 32))
    cond = 10.0 ** draw(st.floats(0.0, 8.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.geomspace(1.0, cond, n)
    m = (q * lam) @ q.T
    return (m + m.T) / 2, lam, cond


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(case=_spd_with_condition())
def test_spd_inverse_is_exactly_symmetric_and_agrees_with_numpy_and_jacobi(case):
    m, lam, cond = case
    inv = direct_inverse(m)
    assert np.array_equal(inv, inv.T)
    # forward error of an inverse grows as cond * eps; 1e-14 is about 45 eps
    tol = 1e-14 * cond
    want = np.linalg.inv(m)
    assert np.max(np.abs(inv - want)) <= tol * np.max(np.abs(want))
    # Weyl: each eigenvalue moves by at most ||error||_2 <= n * max|error|,
    # and the largest eigenvalue of the inverse is 1/lam[0] = 1
    eig = jacobi_eigenvalues(inv)
    assert np.max(np.abs(eig - np.sort(1.0 / lam))) <= len(lam) * tol


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_hand_factorization(self):
        c = cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]))
        want = np.array([[2.0, 0.0], [1.0, np.sqrt(2.0)]])
        assert np.allclose(c, want, atol=1e-15)

    def test_negative_definite_fails(self):
        with pytest.raises(SingularMatrix) as exc:
            cholesky(-np.eye(3))
        assert str(exc.value) == "not positive-definite: pivot -1.000e+00 at column 0"

    def test_reconstruction(self):
        rng = make_rng(17)
        m = random_spd(rng, 12)
        c = cholesky(m)
        assert np.allclose(c @ c.T, m, atol=1e-10)

    def test_agrees_with_jacobi_sign(self):
        rng = make_rng(19)
        for _ in range(20):
            d = int(rng.integers(2, 10))
            base = random_spd(rng, d, jitter=0.0)
            eigs = jacobi_eigenvalues(base)
            shift_pd = base + (abs(eigs[0]) + 0.1) * np.eye(d)
            shift_nd = base - (eigs[-1] + 0.1) * np.eye(d)
            cholesky(shift_pd)
            # every diagonal entry of a negative-definite matrix is negative
            with pytest.raises(SingularMatrix, match=r"at column 0$"):
                cholesky(shift_nd)

    def test_non_square_raises(self):
        with pytest.raises(DimensionMismatch):
            cholesky(np.ones((2, 3)))

    @pytest.mark.parametrize("jitter", [0.25, 0.5])
    def test_make_spd_is_exactly_symmetric_without_symmetrizing(self, jitter):
        # numpy forms x @ x.T from one triangle and mirrors it; / d and
        # + jitter*I act entrywise, so the verify-lemmas inputs need no (M + M^T)/2
        rng = make_rng(41)
        for d in range(1, 65):
            m = make_spd(rng, d, jitter)
            assert m.tobytes() == np.ascontiguousarray(m.T).tobytes(), d
            cholesky(m)


class TestPowerIteration:
    def test_diag(self):
        lmax, v = power_iteration(np.diag([1.0, 10.0]))
        assert abs(lmax - 10.0) < 1e-8
        assert abs(abs(v[1]) - 1.0) < 1e-8

    def test_identity(self):
        lmax, _ = power_iteration(np.eye(4))
        assert abs(lmax - 1.0) < 1e-10

    def test_against_jacobi(self):
        rng = make_rng(23)
        m = random_spd(rng, 16)
        eigs = jacobi_eigenvalues(m)
        lmax, _ = power_iteration(m, iters=500)
        assert abs(lmax - eigs[-1]) < 0.01 * eigs[-1]


class TestJacobiOracle:
    @staticmethod
    def assert_matches_eigvalsh(m):
        want = np.linalg.eigvalsh(m)
        got = jacobi_eigenvalues(m)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_draw_where_norm_by_subtraction_went_negative(self):
        # The 14th matrix of TestCholesky.test_agrees_with_jacobi_sign: there
        # sum(a*a) - sum(diag(a)**2) came out negative near convergence.
        rng = make_rng(19)
        for _ in range(14):
            d = int(rng.integers(2, 10))
            base = random_spd(rng, d, jitter=0.0)
        assert d == 5
        self.assert_matches_eigvalsh(base)

    def test_tiny_coupling_does_not_overflow(self):
        # The unit coupling forces a sweep; the 1e-200 entries then give
        # |tau| ~ 1e200, whose square overflows.
        m = np.array([[2.0, 1.0, 1e-200], [1.0, 3.0, 1e-200], [1e-200, 1e-200, 5.0]])
        self.assert_matches_eigvalsh(m)

    def test_raises_when_not_converged(self):
        m = random_spd(make_rng(37), 6)
        with pytest.raises(ArithmeticError, match="off-diagonal norm"):
            jacobi_eigenvalues(m, sweeps=1)


class TestPlumbing:
    def test_matvec_matches_loop(self):
        rng = make_rng(29)
        m = rng.standard_normal((6, 4))
        v = rng.standard_normal(4)
        want = np.array([sum(float(m[i, j]) * float(v[j]) for j in range(4)) for i in range(6)])
        assert np.allclose(matvec(m, v), want, rtol=1e-13)

    # Also at the bias gradient's shape (256 x 32).  One entry in 8 is +0.0 and
    # one in 8 is -0.0, and row 0 is all -0.0, whose sum from 0.0 is +0.0.
    def test_mean_columns_bitwise(self):
        rng = make_rng(31)
        for shape in ((8, 5), (256, 32)):
            m = rng.standard_normal(shape)
            m[rng.uniform(size=shape) < 1.0 / 8] = 0.0
            m[rng.uniform(size=shape) < 1.0 / 8] = -0.0
            m[0] = -0.0
            want = mean_columns_loops(m).tobytes()
            assert mean_columns(m).tobytes() == want
            assert mean_columns(np.asfortranarray(m)).tobytes() == want

    def test_mean_columns_hand(self):
        assert np.array_equal(
            mean_columns(np.array([[1.0, 3.0], [2.0, 4.0]])), np.array([2.0, 3.0])
        )

    def test_inf_norm_row_sums(self):
        m = np.array([[1.0, -2.0], [3.0, 4.0]])
        assert inf_norm(m) == 7.0

    def test_scale_add(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(linalg.scale(m, 2.0), 2.0 * m)
        assert np.array_equal(linalg.add(m, m), 2.0 * m)

    # The kernels read n x n entries of F and n of u, so a shape that does not
    # match is refused before they run.
    def test_the_one_pass_refresh_rejects_a_shape_it_cannot_write(self):
        with pytest.raises(DimensionMismatch, match=r"scale_rank1: non-square \(2, 3\)"):
            linalg.scale_rank1(np.ones((2, 3)), np.ones(2), 1.0, 1.0)
        with pytest.raises(DimensionMismatch, match=r"scale_rank1: \(2, 2\) and \(3,\)"):
            linalg.scale_rank1(np.eye(2), np.ones(3), 1.0, 1.0)
        with pytest.raises(DimensionMismatch, match=r"blend_identity: non-square \(3, 2\)"):
            linalg.blend_identity(np.ones((3, 2)), 0.5)

    def test_frobenius(self):
        assert abs(linalg.frobenius_norm(np.array([[3.0, 4.0]])) - 5.0) < 1e-15


class TestDeterminism:
    def test_rng_reproducible(self):
        a = make_rng(123).standard_normal(100)
        b = make_rng(123).standard_normal(100)
        assert np.array_equal(a, b)

    def test_ops_bitwise_repeatable(self):
        rng1, rng2 = make_rng(9), make_rng(9)
        a1, b1 = rng1.standard_normal((12, 12)), rng1.standard_normal((12, 12))
        a2, b2 = rng2.standard_normal((12, 12)), rng2.standard_normal((12, 12))
        assert np.array_equal(matmul(a1, b1), matmul(a2, b2))
        m1 = random_spd(make_rng(10), 8)
        m2 = random_spd(make_rng(10), 8)
        assert np.array_equal(direct_inverse(m1), direct_inverse(m2))
