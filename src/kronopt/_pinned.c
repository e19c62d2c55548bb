/* Pinned-order dense kernels for kronopt.linalg: the product C = A B, the
 * gram matrix X X^T, the Cholesky factor of a symmetric positive-definite
 * matrix and the inverse of a lower-triangular matrix; and two elementwise
 * passes of the rank-1 factor refresh, alpha F + c u u^T and alpha F + beta I.
 *
 * In the four dense kernels every entry is a sum that starts at 0.0 and takes
 * acc = acc + u * v for its terms in a fixed ascending order: one rounded
 * multiply and one rounded add per term, the scalar loop's work.  Vectors run
 * across output entries only, never across the summed index.  The two
 * elementwise passes sum nothing, so they have no order to pin: each entry
 * takes the rounded multiplies and adds of numpy's whole-array chain, so the
 * same bits on any CPU.  (When both operands of one operation are NaN, which
 * one's sign and payload the result keeps is the instruction's choice, and
 * the compiler orders commutative operands; IEEE 754 leaves it open.)  Built
 * with -ffp-contract=off and without fast-math, so no path fuses a
 * multiply-add.  Nothing here allocates: every buffer is the caller's.
 */
#include <emmintrin.h>
#include <float.h>
#include <stddef.h>
#include <string.h>

typedef double v2 __attribute__((vector_size(16)));
typedef double v4 __attribute__((vector_size(32)));
typedef double v8 __attribute__((vector_size(64)));

/* KERNELS(isa, vec, lanes, height, target) defines the six entry points of
 * one instruction set, each exported under its name with the suffix _isa;
 * they are the entries of kronopt.linalg._ENTRIES.
 *
 * isa_block is the one tile sum: a tile of C, rows rows by 2 vec (2 * lanes
 * columns) at c with row stride ldc, held in registers (8 rows by 16 columns
 * with AVX-512, 4 by 8 with AVX2, 4 by 4 with SSE2), takes the terms
 * a[r * ars + p * acs] * b[p * ldb + t] for p in [p0, p1), from +0.0 when
 * fresh is 1 or from the partial sums stored in C when it is 0.  A double
 * stored and loaded again is unchanged, so a sum split at any p takes the
 * bits of one unbroken loop.  rows and fresh are constants once inlined, and
 * the unroll count is the tallest tile's.  Each instruction set has its own
 * vector width: without AVX, GCC splits a 4-wide vector through memory.
 *
 * pinned_matmul_isa: C = A B, A read through its strides (in elements), the
 * rows of B and of C contiguous, n elements long.  isa_rows fills height
 * rows (one for the last m % height) with whole tiles from +0.0 over all k
 * terms, then sums the last n % (2 * lanes) columns one at a time.
 *
 * pinned_gram_isa: C = X X^T for X (m x k, read through its strides) given
 * with its transpose XT (k x m, contiguous).  Each row's tiles start at the
 * last tile boundary at or before the diagonal, so every entry on and above
 * it is summed; the entries below are then copied from their mirror.  Entry
 * (j, i) takes the products of entry (i, j) in the same order, and IEEE
 * multiplication commutes, so the result is bitwise matmul(X, X^T).
 *
 * The two triangular kernels write rows of stride ld, a multiple of 16 (the
 * widest tile) and at least n, so their tiles never need a column tail.
 * Both work in panels of height rows (one row for the last n % height):
 * a panel's tiles first take, together, the terms from the rows above it,
 * then each of its rows in turn takes the terms from the panel rows above
 * it and is finished.
 *
 * pinned_cholesky_isa: the factor C of M = C C^T, written transposed: row j
 * of u holds column j of C, zeros before the diagonal.  Entry (i, j) of C is
 * (m[i,j] - sum_{p<j} c[i,p] c[j,p]) / c[j,j], and pivot j is
 * m[j,j] - sum_{p<j} c[j,p] c[j,p], whose square root is c[j,j].  M is
 * exactly symmetric, so m[j,i] stands for m[i,j].  Returns -1, or the first
 * column whose pivot is not positive and finite, with that pivot left in
 * u[j * ld + j].  Past column n, row j of u holds scratch sums.
 *
 * pinned_tril_inverse_isa: X = C^-1 for a finite lower-triangular C (read
 * through its strides) with a nonzero diagonal, as every factor of
 * pinned_cholesky is: x[i,i] = 1 / c[i,i] and, for j < i,
 * x[i,j] = -(sum_{p=j}^{i-1} c[i,p] x[p,j]) / c[i,i].  Zeros fill each row
 * of x past its diagonal.  A tile of row i sums p from its own first column
 * j0, so it also takes the terms j0 <= p < j of its entry j.  Those are
 * finite times the +0.0 above the diagonal of X, and a sum that starts at
 * +0.0 is never -0.0, so they leave it unchanged.  Only tiles that meet the
 * triangle are visited.
 *
 * pinned_scale_rank1_isa: out = alpha F + c u u^T for an n x n F, rows
 * contiguous: out[i,j] = f[i,j] * alpha + (u[i] * u[j]) * c, the entries of
 * numpy's add(F * alpha, outer(u, u) * c).
 *
 * pinned_scale_shift_isa: out = alpha F + beta I for an n x n F, rows
 * contiguous: f[i,j] * alpha plus the scaled identity's entry, beta on the
 * diagonal and beta * 0.0 off it, the entries of numpy's
 * add(F * alpha, I * beta).  For beta >= 0 that adds +0.0, which turns a
 * -0.0 of F * alpha into +0.0, as the chain does.
 */
#define KERNELS(isa, vec, lanes, height, target)                                           \
    static inline __attribute__((always_inline, target)) void                              \
    isa##_block(const double *a, ptrdiff_t ars, ptrdiff_t acs, const double *b,            \
                ptrdiff_t ldb, double *c, ptrdiff_t ldc, int rows, ptrdiff_t p0,           \
                ptrdiff_t p1, int fresh)                                                   \
    {                                                                                      \
        vec acc[height][2];                                                                \
        _Pragma("GCC unroll 8") for (int r = 0; r < rows; r++) {                           \
            if (fresh) {                                                                   \
                acc[r][0] = acc[r][1] = (vec){0.0};                                        \
            } else {                                                                       \
                memcpy(&acc[r][0], c + r * ldc, sizeof(vec));                              \
                memcpy(&acc[r][1], c + r * ldc + lanes, sizeof(vec));                      \
            }                                                                              \
        }                                                                                  \
        for (ptrdiff_t p = p0; p < p1; p++) {                                              \
            vec b0, b1;                                                                    \
            memcpy(&b0, b + p * ldb, sizeof b0);                                           \
            memcpy(&b1, b + p * ldb + lanes, sizeof b1);                                   \
            _Pragma("GCC unroll 8") for (int r = 0; r < rows; r++) {                       \
                double x = a[r * ars + p * acs];                                           \
                acc[r][0] = acc[r][0] + x * b0;                                            \
                acc[r][1] = acc[r][1] + x * b1;                                            \
            }                                                                              \
        }                                                                                  \
        _Pragma("GCC unroll 8") for (int r = 0; r < rows; r++) {                           \
            memcpy(c + r * ldc, &acc[r][0], sizeof(vec));                                  \
            memcpy(c + r * ldc + lanes, &acc[r][1], sizeof(vec));                          \
        }                                                                                  \
    }                                                                                      \
    static inline __attribute__((always_inline, target)) void                              \
    isa##_rows(const double *a, ptrdiff_t ars, ptrdiff_t acs, const double *b, double *c,  \
               int rows, ptrdiff_t k, ptrdiff_t n, ptrdiff_t j)                            \
    {                                                                                      \
        for (; j + 2 * lanes <= n; j += 2 * lanes)                                         \
            isa##_block(a, ars, acs, b + j, n, c + j, n, rows, 0, k, 1);                   \
        for (; j < n; j++) {                                                               \
            double acc[height] = {0.0};                                                    \
            for (ptrdiff_t p = 0; p < k; p++)                                              \
                _Pragma("GCC unroll 8") for (int r = 0; r < rows; r++)                     \
                    acc[r] = acc[r] + a[r * ars + p * acs] * b[p * n + j];                 \
            _Pragma("GCC unroll 8") for (int r = 0; r < rows; r++)                         \
                c[r * n + j] = acc[r];                                                     \
        }                                                                                  \
    }                                                                                      \
    __attribute__((target)) void                                                           \
    pinned_matmul_##isa(const double *a, ptrdiff_t ars, ptrdiff_t acs, const double *b,    \
                        double *c, ptrdiff_t m, ptrdiff_t k, ptrdiff_t n)                  \
    {                                                                                      \
        ptrdiff_t i = 0;                                                                   \
        for (; i + height <= m; i += height)                                               \
            isa##_rows(a + i * ars, ars, acs, b, c + i * n, height, k, n, 0);              \
        for (; i < m; i++)                                                                 \
            isa##_rows(a + i * ars, ars, acs, b, c + i * n, 1, k, n, 0);                   \
    }                                                                                      \
    __attribute__((target)) void                                                           \
    pinned_gram_##isa(const double *x, ptrdiff_t xrs, ptrdiff_t xcs, const double *xt,     \
                      double *c, ptrdiff_t m, ptrdiff_t k)                                 \
    {                                                                                      \
        ptrdiff_t i = 0;                                                                   \
        for (; i + height <= m; i += height)                                               \
            isa##_rows(x + i * xrs, xrs, xcs, xt, c + i * m, height, k, m,                 \
                       i - i % (2 * lanes));                                               \
        for (; i < m; i++)                                                                 \
            isa##_rows(x + i * xrs, xrs, xcs, xt, c + i * m, 1, k, m,                      \
                       i - i % (2 * lanes));                                               \
        for (i = 1; i < m; i++)                                                            \
            for (ptrdiff_t j = 0; j < i; j++)                                              \
                c[i * m + j] = c[j * m + i];                                               \
    }                                                                                      \
    __attribute__((target)) ptrdiff_t                                                      \
    pinned_cholesky_##isa(const double *m, double *u, ptrdiff_t n, ptrdiff_t ld)           \
    {                                                                                      \
        for (ptrdiff_t j = 0; j < n;) {                                                    \
            ptrdiff_t panel = j, rows = j + height <= n ? height : 1;                      \
            memset(u + j * ld, 0, rows * ld * sizeof *u);                                  \
            for (ptrdiff_t i = j - j % (2 * lanes); i < ld; i += 2 * lanes) {              \
                if (rows == height)                                                        \
                    isa##_block(u + j, 1, ld, u + i, ld, u + j * ld + i, ld, height,       \
                                0, j, 0);                                                  \
                else                                                                       \
                    isa##_block(u + j, 1, ld, u + i, ld, u + j * ld + i, ld, 1,            \
                                0, j, 0);                                                  \
            }                                                                              \
            for (; j < panel + rows; j++) {                                                \
                double *uj = u + j * ld;                                                   \
                for (ptrdiff_t i = j - j % (2 * lanes); i < ld; i += 2 * lanes)            \
                    isa##_block(u + j, 1, ld, u + i, ld, uj + i, ld, 1, panel, j, 0);      \
                double d = m[j * n + j] - uj[j];                                           \
                if (!(d > 0.0 && d <= DBL_MAX)) {                                          \
                    uj[j] = d;                                                             \
                    return j;                                                              \
                }                                                                          \
                double pivot = _mm_cvtsd_f64(_mm_sqrt_sd(_mm_set_sd(d), _mm_set_sd(d)));   \
                for (ptrdiff_t i = j - j % (2 * lanes); i < j; i++)                        \
                    uj[i] = 0.0;                                                           \
                uj[j] = pivot;                                                             \
                for (ptrdiff_t i = j + 1; i < n; i++)                                      \
                    uj[i] = (m[j * n + i] - uj[i]) / pivot;                                \
            }                                                                              \
        }                                                                                  \
        return -1;                                                                         \
    }                                                                                      \
    __attribute__((target)) void                                                           \
    pinned_tril_inverse_##isa(const double *c, ptrdiff_t rs, ptrdiff_t cs, double *x,      \
                              ptrdiff_t n, ptrdiff_t ld)                                   \
    {                                                                                      \
        for (ptrdiff_t i = 0; i < n;) {                                                    \
            ptrdiff_t panel = i, rows = i + height <= n ? height : 1;                      \
            memset(x + i * ld, 0, rows * ld * sizeof *x);                                  \
            for (ptrdiff_t j = 0; j < i; j += 2 * lanes) {                                 \
                if (rows == height)                                                        \
                    isa##_block(c + i * rs, rs, cs, x + j, ld, x + i * ld + j, ld, height, \
                                j, i, 0);                                                  \
                else                                                                       \
                    isa##_block(c + i * rs, rs, cs, x + j, ld, x + i * ld + j, ld, 1, j,   \
                                i, 0);                                                     \
            }                                                                              \
            for (; i < panel + rows; i++) {                                                \
                double *xi = x + i * ld, cii = c[i * rs + i * cs];                         \
                for (ptrdiff_t j = 0; j < i; j += 2 * lanes)                               \
                    isa##_block(c + i * rs, rs, cs, x + j, ld, xi + j, ld, 1,              \
                                j > panel ? j : panel, i, 0);                              \
                for (ptrdiff_t j = 0; j < i; j++)                                          \
                    xi[j] = -xi[j] / cii;                                                  \
                xi[i] = 1.0 / cii;                                                         \
                for (ptrdiff_t j = i + 1; j < ld; j++)                                     \
                    xi[j] = 0.0;                                                           \
            }                                                                              \
        }                                                                                  \
    }                                                                                      \
    __attribute__((target)) void                                                           \
    pinned_scale_rank1_##isa(const double *f, const double *u, double alpha, double c,     \
                             double *out, ptrdiff_t n)                                     \
    {                                                                                      \
        for (ptrdiff_t i = 0; i < n; i++) {                                                \
            const double *fi = f + i * n;                                                  \
            double *oi = out + i * n, ui = u[i];                                           \
            ptrdiff_t j = 0;                                                               \
            for (; j + lanes <= n; j += lanes) {                                           \
                vec x, y;                                                                  \
                memcpy(&x, fi + j, sizeof x);                                              \
                memcpy(&y, u + j, sizeof y);                                               \
                x = x * alpha + ui * y * c;                                                \
                memcpy(oi + j, &x, sizeof x);                                              \
            }                                                                              \
            for (; j < n; j++)                                                             \
                oi[j] = fi[j] * alpha + ui * u[j] * c;                                     \
        }                                                                                  \
    }                                                                                      \
    __attribute__((target)) void                                                           \
    pinned_scale_shift_##isa(const double *f, double alpha, double beta, double *out,      \
                             ptrdiff_t n)                                                  \
    {                                                                                      \
        double off = beta * 0.0;                                                           \
        ptrdiff_t k = 0;                                                                   \
        for (; k + lanes <= n * n; k += lanes) {                                           \
            vec x;                                                                         \
            memcpy(&x, f + k, sizeof x);                                                   \
            x = x * alpha + off;                                                           \
            memcpy(out + k, &x, sizeof x);                                                 \
        }                                                                                  \
        for (; k < n * n; k++)                                                             \
            out[k] = f[k] * alpha + off;                                                   \
        for (k = 0; k < n; k++)                                                            \
            out[k * n + k] = f[k * n + k] * alpha + beta;                                  \
    }

KERNELS(avx512, v8, 8, 8, target("avx512f"))
KERNELS(avx2, v4, 4, 4, target("avx2"))
KERNELS(sse2, v2, 2, 4, target("sse2"))

/* The index in kronopt.linalg.PATHS (avx512, avx2, sse2) of the widest path
 * the CPU runs: linalg binds that path's entry points once, at import. */
int pinned_path(void)
{
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return 0;
    return __builtin_cpu_supports("avx2") ? 1 : 2;
}
