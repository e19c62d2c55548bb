/* Pinned-order matrix product C = A B for kronopt.linalg.matmul.
 *
 * Entry (i, j) starts at 0.0 and takes acc = acc + a[i,p] * b[p,j] for p
 * ascending: one rounded multiply and one rounded add per term, the scalar
 * triple loop's work.  Vectors run across output entries only, never across
 * p.  Built with -ffp-contract=off and without fast-math, so no path fuses a
 * multiply-add.  A is read through its strides (in elements); the rows of B
 * and of C are contiguous, n elements long.
 */
#include <stddef.h>
#include <string.h>

typedef double v2 __attribute__((vector_size(16)));
typedef double v4 __attribute__((vector_size(32)));

/* KERNEL(name, vec, lanes, target) defines name(), which computes C in tiles
 * of 4 rows by 2 vec (2 * lanes columns) held in registers.  The last m % 4
 * rows take tiles of one row, and the last n % (2 * lanes) columns are summed
 * one column at a time, 4 rows at once.  rows is a constant once inlined.
 * Each instruction set gets its own vector width: without AVX, GCC splits a
 * 4-wide vector through memory, which ran under 1 GFLOP/s. */
#define KERNEL(name, vec, lanes, target)                                                     \
    static inline __attribute__((always_inline, target)) void                              \
    name##_rows(const double *a, ptrdiff_t ars, ptrdiff_t acs, const double *b, double *c, \
                int rows, ptrdiff_t k, ptrdiff_t n)                                        \
    {                                                                                      \
        ptrdiff_t j = 0;                                                                   \
        for (; j + 2 * lanes <= n; j += 2 * lanes) {                                       \
            vec acc[4][2] = {{{0.0}}};                                                     \
            for (ptrdiff_t p = 0; p < k; p++) {                                            \
                vec b0, b1;                                                                \
                memcpy(&b0, b + p * n + j, sizeof b0);                                     \
                memcpy(&b1, b + p * n + j + lanes, sizeof b1);                             \
                _Pragma("GCC unroll 4") for (int r = 0; r < rows; r++) {                   \
                    double x = a[r * ars + p * acs];                                       \
                    acc[r][0] = acc[r][0] + x * b0;                                        \
                    acc[r][1] = acc[r][1] + x * b1;                                        \
                }                                                                          \
            }                                                                              \
            _Pragma("GCC unroll 4") for (int r = 0; r < rows; r++) {                       \
                memcpy(c + r * n + j, &acc[r][0], sizeof(vec));                             \
                memcpy(c + r * n + j + lanes, &acc[r][1], sizeof(vec));                     \
            }                                                                              \
        }                                                                                  \
        for (; j < n; j++) {                                                               \
            double acc[4] = {0.0, 0.0, 0.0, 0.0};                                          \
            for (ptrdiff_t p = 0; p < k; p++)                                              \
                _Pragma("GCC unroll 4") for (int r = 0; r < rows; r++)                     \
                    acc[r] = acc[r] + a[r * ars + p * acs] * b[p * n + j];                 \
            _Pragma("GCC unroll 4") for (int r = 0; r < rows; r++)                         \
                c[r * n + j] = acc[r];                                                     \
        }                                                                                  \
    }                                                                                      \
    static __attribute__((target)) void                                                    \
    name(const double *a, ptrdiff_t ars, ptrdiff_t acs, const double *b, double *c,        \
         ptrdiff_t m, ptrdiff_t k, ptrdiff_t n)                                            \
    {                                                                                      \
        ptrdiff_t i = 0;                                                                   \
        for (; i + 4 <= m; i += 4)                                                         \
            name##_rows(a + i * ars, ars, acs, b, c + i * n, 4, k, n);                     \
        for (; i < m; i++)                                                                 \
            name##_rows(a + i * ars, ars, acs, b, c + i * n, 1, k, n);                     \
    }

KERNEL(matmul_avx2, v4, 4, target("avx2"))
KERNEL(matmul_sse2, v2, 2, target("sse2"))

typedef void kernel(const double *, ptrdiff_t, ptrdiff_t, const double *, double *,
                    ptrdiff_t, ptrdiff_t, ptrdiff_t);

/* Resolved once, when the library is loaded. */
static kernel *choose(void)
{
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? matmul_avx2 : matmul_sse2;
}

kernel pinned_matmul __attribute__((ifunc("choose")));
