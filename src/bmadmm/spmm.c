/* The CSR product y = C x of sparse.spmm, for a C-contiguous float64 (n, r)
 * array x, into a fresh (n, r) array y.
 *
 * The bits are those of scipy's csr_matvecs, which C._csr @ x runs: each
 * entry y[i, k] starts at 0.0 and adds a_ij * x[j, k] over the stored
 * columns j of row i in ascending order.  Only the r entries of a row of
 * y are formed side by side, in vector registers of two doubles (SSE2 on
 * x86-64, which its baseline has): blocks of eight columns in four
 * registers, then pairs in one, then a last single column.  The starting
 * 0.0 matters: 0.0 + -0.0 is 0.0.
 *
 * Built without -ffast-math and with -ffp-contract=off, for the baseline
 * instruction set: no sum may be reordered and no multiply-add fused, or
 * the bits above would differ.
 */

#include <stddef.h>
#include <stdint.h>

/* Two doubles, loaded from and stored to addresses aligned to a double only. */
typedef double vec2 __attribute__((vector_size(2 * sizeof(double)), aligned(sizeof(double)),
                                   may_alias));

void spmm(const int64_t *restrict row_ptr, const int64_t *restrict col_idx,
          const double *restrict values, const double *restrict x, double *restrict y,
          ptrdiff_t n, ptrdiff_t r)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        const int64_t lo = row_ptr[i], hi = row_ptr[i + 1];
        double *out = y + i * r;
        ptrdiff_t k = 0;
        for (; k + 8 <= r; k += 8) {
            vec2 s0 = {0.0}, s1 = {0.0}, s2 = {0.0}, s3 = {0.0};
            for (int64_t jj = lo; jj < hi; jj++) {
                const double a = values[jj];
                const double *xj = x + col_idx[jj] * r + k;
                s0 += a * *(const vec2 *)xj;
                s1 += a * *(const vec2 *)(xj + 2);
                s2 += a * *(const vec2 *)(xj + 4);
                s3 += a * *(const vec2 *)(xj + 6);
            }
            *(vec2 *)(out + k) = s0;
            *(vec2 *)(out + k + 2) = s1;
            *(vec2 *)(out + k + 4) = s2;
            *(vec2 *)(out + k + 6) = s3;
        }
        for (; k + 2 <= r; k += 2) {
            vec2 s = {0.0};
            for (int64_t jj = lo; jj < hi; jj++)
                s += values[jj] * *(const vec2 *)(x + col_idx[jj] * r + k);
            *(vec2 *)(out + k) = s;
        }
        if (k < r) {
            double s = 0.0;
            for (int64_t jj = lo; jj < hi; jj++)
                s += values[jj] * x[col_idx[jj] * r + k];
            out[k] = s;
        }
    }
}
