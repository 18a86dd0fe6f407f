/* Row work of solver.step around its two sparse products, on C-contiguous
 * float64 (n, r) arrays.  update_point takes C s and returns with the
 * update point, or at d = 1 its normalization, in the same array; finish
 * takes st' and C st' and forms s' and the norms the new state stores.
 *
 * Every elementwise formula is that of the numpy step, operation for
 * operation, and the row norms repeat numpy's pairwise summation, so the
 * update point, its row norms and st' are bit-identical to the numpy
 * step's.  The sums of finish run in a fixed order of their own.
 *
 * Built without -ffast-math and with -ffp-contract=off: no sum may be
 * reordered and no multiply-add fused, or the bits above would differ.
 */

#include <math.h>
#include <stddef.h>

/* Sum of squares of the n entries at a, in the order of numpy's
 * pairwise summation (DOUBLE_pairwise_sum), which np.linalg.norm(axis=1)
 * runs on the squared entries of a C-contiguous row. */
static double sum_squares(const double *a, ptrdiff_t n)
{
    ptrdiff_t i;
    if (n < 8) {
        double res = 0.0;
        for (i = 0; i < n; i++)
            res += a[i] * a[i];
        return res;
    }
    if (n <= 128) {
        double p[8];
        int k;
        for (k = 0; k < 8; k++)
            p[k] = a[k] * a[k];
        for (i = 8; i < n - n % 8; i += 8)
            for (k = 0; k < 8; k++)
                p[k] += a[i + k] * a[i + k];
        double res = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]));
        for (; i < n; i++)
            res += a[i] * a[i];
        return res;
    }
    ptrdiff_t half = n / 2;
    half -= half % 8;
    return sum_squares(a, half) + sum_squares(a + half, n - half);
}

/* The update point of solver.gamma, formed in place in cs, which holds
 * C s on entry: s - (y + C s) / rho at mu = 0, else
 * (mu st + rho s - (y + C s)) / (rho + mu); st is read only when mu > 0.
 *
 * Returns the smallest row norm of the update point, or NaN where some
 * row norm is NaN or lies outside [lo, hi].  At d = 1 each row is then
 * divided by its norm, unless NaN was returned: no row is normalized
 * before every norm has been checked. */
double update_point(double *restrict cs, const double *restrict y, const double *restrict s,
                    const double *restrict st, ptrdiff_t n, ptrdiff_t r, ptrdiff_t d,
                    double rho, double mu, double lo, double hi)
{
    ptrdiff_t size = n * r, i;
    if (mu == 0.0) {
        for (i = 0; i < size; i++)
            cs[i] = s[i] - (y[i] + cs[i]) / rho;
    } else {
        double total = rho + mu;
        for (i = 0; i < size; i++)
            cs[i] = (mu * st[i] + rho * s[i] - (y[i] + cs[i])) / total;
    }
    double least = INFINITY;
    for (i = 0; i < n; i++) {
        double norm = sqrt(sum_squares(cs + i * r, r));
        if (!(norm >= lo && norm <= hi))
            return NAN;
        if (norm < least)
            least = norm;
    }
    if (d == 1) {
        for (i = 0; i < n; i++) {
            double *row = cs + i * r, norm = sqrt(sum_squares(row, r));
            ptrdiff_t k;
            for (k = 0; k < r; k++)
                row[k] = row[k] / norm;
        }
    }
    return least;
}

/* s' = st' + (y - C st') / rho into sn, and into sums, each summed over
 * four interleaved partial sums added in a fixed order: the objective
 * <C st', st'>, ||st' - s'||^2, and the squared moves ||st' - pst||^2 and
 * ||s' - ps||^2 from the previous iterate (pst, ps). */
void finish(const double *restrict st, const double *restrict cst, const double *restrict y,
            const double *pst, const double *ps, double *restrict sn, ptrdiff_t size,
            double rho, double *restrict sums)
{
    double acc[4][4] = {{0.0}};
    ptrdiff_t i, lane;
    for (i = 0; i < size; i += 4) {
        ptrdiff_t lanes = size - i < 4 ? size - i : 4;
        for (lane = 0; lane < lanes; lane++) {
            ptrdiff_t j = i + lane;
            double snew = st[j] + (y[j] - cst[j]) / rho;
            double gap = st[j] - snew, move = st[j] - pst[j], shift = snew - ps[j];
            sn[j] = snew;
            acc[0][lane] += cst[j] * st[j];
            acc[1][lane] += gap * gap;
            acc[2][lane] += move * move;
            acc[3][lane] += shift * shift;
        }
    }
    for (i = 0; i < 4; i++)
        sums[i] = (acc[i][0] + acc[i][1]) + (acc[i][2] + acc[i][3]);
}
