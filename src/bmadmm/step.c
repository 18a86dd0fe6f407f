/* Row work of the two solvers around their sparse products, on
 * C-contiguous float64 (n, r) arrays.
 *
 * solver.step: update_point takes C s and returns with the update point,
 * or at d = 1 its normalization, in the same array; finish takes st' and
 * C st' and forms s' and the norms the new state stores.
 *
 * rgd.rgd_solve, at d = 1: trial_point forms a line-search trial s - t g
 * and its normalization; tangent_step forms the tangent gradient at an
 * accepted point and the moves from the last iterate.
 *
 * Every elementwise formula is that of the numpy form, operation for
 * operation, and the row sums repeat numpy's pairwise summation, so the
 * update point, its row norms, st', the trial points and the tangent
 * gradients are bit-identical to numpy's.  The sums of finish run in a
 * fixed order of their own.
 *
 * Built without -ffast-math and with -ffp-contract=off: no sum may be
 * reordered and no multiply-add fused, or the bits above would differ.
 */

#include <math.h>
#include <stddef.h>
#include <stdlib.h>

/* Sum of the n products a[i] * b[i], in the order of numpy's pairwise
 * summation (DOUBLE_pairwise_sum), which np.sum(a * b, axis=1) and
 * np.linalg.norm(a, axis=1) run on the products of C-contiguous rows. */
static double sum_products(const double *a, const double *b, ptrdiff_t n)
{
    ptrdiff_t i;
    if (n < 8) {
        double res = 0.0;
        for (i = 0; i < n; i++)
            res += a[i] * b[i];
        return res;
    }
    if (n <= 128) {
        double p[8];
        int k;
        for (k = 0; k < 8; k++)
            p[k] = a[k] * b[k];
        for (i = 8; i < n - n % 8; i += 8)
            for (k = 0; k < 8; k++)
                p[k] += a[i + k] * b[i + k];
        double res = ((p[0] + p[1]) + (p[2] + p[3])) + ((p[4] + p[5]) + (p[6] + p[7]));
        for (; i < n; i++)
            res += a[i] * b[i];
        return res;
    }
    ptrdiff_t half = n / 2;
    half -= half % 8;
    return sum_products(a, b, half) + sum_products(a + half, b + half, n - half);
}

/* The norms of the n rows of length r at p, stored in norms unless it is
 * NULL.  Returns the smallest, or NaN as soon as some norm is NaN or lies
 * outside [lo, hi]. */
static double row_norms(const double *p, ptrdiff_t n, ptrdiff_t r, double lo, double hi,
                        double *norms)
{
    double least = INFINITY;
    ptrdiff_t i;
    for (i = 0; i < n; i++) {
        double norm = sqrt(sum_products(p + i * r, p + i * r, r));
        if (!(norm >= lo && norm <= hi))
            return NAN;
        if (norms != NULL)
            norms[i] = norm;
        if (norm < least)
            least = norm;
    }
    return least;
}

/* Divides each of the n rows of length r at p by its norm, as
 * manifold.normalize_rows does, and returns the smallest norm.  Where
 * some norm is NaN or lies outside [lo, hi], or no memory is left for
 * the norms, returns NaN and leaves p as it was: no row is divided
 * before every norm has been checked. */
static double normalize(double *p, ptrdiff_t n, ptrdiff_t r, double lo, double hi)
{
    double *norms = malloc(n * sizeof *norms);
    ptrdiff_t i, k;
    if (norms == NULL)
        return NAN;
    double least = row_norms(p, n, r, lo, hi, norms);
    if (!isnan(least)) {
        for (i = 0; i < n; i++) {
            double *row = p + i * r;
            for (k = 0; k < r; k++)
                row[k] = row[k] / norms[i];
        }
    }
    free(norms);
    return least;
}

/* The update point of solver.gamma, formed in place in cs, which holds
 * C s on entry: s - (y + C s) / rho at mu = 0, else
 * (mu st + rho s - (y + C s)) / (rho + mu); st is read only when mu > 0.
 *
 * Returns the smallest row norm of the update point, or NaN where some
 * row norm is NaN or lies outside [lo, hi].  At d = 1 the rows are then
 * normalized, unless NaN was returned. */
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
    return d == 1 ? normalize(cs, n, r, lo, hi) : row_norms(cs, n, r, lo, hi, NULL);
}

/* The line-search trial p = s - t g of rgd._line_search, formed into p:
 * the product first, then the difference.  Returns -1 where some row
 * norm of p is NaN or lies outside [lo, hi], and leaves p unnormalized;
 * else normalizes the rows of p and returns 1 where p equalled s entry
 * for entry before that (the rounding-floor test of the line search), 0
 * where it did not. */
int trial_point(double *restrict p, const double *restrict s, const double *restrict g,
                ptrdiff_t n, ptrdiff_t r, double t, double lo, double hi)
{
    ptrdiff_t size = n * r, i;
    int same = 1;
    for (i = 0; i < size; i++) {
        p[i] = s[i] - t * g[i];
        same &= p[i] == s[i];
    }
    return isnan(normalize(p, n, r, lo, hi)) ? -1 : same;
}

/* The tangent gradient of manifold.sphere_tangent at the accepted point
 * sn, with C sn at csn: gn = G - <sn_i, G_i> sn_i row by row, G = 2 C sn.
 * Also the moves from the last iterate s and its gradient g: dx = sn - s
 * and dg = gn - g. */
void tangent_step(const double *restrict sn, const double *restrict csn,
                  const double *restrict s, const double *restrict g, double *restrict gn,
                  double *restrict dx, double *restrict dg, ptrdiff_t n, ptrdiff_t r)
{
    ptrdiff_t i, k;
    for (i = 0; i < n * r; i += r) {
        const double *row = sn + i;
        double *grad = gn + i;
        for (k = 0; k < r; k++)
            grad[k] = 2.0 * csn[i + k];
        /* numpy's row sum starts from its identity 0.0, which turns -0.0 to 0.0 */
        double coeff = 0.0 + sum_products(row, grad, r);
        for (k = 0; k < r; k++) {
            grad[k] = grad[k] - coeff * row[k];
            dx[i + k] = row[k] - s[i + k];
            dg[i + k] = grad[k] - g[i + k];
        }
    }
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
