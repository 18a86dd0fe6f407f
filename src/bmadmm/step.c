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
 * solver._Anderson, the type-II Anderson memory of solver.solve, in
 * struct anderson below: finish_update, the one route of each of solve's
 * evaluations, does the work of finish at the evaluated point z and
 * stores the new map value and its residual; anderson_commit makes it the
 * current point once it is accepted, and anderson_extrapolate forms the
 * next point.  Their products and their Cholesky solve are calls of the
 * BLAS and LAPACK routines that numpy and scipy call, bound by address
 * (bind_blas), with numpy's arguments; everything else is elementwise.
 * So the memory keeps the numpy memory's bits.
 *
 * Built without -ffast-math and with -ffp-contract=off: no sum may be
 * reordered and no multiply-add fused, or the bits above would differ.
 */

#include <math.h>
#include <stddef.h>
#include <stdint.h>
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

/* The CBLAS routines of numpy's ILP64 OpenBLAS, and scipy's LP64 dposv,
 * bound by bind_blas before any function below runs. */
enum { ROW_MAJOR = 101, COL_MAJOR = 102, NO_TRANS = 111, TRANS = 112 };
typedef void gemm_fn(int, int, int, int64_t, int64_t, int64_t, double, const double *, int64_t,
                     const double *, int64_t, double, double *, int64_t);
typedef void gemv_fn(int, int, int64_t, int64_t, double, const double *, int64_t, const double *,
                     int64_t, double, double *, int64_t);
typedef void posv_fn(const char *, const int *, const int *, double *, const int *, double *,
                     const int *, int *);
static gemm_fn *dgemm;
static gemv_fn *dgemv;
static posv_fn *dposv;

void bind_blas(void *gemm, void *gemv, void *posv)
{
    dgemm = (gemm_fn *)gemm;
    dgemv = (gemv_fn *)gemv;
    dposv = (posv_fn *)posv;
}

/* The m x 2 products F[:m] @ F[j : j + stride + 1 : stride].T of the
 * C-contiguous rows of length size at F, into out (row-major), by the
 * call numpy's matmul makes: gemv for one row, else gemm. */
void gram_products(const double *F, ptrdiff_t m, ptrdiff_t size, ptrdiff_t j, ptrdiff_t stride,
                   double *out)
{
    if (m == 1)
        dgemv(COL_MAJOR, TRANS, size, 2, 1.0, F + j * size, stride * size, F, 1, 0.0, out, 1);
    else
        dgemm(ROW_MAJOR, NO_TRANS, TRANS, m, 2, size, 1.0, F, size, F + j * size,
              stride * size, 0.0, out, 2);
}

/* x = w @ G for the rows x rows of length size at G, by the call of
 * numpy's dot. */
void combine(const double *w, const double *G, ptrdiff_t rows, ptrdiff_t size, double *x)
{
    dgemv(ROW_MAJOR, TRANS, rows, size, 1.0, G, size, w, 1, 0.0, x, 1);
}

/* scipy.linalg.lapack.dposv of the leading m x m block of the row-major
 * matrix at a, whose rows are ld apart, and the m entries at b: the
 * block copied into factor in Fortran order and b into x, as the wrapper
 * copies them, then dposv on the upper triangle.  Returns its info. */
int solve_spd(const double *a, ptrdiff_t ld, ptrdiff_t m, const double *b, double *factor,
              double *x)
{
    int order = (int)m, one = 1, info = 0;
    ptrdiff_t i, k;
    for (i = 0; i < m; i++) {
        x[i] = b[i];
        for (k = 0; k < m; k++)
            factor[i + k * m] = a[i * ld + k];
    }
    dposv("U", &order, &one, factor, &order, x, &order, &info);
    return info;
}

/* The Anderson memory of solver._Anderson, on arrays that it allocates.
 * Each point z has blocks parts of part doubles: (s, y) or (st, s, y);
 * y, the last, enters the residual f = T(z) - z scaled by scale. */
struct anderson {
    double *G;        /* (depth + 1, size): the ring of map values T(z) */
    double *F;        /* (depth + 2, size): the dF ring, then the current f
                       * and the next point, in turn */
    double *gram;     /* (depth, depth): Gram matrix of the stored dF */
    double *rhs;      /* (depth): their inner products with the current f */
    double *work;     /* depth^2 + 4 depth + 1 doubles of working space */
    int64_t *later;   /* (depth): G slots of the later and the earlier */
    int64_t *earlier; /* end of each stored difference */
    ptrdiff_t part, blocks, depth;
    double scale;
    ptrdiff_t count;   /* differences stored */
    ptrdiff_t head;    /* ring slot of the next difference */
    ptrdiff_t updates; /* points stored */
    ptrdiff_t current; /* G slot of the current point */
};

/* Stores the map value (st, s, y) (st NULL with two blocks), taken at z,
 * in the next G slot; forms its residual f, and after the first point the
 * next difference dF and the Gram row and right-hand side.  Commits no
 * index: anderson_commit does, and until then the current point, its f
 * and the stored differences stay as they were.  z may be the F row that
 * f is formed in. */
static void store(struct anderson *a, const double *z, const double *st, const double *s,
                  const double *y)
{
    ptrdiff_t size = a->blocks * a->part, depth = a->depth, i, b;
    ptrdiff_t fresh = depth + a->updates % 2, j = a->head;
    double *g = a->G + (a->current + 1) % (depth + 1) * size;
    double *f = a->F + fresh * size;
    const double *parts[3] = {st, s, y};
    const double *const *src = parts + 3 - a->blocks;
    for (b = 0; b < a->blocks; b++) {
        ptrdiff_t off = b * a->part;
        for (i = 0; i < a->part; i++) {
            g[off + i] = src[b][i];
            f[off + i] = g[off + i] - z[off + i];
        }
    }
    for (i = (a->blocks - 1) * a->part; i < size; i++)
        f[i] = f[i] * a->scale;
    if (a->updates == 0)
        return;
    const double *previous = a->F + (2 * depth + 1 - fresh) * size;
    double *df = a->F + j * size, *products = a->work;
    for (i = 0; i < size; i++)
        df[i] = f[i] - previous[i];
    ptrdiff_t m = a->count < depth ? a->count + 1 : depth;
    gram_products(a->F, m, size, j, fresh - j, products);
    for (i = 0; i < m; i++) {
        a->gram[j * depth + i] = a->gram[i * depth + j] = products[2 * i];
        a->rhs[i] = products[2 * i + 1];
    }
}

/* Makes the point that store last stored the current one. */
void anderson_commit(struct anderson *a)
{
    ptrdiff_t depth = a->depth, slot = (a->current + 1) % (depth + 1);
    if (a->updates) {
        a->later[a->head] = slot;
        a->earlier[a->head] = a->current;
        a->head = (a->head + 1) % depth;
        a->count = a->count < depth ? a->count + 1 : depth;
    }
    a->current = slot;
    a->updates++;
}

/* solver._Anderson.extrapolate: forms g - dG gamma, for the gamma that
 * minimizes ||f - dF gamma||, in the F row that it returns; -1 where no
 * difference is stored.  A Gram matrix that dposv finds not positive
 * definite, or coefficients whose sum is not finite, clear the memory
 * and give -1 too. */
ptrdiff_t anderson_extrapolate(struct anderson *a)
{
    ptrdiff_t m = a->count, depth = a->depth, size = a->blocks * a->part, i;
    double *coef = a->work + 2 * depth, *weights = coef + depth, *factor = weights + depth + 1;
    if (m == 0)
        return -1;
    double total = 0.0;
    if (solve_spd(a->gram, depth, m, a->rhs, factor, coef) == 0)
        for (i = 0; i < m; i++)
            total += coef[i];
    else
        total = NAN;
    if (!isfinite(total)) {
        a->count = a->head = 0;
        return -1;
    }
    for (i = 0; i <= depth; i++)
        weights[i] = 0.0;
    weights[a->current] = 1.0;
    for (i = 0; i < m; i++) {
        weights[a->later[i]] -= coef[i];
        weights[a->earlier[i]] += coef[i];
    }
    ptrdiff_t row = depth + a->updates % 2;
    combine(weights, a->G, depth + 1, size, a->F + row * size);
    return row;
}

/* finish at the point z that the step evaluated, the current point or
 * the F row that anderson_extrapolate formed last, whose y block the step
 * read; then store of the new map value (st', s', C st') at z, without
 * the commit.  The memory's row work rides along with the step's, in the
 * same call. */
void finish_update(const double *st, const double *cst, const double *pst, const double *ps,
                   double *sn, double rho, double *sums, struct anderson *a, const double *z)
{
    finish(st, cst, z + (a->blocks - 1) * a->part, pst, ps, sn, a->part, rho, sums);
    store(a, z, a->blocks == 3 ? st : NULL, sn, cst);
}
