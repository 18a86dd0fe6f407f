/* Polar factors of a (q, 3, r) stack of C-contiguous float64 blocks: the
 * closed form of manifold._polar3, one block at a time, followed by the
 * orthonormality check of manifold._polar_rows_batched.
 *
 * The formulas and constants are those of _polar3 (see its docstring): the
 * trigonometric eigenvalues of the scaled Gram matrix, then A^{-1/2} as a
 * quadratic in A from the invariants of A^{1/2} (Franca 1989).  Each block
 * is first scaled by the power of two that brings its largest entry into
 * [0.5, 1), which is exact and leaves the polar factor unchanged.
 *
 * Built without -ffast-math: the non-finite tests below must survive.
 */

#include <float.h>
#include <math.h>
#include <stddef.h>

static const double PI = 3.141592653589793; /* numpy.pi */
/* _ROOT_PHASES: cos of these phases orders the roots largest, middle, smallest */
static const double ROOT_PHASES[3] = {0.0, 4.0 * PI / 3.0, 2.0 * PI / 3.0};
/* _POLAR3_MIN_RATIOS: lambda_2 / lambda_1 and lambda_3 / lambda_1 */
static const double MIN_RATIOS[2] = {1e-2, 1e-8};

/* Writes the polar factor of the 3 x r block g to b and returns 0, or
 * returns -1 where _polar3 would send the stack to the eigendecomposition:
 * a zero or non-finite block, or a Gram spectrum below MIN_RATIOS. */
static int polar_block(const double *g, double *b, ptrdiff_t r)
{
    ptrdiff_t n = 3 * r, i, k;
    double top = 0.0;
    for (i = 0; i < n; i++) {
        double a = fabs(g[i]);
        if (!(a <= DBL_MAX))
            return -1;
        if (a > top)
            top = a;
    }
    if (top == 0.0)
        return -1;
    int e;
    frexp(top, &e);
    if (e > -1022) {
        double s = ldexp(1.0, -e);
        for (i = 0; i < n; i++)
            b[i] = g[i] * s;
    } else { /* 2^-e would overflow: the block is subnormal */
        for (i = 0; i < n; i++)
            b[i] = ldexp(g[i], -e);
    }

    const double *x = b, *y = b + r, *z = b + 2 * r;
    double a00 = 0, a01 = 0, a02 = 0, a11 = 0, a12 = 0, a22 = 0;
    for (k = 0; k < r; k++) {
        a00 += x[k] * x[k];
        a01 += x[k] * y[k];
        a02 += x[k] * z[k];
        a11 += y[k] * y[k];
        a12 += y[k] * z[k];
        a22 += z[k] * z[k];
    }
    /* the scaled block has an entry in [0.5, 1): 0 < m < inf */
    double m = (a00 + a11 + a22) / 3.0;
    /* K = A / m - I, traceless, and K2 = K K, both symmetric */
    double K[3][3];
    K[0][0] = a00 / m - 1.0;
    K[1][1] = a11 / m - 1.0;
    K[2][2] = a22 / m - 1.0;
    K[0][1] = K[1][0] = a01 / m;
    K[0][2] = K[2][0] = a02 / m;
    K[1][2] = K[2][1] = a12 / m;
    double K2[3][3];
    int p, s;
    for (p = 0; p < 3; p++)
        for (s = 0; s < 3; s++)
            K2[p][s] = K[p][0] * K[0][s] + K[p][1] * K[1][s] + K[p][2] * K[2][s];
    double p6 = K2[0][0] + K2[1][1] + K2[2][2];
    double q6 = 0.0;
    for (p = 0; p < 3; p++)
        for (s = 0; s < 3; s++)
            q6 += K2[p][s] * K[s][p];
    double cos3 = q6 * sqrt(6.0) / pow(fmax(p6, 1e-30), 1.5);
    double phase = acos(fmin(fmax(cos3, -1.0), 1.0)) / 3.0;
    double spread = sqrt(p6) * (2.0 / sqrt(6.0));
    double lam[3];
    for (p = 0; p < 3; p++)
        lam[p] = 1.0 + spread * cos(phase + ROOT_PHASES[p]);
    if (!(lam[1] > MIN_RATIOS[0] * lam[0] && lam[2] > MIN_RATIOS[1] * lam[0]))
        return -1;
    double s0 = sqrt(lam[0]), s1 = sqrt(lam[1]), s2 = sqrt(lam[2]);
    double i1 = s0 + s1 + s2;
    double i2 = s0 * s1 + s1 * s2 + s2 * s0;
    double i3 = s0 * s1 * s2;
    double D = i1 * i2 - i3;
    double c1 = D - i1 * i1 * i1 + i1 * i2;
    double c0 = i2 * D - i1 * i1 * i3;
    double w = 1.0 / (D * i3 * sqrt(m));
    double w2 = w * i1, w1 = w * (2.0 * i1 + c1), w0 = w * (i1 + c1 + c0);
    double R[3][3];
    for (p = 0; p < 3; p++)
        for (s = 0; s < 3; s++)
            R[p][s] = w2 * K2[p][s] + w1 * K[p][s] + (p == s ? w0 : 0.0);
    for (k = 0; k < r; k++) {
        double u = x[k], v = y[k], t = z[k];
        b[k] = R[0][0] * u + R[0][1] * v + R[0][2] * t;
        b[r + k] = R[1][0] * u + R[1][1] * v + R[1][2] * t;
        b[2 * r + k] = R[2][0] * u + R[2][1] * v + R[2][2] * t;
    }
    return 0;
}

/* Largest entry of |b b^T - I| of a 3 x r block. */
static double orthonormality_error(const double *b, ptrdiff_t r)
{
    const double *x = b, *y = b + r, *z = b + 2 * r;
    double a00 = 0, a01 = 0, a02 = 0, a11 = 0, a12 = 0, a22 = 0;
    ptrdiff_t k;
    for (k = 0; k < r; k++) {
        a00 += x[k] * x[k];
        a01 += x[k] * y[k];
        a02 += x[k] * z[k];
        a11 += y[k] * y[k];
        a12 += y[k] * z[k];
        a22 += z[k] * z[k];
    }
    double d[6] = {a00 - 1.0, a11 - 1.0, a22 - 1.0, a01, a02, a12};
    double err = 0.0;
    for (k = 0; k < 6; k++) {
        double a = fabs(d[k]);
        if (a > err)
            err = a;
    }
    return err;
}

/* Polar factors of the q blocks of g (q x 3 x r) into b (same shape).
 * Returns the largest entry of |B B^T - I| over the stack, or -1 when the
 * whole stack must take the eigendecomposition instead (b is then
 * undefined). */
double polar3(const double *g, double *b, ptrdiff_t q, ptrdiff_t r)
{
    double err = 0.0;
    ptrdiff_t i;
    for (i = 0; i < q; i++) {
        const double *gi = g + 3 * r * i;
        double *bi = b + 3 * r * i;
        if (polar_block(gi, bi, r))
            return -1.0;
        double e = orthonormality_error(bi, r);
        if (e > err)
            err = e;
    }
    return err;
}
