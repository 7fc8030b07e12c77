/* Compiled twins of the Picard step's pointwise passes on the (N_r, M)
 * angular samples (see _kernels.py).
 *
 * Each loop computes, element by element, the expression of one numpy pass
 * with the same IEEE operations in the same order, so its results are the
 * numpy pass's bit for bit.  That holds only without contraction to fused
 * multiply-adds and without reassociation: build with -ffp-contract=off and
 * never with -ffast-math.  Planes are row-major (N_r, M), C-contiguous;
 * columns have N_r entries (one per radial node i), rows M (one per angle j).
 * No output may overlap an input other than the one it updates in place.
 */

#include <stddef.h>

/* momentum._h_dlambda: with grad lambda = (L1 + prof_i c_j, L2 + prof_i s_j),
 *   P1 = -((T/2 + A) lam1 + lam2 B),  P2 = -((T/2 - A) lam2 + lam1 B). */
void h_dlambda(ptrdiff_t n, ptrdiff_t m, const double *prof, const double *c, const double *s,
               const double *L1, const double *L2,
               const double *T, const double *A, const double *B,
               double *P1, double *P2)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        for (ptrdiff_t j = 0; j < m; j++) {
            ptrdiff_t k = i * m + j;
            double lam1 = L1[k] + prof[i] * c[j];
            double lam2 = L2[k] + prof[i] * s[j];
            double h = 0.5 * T[k];
            P1[k] = -((h + A[k]) * lam1 + lam2 * B[k]);
            P2[k] = -((h - A[k]) * lam2 + lam1 * B[k]);
        }
    }
}

/* momentum._singular_source: in place,
 *   P1 += p4_i - ((L1 r1_j + L2 u12_j) cr_i),
 *   P2 += q4_i - ((L1 u12_j - L2 r2_j) cr_i). */
void singular_source(ptrdiff_t n, ptrdiff_t m,
                     const double *cr, const double *p4, const double *q4,
                     const double *r1, const double *u12, const double *r2,
                     const double *L1, const double *L2,
                     double *P1, double *P2)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        for (ptrdiff_t j = 0; j < m; j++) {
            ptrdiff_t k = i * m + j;
            double s1 = (L1[k] * r1[j] + L2[k] * u12[j]) * cr[i];
            double s2 = (L1[k] * u12[j] - L2[k] * r2[j]) * cr[i];
            P1[k] += p4[i] - s1;
            P2[k] += q4[i] - s2;
        }
    }
}

/* lichnerowicz._hamiltonian_source:
 *   S = (cr_i (hut_j T - 2 (u11_j A + u12_j B)) - (A A + B B)) + Q. */
void hamiltonian_source(ptrdiff_t n, ptrdiff_t m, const double *cr,
                        const double *hut, const double *u11, const double *u12,
                        const double *T, const double *A, const double *B,
                        const double *Q, double *S)
{
    for (ptrdiff_t i = 0; i < n; i++) {
        for (ptrdiff_t j = 0; j < m; j++) {
            ptrdiff_t k = i * m + j;
            double a = A[k], b = B[k];
            double cross = hut[j] * T[k] - 2.0 * (u11[j] * a + u12[j] * b);
            S[k] = (cr[i] * cross - (a * a + b * b)) + Q[k];
        }
    }
}
