/* Compiled twins of the Picard step's pointwise passes on the (N_r, M)
 * angular samples, and of the field CSVs' %.17g kernel (see _kernels.py).
 *
 * Each plane loop computes, element by element, the expression of one numpy
 * pass with the same IEEE operations in the same order, so its results are
 * the numpy pass's bit for bit.  That holds only without contraction to
 * fused multiply-adds and without reassociation: build with
 * -ffp-contract=off and never with -ffast-math.  Planes are row-major
 * (N_r, M), C-contiguous; columns have N_r entries (one per radial node i),
 * rows M (one per angle j).  No output may overlap an input other than the
 * one it updates in place.
 */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

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

/* fields._csv_lines: `label,v_1,...,v_n\r\n` for each of the rows of values,
 * every value as %.17g formats it, by that kernel's algorithm one value at a
 * time.  A value with 10^X <= |x| < 1 has the 17 significant digits
 * s = round(|x| 10^(16-X)).  With |x| = m 2^e (m in [1/2, 1)) and
 * 10^(16-X) = (hi + lo) 2^t from the tables, 2^(e+t) applied exactly and
 * Dekker's exact product for m hi, |x| 10^(16-X) = p + rem to within 1e-14;
 * rem decides the rounding.  Zeros and such values are written here.  Every
 * other value (|x| >= 1, p within 64 of either end of [1e16, 1e17), rem
 * within 1e-9 of a tie) is written as the marker byte \1 and handed back in
 * hard, in order, for Python's % to format.  The tables hold 10^17 ..
 * 10^340 (X = -1 .. -324).  Labels are NUL-padded 32-byte records, and out
 * needs 34 + 25 n bytes a row; counts receives the bytes written and the
 * count of values handed back.  The choices below have no unpredictable
 * branch where a value's sign or rounding direction would set one. */

static const char PAIRS[] =
    "00010203040506070809101112131415161718192021222324"
    "25262728293031323334353637383940414243444546474849"
    "50515253545556575859606162636465666768697071727374"
    "75767778798081828384858687888990919293949596979899";

/* the eight digits of v < 10^8 */
static inline void put8(char *o, uint32_t v)
{
    uint32_t a = v / 10000, b = v % 10000;
    memcpy(o, PAIRS + 2 * (a / 100), 2);
    memcpy(o + 2, PAIRS + 2 * (a % 100), 2);
    memcpy(o + 4, PAIRS + 2 * (b / 100), 2);
    memcpy(o + 6, PAIRS + 2 * (b % 100), 2);
}

/* the decade X of x, with its digits in s; 0 where x is a zero and 1 where
 * Python's % must format x */
static int64_t decimal17(double x, const double *hi, const double *lo, const int64_t *t,
                         int64_t *s)
{
    uint64_t mb;
    double a = x < 0.0 ? -x : x, m, scale, th, p, c, mh, ml, thh, thl, rem, frac, tie;
    int64_t e, l2, k, whole;

    if (a == 0.0)
        return 0;
    if (!(a < 1.0))
        return 1;
    memcpy(&mb, &a, 8);
    e = (int64_t)(mb >> 52);
    if (e == 0) {  /* subnormal: a 2^54 is normal, exactly */
        double big = a * 0x1p54;
        memcpy(&mb, &big, 8);
        e = (int64_t)(mb >> 52) - 54;
    }
    e -= 1022;
    /* log2 a = e - 1 + log2(1 + f) with f the fraction bits, of which
     * l2 = e - 1 + f, in units of 2^-20, falls short by less than 0.09, so
     * floor(l2 log10 2) = -ceil(-l2 log10 2) is the decade X or the one
     * below it, where p >= 1e17; k indexes 10^(16-X) */
    l2 = (e - 1) * 1048576 + (int64_t)((mb >> 32) & 0xfffff);
    k = (((-l2) * 1292913987 + ((int64_t)1 << 52) - 1) >> 52) - 1;  /* 2^32 log10 2, up */
    if (k > 323)  /* X >= -324 */
        k = 323;
    mb = (mb & 0xfffffffffffffULL) | 0x3fe0000000000000ULL;
    memcpy(&m, &mb, 8);
    for (;;) {
        mb = (uint64_t)(e + t[k] + 1023) << 52;
        memcpy(&scale, &mb, 8);  /* 2^(e+t), exact */
        th = hi[k] * scale;
        p = m * th;
        if (p < 1e17)
            break;
        if (--k < 0)
            return 1;
    }
    if (!(p > 1e16 + 64 && p < 1e17 - 64))
        return 1;
    c = 134217729.0 * m;  /* Dekker's split of m and th into 26-bit halves */
    mh = c - (c - m);
    ml = m - mh;
    c = 134217729.0 * th;
    thh = c - (c - th);
    thl = th - thh;
    rem = ((((mh * thh - p) + mh * thl) + ml * thh) + ml * thl) + m * (lo[k] * scale);
    whole = (int64_t)rem;
    whole -= (double)whole > rem;  /* floor */
    frac = rem - (double)whole;
    tie = frac - 0.5;
    memcpy(&mb, &tie, 8);
    mb &= 0x7fffffffffffffffULL;  /* |tie| */
    memcpy(&tie, &mb, 8);
    if (!(tie > 1e-9))
        return 1;
    *s = (int64_t)p + (int64_t)((double)whole + (frac > 0.5));
    return -1 - k;
}

/* the text of the digits s, 10^16 <= s < 10^17, in decade X at o, with no
 * sign; returns its end */
static char *put_decimal(char *o, int64_t s, int64_t X)
{
    char digits[16];
    int64_t d = s / 10000000000000000LL, r = s - d * 10000000000000000LL;
    int n = 16;

    put8(digits, (uint32_t)(r / 100000000));
    put8(digits + 8, (uint32_t)(r % 100000000));
    while (n > 0 && digits[n - 1] == '0')
        n--;
    if (X >= -4) {  /* 0.0..0 and the digits */
        *o++ = '0';
        *o++ = '.';
        for (int64_t z = -1 - X; z > 0; z--)
            *o++ = '0';
        *o++ = (char)('0' + d);
        memcpy(o, digits, 16);  /* within the 25 bytes a value may take */
        return o + n;
    }
    *o++ = (char)('0' + d);
    if (n > 0) {
        *o++ = '.';
        memcpy(o, digits, 16);
        o += n;
    }
    *o++ = 'e';
    *o++ = '-';
    if (X <= -100)
        *o++ = (char)('0' + -X / 100);
    memcpy(o, PAIRS + 2 * (-X % 100), 2);
    return o + 2;
}

void csv_lines(ptrdiff_t rows, ptrdiff_t n, const double *values, const char *labels,
               const double *hi, const double *lo, const int64_t *t,
               char *out, double *hard, ptrdiff_t *counts)
{
    char *o = out;
    ptrdiff_t handed = 0;
    for (ptrdiff_t i = 0; i < rows; i++) {
        const char *label = labels + 32 * i;
        for (int j = 0; j < 32 && label[j]; j++)
            *o++ = label[j];
        /* 64 values at a time, the digits of all before any text, so that
         * their arithmetic overlaps */
        for (ptrdiff_t j0 = 0; j0 < n; j0 += 64) {
            const double *v = values + i * n + j0;
            ptrdiff_t len = n - j0 < 64 ? n - j0 : 64;
            int64_t s[64], X[64];
            for (ptrdiff_t j = 0; j < len; j++)
                X[j] = decimal17(v[j], hi, lo, t, s + j);
            for (ptrdiff_t j = 0; j < len; j++) {
                uint64_t bits;
                *o++ = ',';
                if (X[j] == 1) {
                    *o++ = '\1';
                    hard[handed++] = v[j];
                    continue;
                }
                memcpy(&bits, v + j, 8);
                *o = '-';
                o += bits >> 63;
                if (X[j] == 0)
                    *o++ = '0';
                else
                    o = put_decimal(o, s[j], X[j]);
            }
        }
        *o++ = '\r';
        *o++ = '\n';
    }
    counts[0] = o - out;
    counts[1] = handed;
}
