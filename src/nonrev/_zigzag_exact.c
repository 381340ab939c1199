/* Exact Zig-Zag event loop for diagonal Gaussian targets with canonical
 * rates, drawing through numpy's random C functions.
 *
 * nonrev.zigzag compiles this file on first use and calls it through
 * ctypes.  Every draw is one of the functions behind
 * Generator.standard_exponential, .random and .integers, so a run reads
 * the generator's stream exactly as those Python calls would.  The
 * arithmetic is IEEE + - * / and sqrt only, in the order of the Python
 * expressions it replaced, and the build forbids fused multiply-adds, so
 * every result keeps its bits.
 */

#include <math.h>

#include "numpy/random/bitgen.h"

/* As declared in numpy/random/distributions.h, which needs Python.h. */
double random_standard_exponential(bitgen_t *bitgen_state);
double random_standard_uniform(bitgen_t *bitgen_state);
void random_bounded_uint64_fill(bitgen_t *bitgen_state, uint64_t off, uint64_t rng,
                                intptr_t cnt, bool use_masked, uint64_t *out);

/* Return codes of exact_run.  ZERO_DIVISION is where Python's float
 * arithmetic raises ZeroDivisionError. */
enum { HORIZON = 0, FULL = 1, ZERO_DIVISION = -1 };

/* num / den; a zero divisor sets *zero_div. */
static double quotient(double num, double den, int *zero_div)
{
    if (den == 0.0) {
        *zero_div = 1;
        return 0.0;
    }
    return num / den;
}

/* First time Lambda(t) = e for rate (a + b t)_+ + gamma, b > 0, e >= 0.
 *
 * The root of c t + b t^2 / 2 = e is taken in the conjugate form
 * 2e / (c + sqrt(c^2 + 2be)), which does not cancel when c >> sqrt(be).
 * *zero_div is set where Python divides by zero; the value is then
 * meaningless. */
double flip_time(double a, double b, double gamma, double e, int *zero_div)
{
    if (a >= 0) {
        double ag = a + gamma;
        return quotient(2 * e, ag + sqrt(ag * ag + 2 * b * e), zero_div);
    }
    double t0 = quotient(-a, b, zero_div);
    if (gamma == 0.0)
        return t0 + sqrt(quotient(2 * e, b, zero_div));
    if (e < gamma * t0)
        return quotient(e, gamma, zero_div);
    double rem = e - gamma * t0;
    return t0 + quotient(2 * rem, gamma + sqrt(gamma * gamma + 2 * b * rem), zero_div);
}

/* Runs the process on from row *rows - 1 of the skeleton: times (cap),
 * X and V (cap x d, row-major) and codes (cap).  Each event appends a row:
 * its time, position and velocity, and in codes the coordinate flipped, or
 * d for a refresh.  inv2[i] is 1 / sigma_i^2.
 *
 * An event draws one standard exponential per coordinate clock, in
 * coordinate order, then one for the refresh clock when rate > 0; the
 * first clock to ring wins, ties going to the lower index.  A refresh then
 * draws d uniforms (full: v_i = -1 where u < 0.5, else 1) or one integer
 * j < d (partial: v_j flips).
 *
 * Returns HORIZON when the next event would fall at or past the horizon
 * (its clocks are drawn, as the Python loop drew them), FULL when all cap
 * rows are filled (before any draw for the next event, so a caller with
 * larger buffers resumes bit for bit), or ZERO_DIVISION.  *rows is set to
 * the rows filled. */
int exact_run(bitgen_t *bitgen, int64_t d, const double *inv2, double gamma,
              double rate, int full, double horizon, double *times, double *X,
              double *V, int64_t *codes, int64_t cap, int64_t *rows)
{
    int zero_div = 0;
    int64_t r = *rows - 1;
    double t = times[r];
    for (;; r++) {
        if (r + 1 == cap) {
            *rows = cap;
            return FULL;
        }
        const double *x = X + r * d, *v = V + r * d;
        double best_dt = INFINITY;
        int64_t best = d;
        for (int64_t i = 0; i < d; i++) {
            double e = random_standard_exponential(bitgen);
            double dt_i = flip_time(x[i] * v[i] * inv2[i], inv2[i], gamma, e,
                                    &zero_div);
            if (zero_div) {
                *rows = r + 1;
                return ZERO_DIVISION;
            }
            if (dt_i < best_dt) {
                best_dt = dt_i;
                best = i;
            }
        }
        if (rate > 0) {
            double dt_r = random_standard_exponential(bitgen) / rate;
            if (dt_r < best_dt) {
                best_dt = dt_r;
                best = d;
            }
        }
        if (best_dt >= horizon - t) {
            *rows = r + 1;
            return HORIZON;
        }
        t += best_dt;
        double *xn = X + (r + 1) * d, *vn = V + (r + 1) * d;
        for (int64_t i = 0; i < d; i++) {
            xn[i] = x[i] + best_dt * v[i];
            vn[i] = v[i];
        }
        if (best < d) {
            vn[best] = -vn[best];
        } else if (full) {
            for (int64_t i = 0; i < d; i++)
                vn[i] = random_standard_uniform(bitgen) < 0.5 ? -1.0 : 1.0;
        } else {
            uint64_t j;
            random_bounded_uint64_fill(bitgen, 0, (uint64_t)(d - 1), 1, false, &j);
            vn[j] = -vn[j];
        }
        times[r + 1] = t;
        codes[r + 1] = best;
    }
}
