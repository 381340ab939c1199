/* Exact Zig-Zag event loop for diagonal Gaussian targets with canonical
 * rates, drawing through numpy's random C functions.
 *
 * nonrev.zigzag calls exact_run through nonrev._native, as every entry
 * point of the library is called (see _autocov.c); only the tests call
 * flip_time, the event-time inversion exact_run uses.  Every draw
 * is one of the functions behind Generator.standard_exponential, .random
 * and .integers, so a run reads the generator's stream exactly as those
 * Python calls would.  The arithmetic is IEEE + - * / and sqrt only, in
 * the order of the Python expressions it replaced, and the build forbids
 * fused multiply-adds, so every result keeps its bits.
 */

#include <Python.h>

#include <math.h>

#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include "numpy/ndarraytypes.h"
#include "numpy/random/distributions.h"

/* Defined in _autocov.c. */
void *array_data(PyObject *a, int type, int write, int ndim, npy_intp *shape,
                 const char *what);

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
static double clock_time(double a, double b, double gamma, double e, int *zero_div)
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

/* clock_time, raising ZeroDivisionError where Python's float arithmetic
 * would. */
double flip_time(double a, double b, double gamma, double e)
{
    int zero_div = 0;
    double t = clock_time(a, b, gamma, e, &zero_div);
    if (zero_div)
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
    return t;
}

/* Runs the process on from row rows - 1 of the skeleton: times (cap), X and
 * V (cap x d, row-major) and codes (cap, int64).  Each event appends a row:
 * its time, position and velocity, and in codes the coordinate flipped, or
 * d for a refresh.  inv2 (d >= 1 values) holds 1 / sigma_i^2, and
 * bitgen_capsule is a numpy BitGenerator's capsule.
 *
 * An event draws one standard exponential per coordinate clock, in
 * coordinate order, then one for the refresh clock when rate > 0; the
 * first clock to ring wins, ties going to the lower index.  A refresh then
 * draws d uniforms (full: v_i = -1 where u < 0.5, else 1) or one integer
 * j < d (partial: v_j flips).
 *
 * Returns the rows filled: fewer than cap when the next event would fall at
 * or past the horizon (its clocks are drawn, as the Python loop drew them),
 * and cap when all rows are filled, before any draw for the next event, so
 * a caller with larger buffers resumes bit for bit.  Returns -1 with a
 * Python exception set: ValueError for a bad argument, ZeroDivisionError
 * where Python's float arithmetic divides by zero. */
int64_t exact_run(PyObject *bitgen_capsule, PyObject *inv2_arr, double gamma, double rate,
                  int full, double horizon, PyObject *times_arr, PyObject *X_arr,
                  PyObject *V_arr, PyObject *codes_arr, int64_t rows)
{
    if (!PyCapsule_IsValid(bitgen_capsule, "BitGenerator")) {
        PyErr_SetString(PyExc_ValueError,
                        "bitgen_capsule must be a numpy BitGenerator's capsule");
        return -1;
    }
    bitgen_t *bitgen = PyCapsule_GetPointer(bitgen_capsule, "BitGenerator");
    npy_intp d = -1, cap = -1;
    const double *inv2 = array_data(inv2_arr, NPY_DOUBLE, 0, 1, &d, "inv2");
    double *times = inv2 ? array_data(times_arr, NPY_DOUBLE, 1, 1, &cap, "times") : NULL;
    if (times == NULL)
        return -1;
    npy_intp shape[2] = {cap, d};
    double *X = array_data(X_arr, NPY_DOUBLE, 1, 2, shape, "X");
    double *V = X ? array_data(V_arr, NPY_DOUBLE, 1, 2, shape, "V") : NULL;
    int64_t *codes = V ? array_data(codes_arr, NPY_INT64, 1, 1, &cap, "codes") : NULL;
    if (codes == NULL)
        return -1;
    if (d < 1 || rows < 1 || rows > cap) {
        PyErr_Format(PyExc_ValueError, "need d >= 1 and rows in [1, %lld], got d = %lld "
                     "and rows = %lld", (long long)cap, (long long)d, (long long)rows);
        return -1;
    }
    int zero_div = 0;
    int64_t r = rows - 1;
    double t = times[r];
    for (;; r++) {
        if (r + 1 == cap)
            return cap;
        const double *x = X + r * d, *v = V + r * d;
        double best_dt = INFINITY;
        int64_t best = d;
        for (int64_t i = 0; i < d; i++) {
            double e = random_standard_exponential(bitgen);
            double dt_i = clock_time(x[i] * v[i] * inv2[i], inv2[i], gamma, e, &zero_div);
            if (zero_div) {
                PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
                return -1;
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
        if (best_dt >= horizon - t)
            return r + 1;
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
