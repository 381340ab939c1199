/* GHMC transitions for diagonal Gaussian targets in d <= 2 under the
 * Metropolis and Barker acceptance functions, with exp through numpy's
 * own float64 loop.
 *
 * nonrev.samplers calls ghmc_run through ctypes, holding the interpreter
 * lock, for a block of steps at a time.  Every other operation is the IEEE
 * double operation of the numpy expression it stands for, in that
 * expression's order, and the build forbids fused multiply-adds, so the
 * chains keep the bits of tests/oracles.py::ghmc_update_reference, the
 * transition in numpy.  libm's exp differs from the loop numpy dispatched
 * for this CPU in the last bit of some values, so exp is the first float64
 * loop in the table of the np.exp ufunc passed in (the one numpy's own
 * type resolution picks), read at every call.
 */

#include <Python.h>

#include <fenv.h>
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include "numpy/ndarraytypes.h"
#include "numpy/ufuncobject.h"

/* Return codes of ghmc_run. */
enum { DONE = 0, NO_EXP_LOOP = -1 };

/* np.add.reduce(a * a * w, axis=-1) on one row of d <= 2 values; w = NULL
 * is np.add.reduce(a * a, axis=-1).  For d <= 2 numpy's pairwise and
 * sequential summation orders give the same sum. */
static double sum_sq(const double *a, const double *w, int64_t d)
{
    double s = w ? a[0] * a[0] * w[0] : a[0] * a[0];
    for (int64_t c = 1; c < d; c++)
        s += w ? a[c] * a[c] * w[c] : a[c] * a[c];
    return s;
}

/* Runs b GHMC steps on n rows of dimension d, each one the transition of
 * tests/oracles.py::ghmc_update_reference: rows [i * n / k, (i + 1) * n / k)
 * follow rule i, Barker where barker[i] and Metropolis otherwise.  inv2[c]
 * is 1 / sigma_c^2.  Step s refreshes v to v * cos_w + noise[s] (noise is
 * b x n x d, pre-scaled by sin), runs nleap leapfrog steps of size step from
 * the carried half-kick, and accepts a row where unif[s] < phi(exp(de)) and
 * de is finite, de being the energy before minus the energy after; a
 * rejected row keeps x, U(x) and the kick and flips v.  x, Ux, v and kick
 * (n x d, n, n x d, n x d) are updated in place and each step's x is written
 * to xs[s].  work holds n * (3 d + 3) doubles.  Leaves the floating-point
 * exception flags as it found them.  Returns DONE, or NO_EXP_LOOP before any
 * step when exp has no float64 -> float64 loop. */
int ghmc_run(PyObject *exp_ufunc, int64_t b, int64_t n, int64_t d, int64_t k,
             const int *barker, const double *inv2, double cos_w, double step,
             int64_t nleap, const double *noise, const double *unif, double *x,
             double *Ux, double *v, double *kick, double *xs, double *work)
{
    const PyUFuncObject *uf = (const PyUFuncObject *)exp_ufunc;
    PyUFuncGenericFunction loop = NULL;
    void *loop_data = NULL;
    for (int t = 0; uf->nin == 1 && uf->nout == 1 && t < uf->ntypes; t++) {
        if (uf->types[2 * t] == NPY_DOUBLE && uf->types[2 * t + 1] == NPY_DOUBLE) {
            loop = uf->functions[t];
            loop_data = uf->data ? uf->data[t] : NULL;
            break;
        }
    }
    if (loop == NULL)
        return NO_EXP_LOOP;

    fexcept_t flags;
    fegetexceptflag(&flags, FE_ALL_EXCEPT);
    const int64_t nd = n * d, rows = n / k;
    const double half = 0.5 * step;
    double *xn = work, *vn = xn + nd, *kn = vn + nd, *Un = kn + nd, *de = Un + n,
           *r = de + n;
    char *args[2] = {(char *)de, (char *)r};
    npy_intp count = (npy_intp)n, strides[2] = {sizeof(double), sizeof(double)};
    for (int64_t s = 0; s < b; s++) {
        const double *nz = noise + s * nd, *u = unif + s * n;
        for (int64_t j = 0; j < nd; j++)
            v[j] = v[j] * cos_w + nz[j];
        memcpy(xn, x, nd * sizeof(double));
        memcpy(vn, v, nd * sizeof(double));
        memcpy(kn, kick, nd * sizeof(double));
        for (int64_t l = 0; l < nleap; l++) {
            for (int64_t j = 0; j < nd; j++) {
                vn[j] = vn[j] - kn[j];
                xn[j] = xn[j] + step * vn[j];
                kn[j] = half * (xn[j] * inv2[j % d]);
                vn[j] = vn[j] - kn[j];
            }
        }
        for (int64_t j = 0; j < n; j++) {
            Un[j] = 0.5 * sum_sq(xn + j * d, inv2, d);
            de[j] = (Ux[j] + sum_sq(v + j * d, NULL, d) / 2.0)
                    - (Un[j] + sum_sq(vn + j * d, NULL, d) / 2.0);
        }
        loop(args, &count, strides, loop_data);
        for (int64_t j = 0; j < n; j++) {
            double a;  /* zoo._barker and np.minimum(1.0, r); NaN stays NaN */
            if (barker[j / rows]) {
                double c = r[j] > DBL_MAX ? DBL_MAX : r[j];
                a = c / (1.0 + c);
            } else {
                a = 1.0 <= r[j] ? 1.0 : r[j];
            }
            double *xj = x + j * d, *vj = v + j * d;
            if (u[j] < a && isfinite(de[j])) {
                memcpy(xj, xn + j * d, d * sizeof(double));
                memcpy(vj, vn + j * d, d * sizeof(double));
                memcpy(kick + j * d, kn + j * d, d * sizeof(double));
                Ux[j] = Un[j];
            } else {
                for (int64_t c = 0; c < d; c++)
                    vj[c] = -vj[c];
            }
            memcpy(xs + s * nd + j * d, xj, d * sizeof(double));
        }
    }
    fesetexceptflag(&flags, FE_ALL_EXCEPT);
    return DONE;
}
