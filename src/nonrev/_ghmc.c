/* GHMC transitions for diagonal Gaussian targets in d <= 2 under the
 * Metropolis and Barker acceptance functions, with exp through numpy's
 * own float64 loop.
 *
 * nonrev.samplers calls ghmc_run through nonrev._native, as every entry
 * point of the library is called (see _autocov.c), for a block of steps at
 * a time, with each replicate's raw standard normals and uniforms for the
 * block in that replicate's own rows.  Every other operation is the IEEE
 * double operation of the numpy expression it stands for, in that
 * expression's order (the refresh v * cos + z * sin among them), and the
 * build forbids fused multiply-adds, so the chains keep the bits of
 * tests/oracles.py::run_ghmc_chains_reference and ghmc_update_reference,
 * the driver and transition in numpy.  libm's exp differs from the loop
 * numpy dispatched for this CPU in the last bit of some values, so exp is
 * the first float64 loop in the table of the np.exp ufunc passed in (the
 * one numpy's own type resolution picks), read at every call.
 */

#include <Python.h>

#include <fenv.h>
#include <float.h>
#include <math.h>
#include <stdint.h>

#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include "numpy/ndarraytypes.h"
#include "numpy/ufuncobject.h"

/* Defined in _autocov.c. */
void *array_data(PyObject *a, int type, int write, int ndim, npy_intp *shape,
                 const char *what);

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

/* Runs b GHMC steps on n = R * k rows of dimension d, each one the
 * transition of tests/oracles.py::ghmc_update_reference: rows
 * [i * R, (i + 1) * R) follow rule i, Barker where barker[i] (k intc
 * values) and Metropolis otherwise, and row j reads replicate j % R's
 * draws, so every rule shares them.  inv2[c] is 1 / sigma_c^2 (d >= 1
 * values).  Step s refreshes v to v * cos_w + noise[q, s] * sin_w, noise
 * being replicate q's raw standard normals (R x b x d), runs nleap leapfrog
 * steps of size step from the carried half-kick, and accepts a row where
 * unif[q, s] < phi(exp(de)) (unif is R x b) and de is finite, de being the
 * energy before minus the energy after; a rejected row keeps x, U(x) and
 * the kick and flips v.  x, Ux, v and kick (n x d, n, n x d, n x d) are
 * updated in place and each step's x is written to xs[s] (b x n x d).
 * Leaves the floating-point exception flags as it found them.  Returns 0,
 * or -1 with a Python exception set before any step: ValueError for a bad
 * argument, RuntimeError when exp (a ufunc) has no float64 -> float64
 * loop. */
int ghmc_run(PyObject *exp_ufunc, PyObject *barker_arr, PyObject *inv2_arr, double cos_w,
             double sin_w, double step, int64_t nleap, PyObject *noise_arr,
             PyObject *unif_arr, PyObject *x_arr, PyObject *Ux_arr, PyObject *v_arr,
             PyObject *kick_arr, PyObject *xs_arr)
{
    if (PyUFunc_ImportUFuncAPI() < 0)
        return -1;
    if (!PyObject_TypeCheck(exp_ufunc, &PyUFunc_Type)) {
        PyErr_SetString(PyExc_ValueError, "exp must be a numpy ufunc");
        return -1;
    }
    npy_intp draws[3] = {-1, -1, -1}, k = -1;
    const double *noise = array_data(noise_arr, NPY_DOUBLE, 0, 3, draws, "noise");
    const int *barker = noise ? array_data(barker_arr, NPY_INT, 0, 1, &k, "barker") : NULL;
    if (barker == NULL)
        return -1;
    const npy_intp R = draws[0], b = draws[1], d = draws[2], n = R * k;
    if (d < 1) {
        PyErr_Format(PyExc_ValueError, "need d >= 1, got d = %lld", (long long)d);
        return -1;
    }
    npy_intp bnd[3] = {b, n, d};  /* xs; x, v and kick are bnd + 1 */
    const double *inv2 = array_data(inv2_arr, NPY_DOUBLE, 0, 1, bnd + 2, "inv2");
    const double *unif = inv2 ? array_data(unif_arr, NPY_DOUBLE, 0, 2, draws, "unif") : NULL;
    double *x = unif ? array_data(x_arr, NPY_DOUBLE, 1, 2, bnd + 1, "x") : NULL;
    double *Ux = x ? array_data(Ux_arr, NPY_DOUBLE, 1, 1, bnd + 1, "Ux") : NULL;
    double *v = Ux ? array_data(v_arr, NPY_DOUBLE, 1, 2, bnd + 1, "v") : NULL;
    double *kick = v ? array_data(kick_arr, NPY_DOUBLE, 1, 2, bnd + 1, "kick") : NULL;
    double *xs = kick ? array_data(xs_arr, NPY_DOUBLE, 1, 3, bnd, "xs") : NULL;
    if (xs == NULL)
        return -1;
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
    if (loop == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "np.exp has no float64 loop ('d->d') for the GHMC kernel to call");
        return -1;
    }
    double *work = PyMem_Malloc((size_t)n * (3 * (size_t)d + 3) * sizeof(double));
    if (work == NULL) {
        PyErr_NoMemory();
        return -1;
    }

    fexcept_t flags;
    fegetexceptflag(&flags, FE_ALL_EXCEPT);
    const int64_t nd = n * d;
    const double half = 0.5 * step;
    double *xn = work, *vn = xn + nd, *kn = vn + nd, *Un = kn + nd, *de = Un + n,
           *r = de + n;
    char *args[2] = {(char *)de, (char *)r};
    npy_intp count = (npy_intp)n, strides[2] = {sizeof(double), sizeof(double)};
    for (int64_t s = 0; s < b; s++) {
        for (int64_t i = 0, j = 0; i < k; i++) {
            for (int64_t q = 0; q < R; q++, j++) {  /* row j refreshes from replicate q */
                const double *z = noise + (q * b + s) * d;
                double *vj = v + j * d;
                for (int64_t c = 0; c < d; c++) {
                    vj[c] = vj[c] * cos_w + z[c] * sin_w;
                    xn[j * d + c] = x[j * d + c];
                    vn[j * d + c] = vj[c];
                    kn[j * d + c] = kick[j * d + c];
                }
            }
        }
        for (int64_t l = 0; l < nleap; l++) {
            for (int64_t j = 0; j < nd; j += d) {
                for (int64_t c = 0; c < d; c++) {
                    vn[j + c] = vn[j + c] - kn[j + c];
                    xn[j + c] = xn[j + c] + step * vn[j + c];
                    kn[j + c] = half * (xn[j + c] * inv2[c]);
                    vn[j + c] = vn[j + c] - kn[j + c];
                }
            }
        }
        for (int64_t j = 0; j < n; j++) {
            Un[j] = 0.5 * sum_sq(xn + j * d, inv2, d);
            de[j] = (Ux[j] + sum_sq(v + j * d, NULL, d) / 2.0)
                    - (Un[j] + sum_sq(vn + j * d, NULL, d) / 2.0);
        }
        loop(args, &count, strides, loop_data);
        for (int64_t i = 0, j = 0; i < k; i++) {
            for (int64_t q = 0; q < R; q++, j++) {  /* row j: rule i, replicate q */
                double a;  /* zoo._barker and np.minimum(1.0, r); NaN stays NaN */
                if (barker[i]) {
                    double c = r[j] > DBL_MAX ? DBL_MAX : r[j];
                    a = c / (1.0 + c);
                } else {
                    a = 1.0 <= r[j] ? 1.0 : r[j];
                }
                double *xj = x + j * d, *vj = v + j * d, *kj = kick + j * d,
                       *out = xs + s * nd + j * d;
                if (unif[q * b + s] < a && isfinite(de[j])) {
                    for (int64_t c = 0; c < d; c++) {
                        xj[c] = xn[j * d + c];
                        vj[c] = vn[j * d + c];
                        kj[c] = kn[j * d + c];
                    }
                    Ux[j] = Un[j];
                } else {
                    for (int64_t c = 0; c < d; c++)
                        vj[c] = -vj[c];
                }
                for (int64_t c = 0; c < d; c++)
                    out[c] = xj[c];
            }
        }
    }
    fesetexceptflag(&flags, FE_ALL_EXCEPT);
    PyMem_Free(work);
    return 0;
}
