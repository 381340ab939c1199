/* Plug-in autocovariances of chain rows, each lag's sum through numpy's
 * own float64 dot.
 *
 * nonrev.samplers calls autocov_rows through ctypes, holding the
 * interpreter lock, once per block of chains.  It stands for the loop
 * c = row - mean; out[k] = np.dot(c[:n - k], c[k:]) / n.  For two
 * contiguous float64 vectors np.dot calls the float64 dtype's dotfunc
 * (cblas_ddot in blocks, threaded as the BLAS threads it), so this file
 * calls that same function rather than summing the products itself, and
 * every autocovariance keeps its bits.
 */

#include <Python.h>

#include <stdint.h>

#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include "numpy/arrayobject.h"

/* For each of rows rows of n doubles in chains, centres the row at
 * means[r] into work (n doubles) and writes the biased autocovariances at
 * lags 0..max_lag, dot(work[:n - k], work[k:]) / n, to row r of out
 * (rows x (max_lag + 1)).  The caller keeps 0 <= max_lag < n.  Returns 0,
 * or -1 with a Python exception set when numpy's C API cannot be
 * imported. */
int autocov_rows(const double *chains, const double *means, int64_t rows,
                 int64_t n, int64_t max_lag, double *work, double *out)
{
    if (PyArray_ImportNumPyAPI() < 0)
        return -1;
    PyArray_Descr *f64 = PyArray_DescrFromType(NPY_DOUBLE);
    if (f64 == NULL)
        return -1;
    PyArray_DotFunc *dot = PyDataType_GetArrFuncs(f64)->dotfunc;
    Py_DECREF(f64);
    for (int64_t r = 0; r < rows; r++) {
        const double *x = chains + r * n;
        double *g = out + r * (max_lag + 1);
        for (int64_t j = 0; j < n; j++)
            work[j] = x[j] - means[r];
        for (int64_t k = 0; k <= max_lag; k++) {
            double s;
            dot(work, sizeof(double), work + k, sizeof(double), &s, n - k, NULL);
            g[k] = s / (double)n;
        }
    }
    return 0;
}
