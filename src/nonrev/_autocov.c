/* Sums through numpy's own float64 dot: the GHMC estimator's plug-in
 * autocovariances and the Zig-Zag batch means' window integrals.
 *
 * nonrev.samplers calls autocov_rows, and nonrev.zigzag calls window_sums,
 * through ctypes, holding the interpreter lock.  Each stands for a Python
 * loop of np.dot calls on float64 vectors.  np.dot hands such a pair to the
 * float64 dtype's dotfunc (cblas_ddot in blocks, threaded as the BLAS
 * threads it), so this file calls that same function, with the strides
 * np.dot would pass it, rather than summing the products itself, and every
 * sum keeps its bits.
 */

#include <Python.h>

#include <stdint.h>
#include <string.h>

#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include "numpy/arrayobject.h"

/* The float64 dtype's dotfunc, or NULL with a Python exception set when
 * numpy's C API cannot be imported. */
static PyArray_DotFunc *float64_dot(void)
{
    if (PyArray_ImportNumPyAPI() < 0)
        return NULL;
    PyArray_Descr *f64 = PyArray_DescrFromType(NPY_DOUBLE);
    if (f64 == NULL)
        return NULL;
    PyArray_DotFunc *dot = PyDataType_GetArrFuncs(f64)->dotfunc;
    Py_DECREF(f64);
    return dot;
}

/* For each of rows rows of n doubles in chains, centres the row at
 * means[r] into work (n doubles) and writes the biased autocovariances at
 * lags 0..max_lag, dot(work[:n - k], work[k:]) / n, to row r of out
 * (rows x (max_lag + 1)).  The caller keeps 0 <= max_lag < n.  Returns 0,
 * or -1 with a Python exception set when numpy's C API cannot be
 * imported. */
int autocov_rows(const double *chains, const double *means, int64_t rows,
                 int64_t n, int64_t max_lag, double *work, double *out)
{
    PyArray_DotFunc *dot = float64_dot();
    if (dot == NULL)
        return -1;
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

/* The data of a, which must be an aligned, C-contiguous, native-order
 * array of n elements of numpy type type; NULL with ValueError set
 * otherwise. */
static void *array_data(PyObject *a, int type, npy_intp n, const char *what)
{
    if (!PyArray_Check(a) || PyArray_TYPE((PyArrayObject *)a) != type
        || !PyArray_ISCARRAY_RO((PyArrayObject *)a) || PyArray_SIZE((PyArrayObject *)a) != n) {
        PyErr_Format(PyExc_ValueError, "%s must be %lld contiguous values of the right type",
                     what, (long long)n);
        return NULL;
    }
    return PyArray_DATA((PyArrayObject *)a);
}

/* Window k of the W windows spans cut segments bounds[k]..bounds[k + 1] - 1
 * of m = bounds[W], with bounds[0] = 0 and bounds (W + 1 intp values)
 * nondecreasing.  vals is a tuple of one 1-d float64 array of m values per
 * quadrature node, with any strides; node i has weight weights[i].  Writes
 * out[k] = 0.0 (W doubles), then, node by node, out[k] += np.dot(wh[s:e],
 * vals[i][s:e]) with wh = weights[i] * half (m doubles).  np.dot gives
 * the dot a contiguous copy of a vector whose stride is zero, negative or
 * not a multiple of 8 bytes, or whose data is not 8-byte aligned; this does
 * the same.  Returns 0, or -1 with a Python exception set. */
int window_sums(PyObject *vals, PyObject *weights_arr, PyObject *half_arr,
                PyObject *bounds_arr, PyObject *out_arr)
{
    PyArray_DotFunc *dot = float64_dot();
    if (dot == NULL)
        return -1;
    if (!PyTuple_Check(vals) || !PyArray_Check(out_arr)) {
        PyErr_SetString(PyExc_ValueError, "window_sums takes a tuple of values and an array");
        return -1;
    }
    Py_ssize_t nodes = PyTuple_GET_SIZE(vals);
    npy_intp windows = PyArray_SIZE((PyArrayObject *)out_arr);
    const npy_intp *bounds = array_data(bounds_arr, NPY_INTP, windows + 1, "bounds");
    if (bounds == NULL)
        return -1;
    npy_intp m = bounds[windows];
    const double *weights = array_data(weights_arr, NPY_DOUBLE, nodes, "weights");
    const double *half = weights ? array_data(half_arr, NPY_DOUBLE, m, "half") : NULL;
    double *out = half ? array_data(out_arr, NPY_DOUBLE, windows, "out") : NULL;
    if (out == NULL)
        return -1;
    double *wh = PyMem_Malloc(2 * (size_t)m * sizeof(double)), *copy = wh + m;
    if (wh == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (npy_intp k = 0; k < windows; k++)
        out[k] = 0.0;
    for (Py_ssize_t i = 0; i < nodes; i++) {
        PyArrayObject *a = (PyArrayObject *)PyTuple_GET_ITEM(vals, i);
        if (!PyArray_Check(a) || PyArray_NDIM(a) != 1 || PyArray_DIM(a, 0) != m
            || PyArray_TYPE(a) != NPY_DOUBLE || !PyArray_ISNOTSWAPPED(a)) {
            PyErr_Format(PyExc_ValueError,
                         "f must give one float64 value per node, %lld of them", (long long)m);
            PyMem_Free(wh);
            return -1;
        }
        char *v = PyArray_BYTES(a);
        npy_intp stride = PyArray_STRIDE(a, 0);
        if ((stride == 0 && m > 1) || stride < 0 || stride % (npy_intp)sizeof(double)
            || (uintptr_t)v % sizeof(double)) {
            for (npy_intp j = 0; j < m; j++)
                memcpy(copy + j, v + j * stride, sizeof(double));
            v = (char *)copy;
            stride = sizeof(double);
        }
        for (npy_intp j = 0; j < m; j++)
            wh[j] = weights[i] * half[j];
        for (npy_intp k = 0; k < windows; k++) {
            npy_intp s = bounds[k], e = bounds[k + 1];
            double d;
            dot(wh + s, sizeof(double), v + s * stride, stride, &d, e - s, NULL);
            out[k] += d;
        }
    }
    PyMem_Free(wh);
    return 0;
}
