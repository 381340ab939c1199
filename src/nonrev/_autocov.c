/* Sums through numpy's own float64 dot: the GHMC estimator's plug-in
 * autocovariances and the Zig-Zag batch means' window integrals; and
 * array_data, the argument check of every entry point of the library.
 *
 * nonrev._native declares every entry point with PYFUNCTYPE: each is called
 * holding the interpreter lock, takes its arrays as Python objects and
 * checks them with array_data, and returns with a Python exception set when
 * it fails.  autocov_rows and window_sums each stand for a Python loop of
 * np.dot calls on float64 vectors.  np.dot hands such a pair to the
 * float64 dtype's dotfunc (cblas_ddot in blocks, on the one BLAS thread
 * that nonrev.finite sets), so this file calls that same function, with
 * the strides np.dot would pass it, rather than summing the products
 * itself, and every sum keeps its bits.
 */

#include <Python.h>

#include <stdint.h>
#include <string.h>

#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include "numpy/arrayobject.h"

/* The data of a, which must be an aligned, C-contiguous, native-order numpy
 * array of numpy type type, writeable where write, with ndim axes of the
 * sizes in shape; a negative size is a's own, written back into shape.
 * NULL with a ValueError naming what and the failed property otherwise. */
void *array_data(PyObject *a, int type, int write, int ndim, npy_intp *shape,
                 const char *what)
{
    if (PyArray_ImportNumPyAPI() < 0)
        return NULL;
    PyArrayObject *arr = (PyArrayObject *)a;
    if (!PyArray_Check(a) || PyArray_TYPE(arr) != type || !PyArray_ISNOTSWAPPED(arr)) {
        PyArray_Descr *want = PyArray_DescrFromType(type);
        if (want != NULL) {
            PyErr_Format(PyExc_ValueError, "%s must be a native-order numpy array of %s",
                         what, want->typeobj->tp_name);
            Py_DECREF(want);
        }
        return NULL;
    }
    if (PyArray_NDIM(arr) != ndim) {
        PyErr_Format(PyExc_ValueError, "%s must have %d axes, not %d", what, ndim,
                     PyArray_NDIM(arr));
        return NULL;
    }
    for (int i = 0; i < ndim; i++) {
        if (shape[i] < 0)
            shape[i] = PyArray_DIM(arr, i);
        if (PyArray_DIM(arr, i) != shape[i]) {
            PyErr_Format(PyExc_ValueError, "%s must have length %lld along axis %d, not %lld",
                         what, (long long)shape[i], i, (long long)PyArray_DIM(arr, i));
            return NULL;
        }
    }
    if (!PyArray_ISCARRAY_RO(arr)) {
        PyErr_Format(PyExc_ValueError, "%s must be C-contiguous and aligned", what);
        return NULL;
    }
    if (write && !PyArray_ISWRITEABLE(arr)) {
        PyErr_Format(PyExc_ValueError, "%s must be writeable", what);
        return NULL;
    }
    return PyArray_DATA(arr);
}

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

/* For each row r of the (rows, n) array chains, centres the row at
 * means[r] (rows values) and writes the biased autocovariances at lags
 * 0..max_lag, dot(c[:n - k], c[k:]) / n of the centred row c, to row r of
 * out (rows x (max_lag + 1)).  Returns 0, or -1 with a Python exception
 * set: ValueError for a bad argument or max_lag outside [0, n). */
int autocov_rows(PyObject *chains_arr, PyObject *means_arr, int64_t max_lag,
                 PyObject *out_arr)
{
    PyArray_DotFunc *dot = float64_dot();
    npy_intp cs[2] = {-1, -1};
    const double *chains = dot ? array_data(chains_arr, NPY_DOUBLE, 0, 2, cs, "chains") : NULL;
    if (chains == NULL)
        return -1;
    npy_intp rows = cs[0], n = cs[1];
    if (!(0 <= max_lag && max_lag < n)) {
        PyErr_Format(PyExc_ValueError, "max_lag must lie in [0, %lld), got %lld",
                     (long long)n, (long long)max_lag);
        return -1;
    }
    npy_intp os[2] = {rows, max_lag + 1};
    const double *means = array_data(means_arr, NPY_DOUBLE, 0, 1, &rows, "means");
    double *out = means ? array_data(out_arr, NPY_DOUBLE, 1, 2, os, "out") : NULL;
    if (out == NULL)
        return -1;
    double *work = PyMem_Malloc((size_t)n * sizeof(double));
    if (work == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (npy_intp r = 0; r < rows; r++) {
        const double *x = chains + r * n;
        double *g = out + r * (max_lag + 1);
        for (npy_intp j = 0; j < n; j++)
            work[j] = x[j] - means[r];
        for (npy_intp k = 0; k <= max_lag; k++) {
            double s;
            dot(work, sizeof(double), work + k, sizeof(double), &s, n - k, NULL);
            g[k] = s / (double)n;
        }
    }
    PyMem_Free(work);
    return 0;
}

/* Window k of the W windows spans cut segments bounds[k]..bounds[k + 1] - 1
 * of m = bounds[W], with bounds (W + 1 intp values) rising from 0.  vals is
 * a tuple of one 1-d float64 array of m values per quadrature node, with
 * any strides; node i has weight weights[i].  Writes out[k] = 0.0 (W
 * doubles), then, node by node, out[k] += np.dot(wh[s:e], vals[i][s:e])
 * with wh = weights[i] * half (m doubles).  np.dot gives the dot a
 * contiguous copy of a vector whose stride is zero, negative or not a
 * multiple of 8 bytes, or whose data is not 8-byte aligned; this does the
 * same.  Returns 0, or -1 with a Python exception set: ValueError for a bad
 * argument. */
int window_sums(PyObject *vals, PyObject *weights_arr, PyObject *half_arr,
                PyObject *bounds_arr, PyObject *out_arr)
{
    PyArray_DotFunc *dot = float64_dot();
    if (dot == NULL)
        return -1;
    if (!PyTuple_Check(vals)) {
        PyErr_SetString(PyExc_ValueError, "vals must be a tuple");
        return -1;
    }
    npy_intp nodes = PyTuple_GET_SIZE(vals), windows = -1;
    double *out = array_data(out_arr, NPY_DOUBLE, 1, 1, &windows, "out");
    const npy_intp *bounds = out ? array_data(bounds_arr, NPY_INTP, 0, 1,
                                              (npy_intp[]){windows + 1}, "bounds") : NULL;
    if (bounds == NULL)
        return -1;
    for (npy_intp k = 0; k <= windows; k++) {
        if (k ? bounds[k] < bounds[k - 1] : bounds[0] != 0) {
            PyErr_SetString(PyExc_ValueError, "bounds must rise from 0");
            return -1;
        }
    }
    npy_intp m = bounds[windows];
    const double *weights = array_data(weights_arr, NPY_DOUBLE, 0, 1, &nodes, "weights");
    const double *half = weights ? array_data(half_arr, NPY_DOUBLE, 0, 1, &m, "half") : NULL;
    if (half == NULL)
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
