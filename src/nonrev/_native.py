"""The package's C kernels, built into one shared library on first use;
and the foreign code it calls elsewhere: numpy's OpenBLAS thread setter and
scipy's compiled Gaussian CDF.

``_zigzag_exact.c`` (the exact Zig-Zag event loop, which draws through
numpy's random C functions), ``_ghmc.c`` (the GHMC transition loop, which
reads np.exp's loop table) and ``_autocov.c`` (the GHMC estimator's
autocovariances and the Zig-Zag trajectory integrals' window sums, which
call numpy's float64 dot, and the argument check of every entry point)
compile together against Python's and numpy's headers and link with numpy's
``libnpyrandom.a``.  The library is cached in the package's __pycache__
under a name keyed by everything that shapes it.

Every entry point is declared here, in ``_SIGNATURES``, and called through
``entry``: with the interpreter lock held, its arrays and the bit generator
passed as Python objects that the C code checks.  A failed check raises a
ValueError naming the argument, and any other error the entry point sets
(ZeroDivisionError, RuntimeError, MemoryError) is raised from the call.
"""

from __future__ import annotations

import atexit
import ctypes
import functools
import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import sys
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

_SOURCES = tuple(Path(__file__).with_name(n)
                 for n in ("_zigzag_exact.c", "_ghmc.c", "_autocov.c"))
_CACHE = Path(__file__).with_name("__pycache__")
_CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_OBJ, _I64, _F64 = ctypes.py_object, ctypes.c_int64, ctypes.c_double
# each entry point's return type, then its argument types
_SIGNATURES = {
    # (bit generator capsule, inv2, gamma, rate, full, horizon, times, X, V,
    # codes, rows) -> rows filled
    "exact_run": (_I64, _OBJ, _OBJ, _F64, _F64, ctypes.c_int, _F64, *[_OBJ] * 4, _I64),
    "flip_time": (_F64, _F64, _F64, _F64, _F64),  # (a, b, gamma, e)
    # (exp ufunc, barker, inv2, cos, sin, step, nleap, noise (R x b x d raw
    # normals), unif (R x b), x, Ux, v, kick, xs)
    "ghmc_run": (ctypes.c_int, _OBJ, _OBJ, _OBJ, _F64, _F64, _F64, _I64, *[_OBJ] * 7),
    "autocov_rows": (ctypes.c_int, _OBJ, _OBJ, _I64, _OBJ),  # (chains, means, max_lag, out)
    "window_sums": (ctypes.c_int, *[_OBJ] * 5),  # (vals, weights, half, bounds, out)
}


def _cache_name(sources) -> str:
    """The library's file name, from the bytes of every source, the flags,
    numpy's version, the platform and Python's ABI."""
    h = hashlib.sha256()
    for source in sources:
        h.update(hashlib.sha256(source).digest())
    for part in (*_CFLAGS, np.__version__, sysconfig.get_platform(),
                 sysconfig.get_config_var("SOABI") or ""):
        h.update(b"\0" + part.encode())
    return f"_native.{h.hexdigest()[:16]}.so"


def _compile(out: str) -> None:
    """Build _SOURCES into the shared library out; raises RuntimeError
    naming the command."""
    import shlex  # both needed on a cold cache alone
    import subprocess
    npyrandom = Path(np.random.__file__).with_name("lib") / "libnpyrandom.a"
    cmd = [*shlex.split(sysconfig.get_config_var("CC") or "cc"), *_CFLAGS,
           "-I", np.get_include(), "-I", sysconfig.get_paths()["include"],
           *map(str, _SOURCES), str(npyrandom), "-lm", "-o", out]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True)
    except OSError as exc:
        raise RuntimeError(f"cannot run the C compiler: {shlex.join(cmd)}: {exc}") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"the C compiler failed: {shlex.join(cmd)}\n{proc.stderr}")


@functools.cache
def load() -> ctypes.CDLL:
    """The compiled library.

    Built on first use into _CACHE under ``_cache_name`` of the sources,
    and loaded from there afterwards.  Where that directory cannot be
    written, it is built into a private temporary directory of this
    process, removed at exit.  Each build writes a temporary file and
    renames it into place.
    """
    name = _cache_name([source.read_bytes() for source in _SOURCES])
    path = _CACHE / name
    if not path.exists():
        try:
            _CACHE.mkdir(exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=name, suffix=".tmp", dir=_CACHE)
        except OSError:
            path = Path(tempfile.mkdtemp(prefix="nonrev-")) / name
            atexit.register(shutil.rmtree, path.parent, ignore_errors=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent)
        os.close(fd)
        try:
            _compile(tmp)
        except BaseException:
            os.unlink(tmp)
            raise
        os.replace(tmp, path)
    return ctypes.CDLL(str(path))


@functools.cache
def entry(name: str):
    """The library's entry point name, with its signature from
    ``_SIGNATURES``; it holds the interpreter lock while it runs."""
    restype, *argtypes = _SIGNATURES[name]
    return ctypes.PYFUNCTYPE(restype, *argtypes)((name, load()))


def one_blas_thread() -> None:
    """Hold numpy's bundled OpenBLAS at one thread for the rest of the
    process and every child it forks, so no sum's bits depend on the CPU
    count; RuntimeError where numpy links another BLAS (MKL, Accelerate)."""
    core = ctypes.CDLL(np._core._multiarray_umath.__file__)  # links the OpenBLAS
    if not hasattr(core, "scipy_openblas_set_num_threads64_"):
        raise RuntimeError("nonrev needs numpy's bundled OpenBLAS, which exports "
                           "scipy_openblas_set_num_threads64_")
    ctypes.CFUNCTYPE(None, ctypes.c_int)(("scipy_openblas_set_num_threads64_", core))(1)


@functools.cache
def gaussian_cdf() -> tuple[np.ufunc, np.ufunc]:
    """scipy's ufuncs ndtr and log_ndtr, from its compiled module
    scipy.special._special_ufuncs, loaded by its file and kept in
    sys.modules: neither scipy's __init__ nor scipy.special (0.2 s, mostly
    array-API dispatch) runs, and a later ``import scipy.special`` exports
    these very objects.  Where scipy has no such module, or it lacks either
    ufunc, RuntimeError names what is missing."""
    name = "scipy.special._special_ufuncs"
    if (module := sys.modules.get(name)) is None:
        special = Path(importlib.util.find_spec("scipy").submodule_search_locations[0], "special")
        paths = [special / f"_special_ufuncs{suffix}"
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        if not (found := [path for path in paths if path.exists()]):
            raise RuntimeError(f"nonrev needs scipy's compiled module {name}, "
                               f"which {special} lacks")
        spec = importlib.util.spec_from_file_location(name, found[0])
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    for ufunc in ("ndtr", "log_ndtr"):
        if not hasattr(module, ufunc):
            raise RuntimeError(f"nonrev needs {name}.{ufunc}, which this scipy lacks")
    return module.ndtr, module.log_ndtr
