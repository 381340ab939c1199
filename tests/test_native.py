"""The native library of every C kernel: compiled on first use, cached by a
key of its sources, and refused with RuntimeError before any draw when the
build fails; the one BLAS thread, refused likewise where numpy's BLAS
cannot be held at it; and scipy's Gaussian CDF ufuncs, loaded by file and
refused by name where scipy lacks them."""

import _ctypes
import ast
import importlib.machinery
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import sysconfig
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest

from nonrev import _native, samplers, zigzag
from nonrev.zigzag import IntensitySpec, simulate_zigzag, zz_gaussian
from nonrev.zoo import AcceptanceRule


def zigzag_run(seed):
    return simulate_zigzag(zz_gaussian([0.8, 1.5]),
                           IntensitySpec("canonical", refresh_rate=1.0),
                           [0.3, -0.2], [1.0, -1.0], 50.0, np.random.default_rng(seed))


def ghmc_run(seed):
    return samplers.run_ghmc_chains(
        zz_gaussian([1.2]), 0.9, 2, math.pi / 4,
        [AcceptanceRule.metropolis(), AcceptanceRule.barker()], 50, 2, seed,
        [lambda x: x[:, 0]])[0]


def forget_library():
    # the library and its entry points are cached in _native alone
    _native.load.cache_clear()
    _native.entry.cache_clear()


class TestNativeBuild:
    @pytest.fixture(autouse=True)
    def fresh_library(self):
        # each test loads the library itself, and later users load it anew
        forget_library()
        yield
        forget_library()

    def test_warm_cache_loads_without_the_compiler(self, monkeypatch):
        _native.load()  # built now, or loaded from an earlier build
        _native.load.cache_clear()

        def refuse(out):
            raise RuntimeError("compiled although the cache is warm")
        monkeypatch.setattr(_native, "_compile", refuse)
        assert Path(_native.load()._name).parent == _native._CACHE
        assert zigzag_run(3).n_events > 20
        assert np.any(np.diff(ghmc_run(3), axis=1) != 0)

    @pytest.mark.parametrize("i", range(len(_native._SOURCES)))
    def test_every_source_keys_the_cache(self, i):
        sources = [path.read_bytes() for path in _native._SOURCES]
        name = _native._cache_name(sources)

        def changed(new):
            return _native._cache_name(sources[:i] + [new] + sources[i + 1:])
        assert changed(bytes(bytearray(sources[i]))) == name
        assert changed(sources[i] + b"\n") != name
        assert b"double" in sources[i]
        assert changed(sources[i].replace(b"double", b"float", 1)) != name
        assert Path(_native.load()._name).name == name

    @pytest.mark.parametrize("broken", ["zigzag-source", "ghmc-source", "autocov-source",
                                        "compiler"])
    def test_failed_build_raises_before_any_draw(self, broken, monkeypatch, tmp_path):
        cache = tmp_path / "__pycache__"
        monkeypatch.setattr(_native, "_CACHE", cache)
        if broken == "compiler":
            real = sysconfig.get_config_var
            missing = str(tmp_path / "no-such-cc")
            monkeypatch.setattr(sysconfig, "get_config_var",
                                lambda name: missing if name == "CC" else real(name))
            match = "cannot run the C compiler: .*no-such-cc"
        else:
            i = ["zigzag-source", "ghmc-source", "autocov-source"].index(broken)
            bad = tmp_path / _native._SOURCES[i].name
            bad.write_text("this is not C\n")
            sources = list(_native._SOURCES)
            sources[i] = bad
            monkeypatch.setattr(_native, "_SOURCES", tuple(sources))
            match = rf"the C compiler failed: .*{bad.name}(.|\n)*error"
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(RuntimeError, match=match):
            simulate_zigzag(zz_gaussian([0.8, 1.5]), IntensitySpec("canonical"),
                            [0.3, -0.2], [1.0, -1.0], 50.0, rng)
        assert rng.bit_generator.state == state

        def no_stream(seed, replicate):
            raise AssertionError("a replicate stream was made before the build")
        monkeypatch.setattr(samplers, "replicate_rng", no_stream)
        with pytest.raises(RuntimeError, match=match):
            ghmc_run(3)
        # a comparison loads the library, the estimator's kernel with it,
        # when its chains load the GHMC kernel, before any stream is made
        with pytest.raises(RuntimeError, match=match):
            samplers.compare_acceptance_rules(
                zz_gaussian([0.8, 1.5]), 0.7, 0.9, 2,
                [AcceptanceRule.metropolis(), AcceptanceRule.barker()], [0.5],
                {"x0": lambda x: x[:, 0]}, n_steps=300, replicates=2, seed=3)
        # the thinned loop never calls the exact kernel, but the batch
        # means' window sums are loaded before any replicate is simulated
        well, canonical = zigzag.zz_double_well(), IntensitySpec("canonical")
        assert not zigzag._is_exact(well, canonical)
        with pytest.raises(RuntimeError, match=match):
            zigzag.estimate_var_continuous(well, canonical, lambda x, v: x[:, 0], 20.0,
                                           replicates=2, lam=0.0, seed=3)
        assert list(cache.iterdir()) == []  # the temporary files are gone too

    def test_unwritable_cache_builds_in_a_private_directory(self, monkeypatch, tmp_path):
        # __pycache__ cannot be made under a file, even by root
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(_native, "_CACHE", tmp_path / "file" / "__pycache__")
        where = Path(_native.load()._name).parent
        assert where.parent == Path(tempfile.gettempdir())
        assert where.stat().st_mode & 0o777 == 0o700
        private = zigzag_run(4), ghmc_run(4)
        monkeypatch.undo()
        forget_library()
        cached = zigzag_run(4), ghmc_run(4)
        assert Path(_native.load()._name).parent == _native._CACHE
        for field in ("times", "X", "V"):
            assert np.array_equal(getattr(private[0], field), getattr(cached[0], field))
        assert np.array_equal(private[0].codes, cached[0].codes)
        assert np.array_equal(private[1], cached[1])

    def test_sources_compile_without_warnings(self, monkeypatch, tmp_path):
        # -Werror fails the build on any -Wall -Wextra warning; the library
        # goes to tmp_path, so the cache is not touched
        monkeypatch.setattr(_native, "_CFLAGS",
                            (*_native._CFLAGS, "-Wall", "-Wextra", "-Werror"))
        cache = sorted(_native._CACHE.glob("*"))
        out = tmp_path / "strict.so"
        _native._compile(str(out))
        assert out.stat().st_size > 0
        assert sorted(_native._CACHE.glob("*")) == cache


def entry_args(name: str) -> dict:
    """Valid arguments of the entry point name, by the names its checks
    give them, in call order."""
    rng = np.random.default_rng(0)
    return {
        "exact_run": {"bitgen_capsule": rng.bit_generator.capsule, "inv2": np.ones(2),
                      "gamma": 0.0, "rate": 1.0, "full": 1, "horizon": 1.0,
                      "times": np.zeros(8), "X": np.zeros((8, 2)), "V": np.ones((8, 2)),
                      "codes": np.zeros(8, dtype=np.int64), "rows": 1},
        "ghmc_run": {"exp": np.exp, "barker": np.array([0, 1], dtype=np.intc),
                     "inv2": np.ones(2), "cos": 0.5, "sin": 0.5, "step": 0.9, "nleap": 2,
                     "noise": np.zeros((2, 3, 2)), "unif": np.full((2, 3), 0.5),
                     "x": np.zeros((4, 2)), "Ux": np.zeros(4), "v": np.ones((4, 2)),
                     "kick": np.zeros((4, 2)), "xs": np.empty((3, 4, 2))},
        "autocov_rows": {"chains": rng.random((2, 6)), "means": np.full(2, 0.5),
                         "max_lag": 3, "out": np.empty((2, 4))},
        "window_sums": {"vals": (np.ones(5), np.arange(5.0)), "weights": np.ones(2),
                        "half": np.ones(5), "bounds": np.array([0, 2, 5], dtype=np.intp),
                        "out": np.empty(2)},
    }[name]


# the arrays each entry point writes, and those whose sizes the others are
# checked against (their own lengths are read, not checked)
WRITTEN = {"exact_run": {"times", "X", "V", "codes"},
           "ghmc_run": {"x", "Ux", "v", "kick", "xs"},
           "autocov_rows": {"out"}, "window_sums": {"out"}}
SIZING = {"exact_run": {"inv2", "times"}, "ghmc_run": {"noise", "barker"},
          "autocov_rows": {"chains"}, "window_sums": {"out", "bounds"}}


def strided(a):
    """a's values in a view that is not C-contiguous."""
    out = np.empty(a.shape + (2,), a.dtype)[..., 0]
    out[...] = a
    return out


def misaligned(a):
    """a's values in a C-contiguous view one byte past an aligned address."""
    out = np.zeros(a.nbytes + 1, np.uint8)[1:].view(a.dtype).reshape(a.shape)
    out[...] = a
    return out


def read_only(a):
    out = a.copy()
    out.flags.writeable = False
    return out


BREAKS = {  # property -> (how it breaks an array, the error it must raise)
    "dtype": (lambda a: a.astype(np.float32 if a.dtype == np.float64 else np.float64),
              "must be a native-order numpy array of numpy\\.{dtype}$"),
    "byte-order": (lambda a: a.astype(a.dtype.newbyteorder()),
                   "must be a native-order numpy array of numpy\\.{dtype}$"),
    "list": (lambda a: a.tolist(), "must be a native-order numpy array of numpy\\.{dtype}$"),
    "axes": (lambda a: a[None], "must have {ndim} axes, not {ndim1}$"),
    "length": (lambda a: a[:-1].copy(), "must have length {n} along axis 0, not {n1}$"),
    "strided": (strided, "must be C-contiguous and aligned$"),
    "misaligned": (misaligned, "must be C-contiguous and aligned$"),
    "read-only": (read_only, "must be writeable$"),
}


def broken_cases():
    for name in WRITTEN:
        for arg, value in entry_args(name).items():
            if not isinstance(value, np.ndarray):
                continue
            for prop in BREAKS:
                if ((prop == "read-only" and arg not in WRITTEN[name])
                        or (prop == "length" and arg in SIZING[name])):
                    continue
                yield pytest.param(name, arg, prop, id=f"{name}-{arg}-{prop}")


class TestEntryPointChecks:
    """Every array an entry point takes is checked in C before anything is
    read, drawn or written, and a failed check raises a ValueError naming
    the argument and the property."""

    @pytest.mark.parametrize("name", WRITTEN)
    def test_valid_arguments_run(self, name):
        got = _native.entry(name)(*entry_args(name).values())
        assert got == 0 or (name == "exact_run" and 1 <= got < 8)

    @pytest.mark.parametrize("name, arg, prop", broken_cases())
    def test_broken_array_refused(self, name, arg, prop):
        args = entry_args(name)
        good = args[arg]
        args[arg] = BREAKS[prop][0](good)
        match = "^" + arg + " " + BREAKS[prop][1].format(
            dtype=good.dtype.type.__name__, ndim=good.ndim, ndim1=good.ndim + 1,
            n=len(good), n1=len(good) - 1)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        if name == "exact_run":
            args["bitgen_capsule"] = rng.bit_generator.capsule
        written = {k: np.array(args[k]).tobytes() for k in WRITTEN[name]}
        with pytest.raises(ValueError, match=match):
            _native.entry(name)(*args.values())
        # nothing written or drawn
        assert {k: np.array(args[k]).tobytes() for k in WRITTEN[name]} == written
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("capsule", [
        None, 0, "BitGenerator", np.random.PCG64(0),
        np.random.PCG64(0).ctypes.bit_generator,
        np._core._multiarray_umath._ARRAY_API],
        ids=["none", "int", "str", "bit-generator", "c-pointer", "other-capsule"])
    def test_wrong_capsule_refused(self, capsule):
        args = entry_args("exact_run")
        args["bitgen_capsule"] = capsule
        with pytest.raises(ValueError,
                           match=r"^bitgen_capsule must be a numpy BitGenerator's capsule$"):
            _native.entry("exact_run")(*args.values())

    @pytest.mark.parametrize("name, changes, match", [
        ("exact_run", {"rows": 0}, r"^need d >= 1 and rows in \[1, 8\], got d = 2 and rows = 0$"),
        ("exact_run", {"rows": 9}, r"^need d >= 1 and rows in \[1, 8\], got d = 2 and rows = 9$"),
        ("exact_run", {"inv2": np.ones(0), "X": np.zeros((8, 0)), "V": np.zeros((8, 0))},
         r"^need d >= 1 and rows in \[1, 8\], got d = 0 and rows = 1$"),
        ("ghmc_run", {"exp": math.exp}, r"^exp must be a numpy ufunc$"),
        ("ghmc_run", {"barker": np.zeros(3, dtype=np.intc)},
         r"^x must have length 6 along axis 0, not 4$"),
        ("ghmc_run", {"barker": np.zeros(0, dtype=np.intc)},
         r"^x must have length 0 along axis 0, not 4$"),
        ("ghmc_run", {"noise": np.zeros((4, 3, 2)), "unif": np.full((4, 3), 0.5)},
         r"^x must have length 8 along axis 0, not 4$"),
        ("ghmc_run", {"unif": np.full((2, 4), 0.5)},
         r"^unif must have length 3 along axis 1, not 4$"),
        ("ghmc_run", {"noise": np.zeros((2, 3, 0)), "inv2": np.ones(0)},
         r"^need d >= 1, got d = 0$"),
        ("autocov_rows", {"max_lag": 6}, r"^max_lag must lie in \[0, 6\), got 6$"),
        ("autocov_rows", {"max_lag": -1}, r"^max_lag must lie in \[0, 6\), got -1$"),
        ("window_sums", {"bounds": np.array([1, 2, 5])}, r"^bounds must rise from 0$"),
        ("window_sums", {"bounds": np.array([0, 3, 2])}, r"^bounds must rise from 0$"),
        ("window_sums", {"vals": [np.ones(5), np.ones(5)]}, r"^vals must be a tuple$"),
        ("window_sums", {"vals": (np.ones(5), np.ones(4))},
         r"^f must give one float64 value per node, 5 of them$"),
        ("window_sums", {"vals": (np.ones(5), np.ones(5, dtype=np.float32))},
         r"^f must give one float64 value per node, 5 of them$"),
    ], ids=["rows-0", "rows-past-cap", "d-0", "exp-not-ufunc", "rows-not-3-rules",
            "rows-not-0-rules", "rows-not-4-replicates", "unif-not-3-steps", "ghmc-d-0",
            "lag-n", "lag-negative",
            "bounds-from-1", "bounds-falling",
            "vals-list", "vals-short", "vals-float32"])
    def test_other_argument_refused(self, name, changes, match):
        args = {**entry_args(name), **changes}
        with pytest.raises(ValueError, match=match):
            _native.entry(name)(*args.values())

    def test_zero_divisor_raises_from_c(self):
        # flip_time's b = 0 at a < 0, and exact_run's first clock when
        # 1 / sigma^2 is 0, raise Python's own error
        with pytest.raises(ZeroDivisionError, match="^float division by zero$"):
            _native.entry("flip_time")(-1.0, 0.0, 0.5, 1.0)
        args = entry_args("exact_run")
        args["inv2"] = np.zeros(2)
        with pytest.raises(ZeroDivisionError, match="^float division by zero$"):
            _native.entry("exact_run")(*args.values())


def test_only_native_declares_entry_points():
    # every entry point is declared in _native; a ctypes prototype, argtypes
    # or ndpointer anywhere else would bring back another calling convention
    for path in sorted(Path(_native.__file__).parent.glob("*.py")):
        if path.name == "_native.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                assert not any(n.split(".")[0] == "ctypes" for n in names), path.name
            elif isinstance(node, ast.Attribute):
                assert node.attr not in ("argtypes", "restype", "PYFUNCTYPE", "CFUNCTYPE",
                                         "ndpointer", "ctypeslib", "ctypes"), (
                    path.name, node.lineno)


WITHOUT_SETTER = """
import _ctypes, json, sys
import numpy as np
np._core._multiarray_umath.__file__ = _ctypes.__file__  # exports no BLAS setter
try:
    import nonrev.cli
    error = None
except RuntimeError as exc:
    error = str(exc)
print(json.dumps([error, sorted(name for name in sys.modules if name.startswith("nonrev"))]))
"""


class TestOneBlasThread:
    def test_library_without_the_setter_refused_by_name(self, monkeypatch):
        # as for a numpy linked to MKL, Accelerate or a system BLAS
        monkeypatch.setattr(np._core._multiarray_umath, "__file__", _ctypes.__file__)
        with pytest.raises(RuntimeError, match="^nonrev needs numpy's bundled OpenBLAS, "
                                               "which exports scipy_openblas_set_num_threads64_$"):
            _native.one_blas_thread()

    def test_refused_at_import_before_any_solve_or_draw(self):
        # the refusal comes from importing nonrev.finite, which every engine
        # imports: none of them is left loaded to solve or draw
        src = str(Path(_native.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", WITHOUT_SETTER], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        error, loaded = json.loads(proc.stdout)
        assert error.startswith("nonrev needs numpy's bundled OpenBLAS")
        assert loaded == ["nonrev", "nonrev._native"]


LOADED_FIRST = """
import json, sys, warnings
import numpy as np
from nonrev import _native
warnings.simplefilter("error")
ndtr, log_ndtr = _native.gaussian_cdf()
x = np.concatenate([np.linspace(-40, 40, 1_000_001),
                    np.random.default_rng(0).normal(0.0, 10.0, 1_000_000),
                    [np.inf, -np.inf, np.nan, 0.0, -0.0]])
loaded = [ndtr(x), log_ndtr(x)]
before = sorted(name for name in sys.modules if name.startswith("scipy"))
import scipy.special
print(json.dumps({
    "before": before,
    "same": [scipy.special.ndtr is ndtr, scipy.special.log_ndtr is log_ndtr],
    "bits": [np.array_equal(a.view(np.uint64), b.view(np.uint64)) for a, b in
             zip(loaded, [scipy.special.ndtr(x), scipy.special.log_ndtr(x)])]}))
"""

CDF_MODULE = "scipy.special._special_ufuncs"


class TestGaussianCdf:
    @pytest.fixture(autouse=True)
    def fresh_loader(self):
        # each test loads the ufuncs itself, and later users load them anew
        _native.gaussian_cdf.cache_clear()
        yield
        _native.gaussian_cdf.cache_clear()

    def test_loaded_first_they_are_what_scipy_special_exports(self):
        # a scipy release that moves ndtr or log_ndtr out of the module
        # fails here, not in a catalog run
        src = str(Path(_native.__file__).resolve().parent.parent)
        proc = subprocess.run([sys.executable, "-c", LOADED_FIRST], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out == {"before": [CDF_MODULE], "same": [True, True], "bits": [True, True]}

    def test_scipy_without_the_module_refused_by_name(self, tmp_path, monkeypatch):
        (tmp_path / "special").mkdir()
        scipy_spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        scipy_spec.submodule_search_locations = [str(tmp_path)]
        find_spec = importlib.util.find_spec
        monkeypatch.setattr(importlib.util, "find_spec",
                            lambda name, *args: scipy_spec if name == "scipy"
                            else find_spec(name, *args))
        monkeypatch.delitem(sys.modules, CDF_MODULE, raising=False)
        with pytest.raises(RuntimeError, match=re.escape(
                f"nonrev needs scipy's compiled module {CDF_MODULE}, "
                f"which {tmp_path / 'special'} lacks")):
            _native.gaussian_cdf()
        assert CDF_MODULE not in sys.modules

    @pytest.mark.parametrize("missing", ["ndtr", "log_ndtr"])
    def test_module_without_a_ufunc_refused_by_name(self, missing, monkeypatch):
        module = types.ModuleType(CDF_MODULE)
        module.ndtr = module.log_ndtr = np.exp
        delattr(module, missing)
        monkeypatch.setitem(sys.modules, CDF_MODULE, module)
        with pytest.raises(RuntimeError, match=f"^nonrev needs {re.escape(CDF_MODULE)}"
                                               rf"\.{missing}, which this scipy lacks$"):
            _native.gaussian_cdf()
