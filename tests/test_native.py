"""The native library of every C kernel: compiled on first use, cached by a
key of its sources, and refused with RuntimeError before any draw when the
build fails."""

import math
import sysconfig
import tempfile
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
    for cache in (_native.load, zigzag._kernel, zigzag._sums_kernel, samplers._c_kernel,
                  samplers._autocov_kernel):
        cache.cache_clear()


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
