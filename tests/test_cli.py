import contextlib
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_ndtr, ndtr

import nonrev
from nonrev import cli, samplers, zigzag
from nonrev.experiments import EXPERIMENTS, PARAMS, cross_key_error, size_error

CATALOG = ["gustafson-ring", "lifted-ordering", "neal-ordering",
           "two-cycle-extra-chance", "ghmc-phi-compare", "zigzag-1d-gamma",
           "zigzag-2d-refresh", "phi-eps-bounds"]


GRID_KEYS = [(name, key) for name, (_d, defaults, _r) in EXPERIMENTS.items()
             for key, value in defaults.items() if isinstance(value, tuple)]
REPLICATED = [name for name, (_d, defaults, _r) in EXPERIMENTS.items()
              if "replicates" in defaults]


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestCatalog:
    def test_names_and_order_stable(self):
        assert list(EXPERIMENTS) == CATALOG

    def test_list_subcommand(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for name in CATALOG:
            assert f"{name}:" in out


class TestConfigValidation:
    def test_unknown_experiment(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "nope", "seed": 1})
        assert cli.main(["run", path]) == 2

    def test_missing_seed(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "gustafson-ring"})
        assert cli.main(["run", path]) == 2

    def test_non_integer_seed(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "gustafson-ring",
                                       "seed": "seven"})
        assert cli.main(["run", path]) == 2

    def test_unknown_key(self, tmp_path):
        # phi-eps-bounds has no lambda grid, so lambdas is unknown there too
        for name, key, value in (("gustafson-ring", "extra_knob", 3),
                                 ("phi-eps-bounds", "lambdas", [0.5])):
            path = write_config(tmp_path, {"experiment": name, "seed": 1,
                                           key: value,
                                           "out": str(tmp_path / "x")})
            assert cli.main(["run", path]) == 2

    def test_lambda_outside_unit_interval(self, tmp_path):
        # lambda = 0 compares |fbar|^2 with itself (neal-ordering once divided
        # by it and exited 3)
        for name, lambdas in (("gustafson-ring", [0.5, 1.0]),
                              ("neal-ordering", [0.0, 0.5])):
            path = write_config(tmp_path, {"experiment": name, "seed": 1,
                                           "lambdas": lambdas,
                                           "out": str(tmp_path / "x")})
            assert cli.main(["run", path]) == 2

    @pytest.mark.parametrize("name, key", [("gustafson-ring", "lambdas"),
                                           ("ghmc-phi-compare", "mc_lambdas")])
    @pytest.mark.parametrize("lam", ["a", None, True, False, [0.5], math.nan],
                             ids=["string", "null", "true", "false", "list", "nan"])
    def test_lambda_not_a_number_in_unit_interval(self, tmp_path, name, key, lam):
        path = write_config(tmp_path, {"experiment": name, "seed": 1,
                                       key: [0.5, lam],
                                       "out": str(tmp_path / "x")})
        assert cli.main(["run", path]) == 2

    @pytest.mark.parametrize("name", ["zigzag-1d-gamma", "zigzag-2d-refresh"])
    @pytest.mark.parametrize("horizon", [3.9, 0, -1, "long", math.inf])
    def test_horizon_too_short_for_batch_means(self, tmp_path, name, horizon):
        path = write_config(tmp_path, {"experiment": name, "seed": 1,
                                       "horizon": horizon,
                                       "out": str(tmp_path / "x")})
        assert cli.main(["run", path]) == 2

    @pytest.mark.parametrize("name, key", GRID_KEYS,
                             ids=[f"{n}-{k}" for n, k in GRID_KEYS])
    @pytest.mark.parametrize("value", [[], "abc"], ids=["empty", "string"])
    def test_grid_not_a_nonempty_list(self, tmp_path, name, key, value):
        # an empty grid leaves its check nothing to compare: no vacuous PASS
        path = write_config(tmp_path, {"experiment": name, "seed": 1,
                                       key: value, "out": str(tmp_path / "x")})
        assert cli.main(["run", path]) == 2

    @pytest.mark.parametrize("ks", [[], [2], 3])
    def test_too_few_k_values(self, tmp_path, ks):
        path = write_config(tmp_path, {"experiment": "two-cycle-extra-chance",
                                       "seed": 1, "K_values": ks,
                                       "out": str(tmp_path / "x")})
        assert cli.main(["run", path]) == 2

    @pytest.mark.parametrize("name", CATALOG)
    @pytest.mark.parametrize("seed", [True, -1, 2 ** 64],
                             ids=["true", "negative", "2^64"])
    def test_seed_not_a_64_bit_unsigned_integer(self, tmp_path, name, seed):
        path = write_config(tmp_path, {"experiment": name, "seed": seed,
                                       "out": str(tmp_path / "x")})
        assert cli.main(["run", path]) == 2

    def test_seed_range_ends_accepted(self, tmp_path):
        # every entry, continuous ones included, loads at its defaults
        for name in CATALOG:
            for seed in (0, 2 ** 64 - 1):
                path = write_config(tmp_path, {"experiment": name, "seed": seed})
                cfg = cli.load_config(path)
                assert (cfg.experiment, cfg.seed) == (name, seed)

    @pytest.mark.parametrize("name", REPLICATED)
    @pytest.mark.parametrize("replicates", [1, 0, 1.5, "many", 2.5, math.inf])
    def test_replicates_below_two(self, tmp_path, name, replicates):
        path = write_config(tmp_path, {"experiment": name, "seed": 1,
                                       "replicates": replicates,
                                       "out": str(tmp_path / "x")})
        assert cli.main(["run", path]) == 2

    # each of these ran at the parent of the typed parameter table: the GHMC
    # ones froze every chain and passed with each estimate 0.0 +- 0.0, the
    # rest compared a process or a K with itself or wrote K=True
    @pytest.mark.parametrize("name, key, value, code", [
        ("ghmc-phi-compare", "step", 50, 3),
        ("ghmc-phi-compare", "step", 1e300, 3),
        ("ghmc-phi-compare", "step", math.nan, 2),
        ("ghmc-phi-compare", "step", 0, 2),
        ("ghmc-phi-compare", "nleap", 0, 2),
        ("zigzag-1d-gamma", "gamma", 0, 2),
        ("zigzag-2d-refresh", "refresh_rate", 0, 2),
        ("zigzag-2d-refresh", "refresh_rate", math.nan, 2),
        ("two-cycle-extra-chance", "K_values", [2, 2], 2),
        ("two-cycle-extra-chance", "K_values", [True, 2], 2),
        ("two-cycle-extra-chance", "K_values", [3, 2], 2),
    ], ids=["step-50", "step-1e300", "step-nan", "step-0", "nleap-0", "gamma-0",
            "refresh-0", "refresh-nan", "K-2-2", "K-true-2", "K-3-2"])
    def test_run_without_evidence(self, tmp_path, name, key, value, code):
        small = {"ghmc-phi-compare": {"steps": 2000, "replicates": 4},
                 "zigzag-1d-gamma": {"horizon": 100.0, "replicates": 4},
                 "zigzag-2d-refresh": {"horizon": 100.0, "replicates": 4}}
        path = write_config(tmp_path, {"experiment": name, "seed": 1,
                                       **small.get(name, {}), key: value,
                                       "out": str(tmp_path / "x")})
        assert cli.main(["run", path]) == code

    @pytest.mark.parametrize("name, key, value", [
        ("zigzag-1d-gamma", "horizon", 10 ** 400),
        ("ghmc-phi-compare", "step", 10 ** 400),
        ("ghmc-phi-compare", "steps", 10 ** 400),
        ("gustafson-ring", "weights", [1.0, 10 ** 400, 1.0]),
        ("ghmc-phi-compare", "steps", "many"),
        ("ghmc-phi-compare", "steps", 2000.0),
        ("zigzag-1d-gamma", "gamma", math.nan),
        ("zigzag-1d-gamma", "gamma", -1),
        ("zigzag-2d-refresh", "quad_nodes", 2.5),
        ("phi-eps-bounds", "grid_points", 0),
        ("phi-eps-bounds", "eps_values", [0.1, 0.0]),
        ("gustafson-ring", "weights", ["a", 1.0, 1.0]),
        ("lifted-ordering", "step_dist", [1.0, math.inf]),
        ("gustafson-ring", "lambdas", [[0.5]]),
    ], ids=["horizon-1e400", "step-1e400", "steps-1e400", "weight-1e400",
            "steps-string", "steps-float", "gamma-nan", "gamma-negative",
            "quad-nodes-float", "grid-points-0", "eps-0", "weight-string",
            "step-dist-inf", "lambda-nested"])
    def test_value_outside_its_table_row(self, tmp_path, name, key, value):
        # load_config only; an int beyond the float range must not overflow
        path = write_config(tmp_path, {"experiment": name, "seed": 1, key: value})
        with pytest.raises(cli.ConfigError, match=key):
            cli.load_config(path)

    # each used to exit 3 ("chain shorter than 10 * max_lag") after the
    # whole GHMC run had finished
    @pytest.mark.parametrize("overrides", [
        {"mc_lambdas": [0.995]},
        {"mc_lambdas": [0.9999], "steps": 2000},
    ], ids=["lam-0.995-default-steps", "lam-0.9999-2000-steps"])
    def test_steps_too_short_for_mc_lambdas(self, tmp_path, capsys, overrides):
        path = write_config(tmp_path, {"experiment": "ghmc-phi-compare", "seed": 1,
                                       **overrides, "out": str(tmp_path / "x")})
        assert cli.main(["run", path]) == 2
        assert capsys.readouterr().err.startswith("config error: steps must be >=")
        assert not (tmp_path / "x").exists()

    def test_steps_rule_boundary(self, tmp_path):
        # 10 lag windows of 83 at lambda = 0.8; criterion 10 runs 2000 steps
        # at the default mc_lambdas (0.5,), 27 lags
        assert samplers.min_chain_length(0.8) == 830
        for steps, lambdas, ok in ((830, [0.2, 0.8], True), (829, [0.8, 0.2], False),
                                   (2000, None, True)):
            payload = {"experiment": "ghmc-phi-compare", "seed": 1, "steps": steps,
                       **({"mc_lambdas": lambdas} if lambdas else {})}
            path = write_config(tmp_path, payload)
            if ok:
                assert cli.load_config(path).params["steps"] == steps
            else:
                with pytest.raises(cli.ConfigError, match="steps must be >= 830"):
                    cli.load_config(path)

    # gamma = 1e300 grew the exact loop's buffers until the process was
    # killed, or exited 3 under a memory limit
    @pytest.mark.parametrize("overrides", [
        {"experiment": "zigzag-1d-gamma", "gamma": 1e300, "horizon": 16.0, "replicates": 2},
        {"experiment": "zigzag-1d-gamma", "horizon": 1e300},
        {"experiment": "zigzag-2d-refresh", "refresh_rate": 1e6, "horizon": 16.0},
    ], ids=["gamma-1e300", "horizon-1e300", "refresh-1e6"])
    def test_replicates_too_long_refused_before_any_draw(self, tmp_path, capsys, monkeypatch,
                                                          overrides):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated a refused config")
        monkeypatch.setattr(zigzag, "estimate_var_continuous", refuse)
        monkeypatch.setattr(zigzag, "_exact_loop", refuse)
        path = write_config(tmp_path, {"seed": 1, **overrides, "out": str(tmp_path / "x")})
        assert cli.main(["run", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: horizon {float(overrides['horizon'])!r} "
                              "at these rates predicts"), err
        assert err.rstrip().endswith("events per replicate, more than 1000000"), err
        assert not (tmp_path / "x").exists()

    def test_replicate_size_rule_boundary(self, tmp_path):
        # 1.1 x horizon x (1 / sqrt(2 pi) + gamma) events at gamma = 0.5;
        # the defaults predict about 2,000
        horizon = 1e6 / (1.1 * (1 / math.sqrt(2 * math.pi) + 0.5))
        for scale, ok in ((0.999, True), (1.001, False), (2000 / horizon, True)):
            path = write_config(tmp_path, {"experiment": "zigzag-1d-gamma", "seed": 1,
                                           "horizon": scale * horizon})
            if ok:
                assert cli.load_config(path).params["horizon"] == scale * horizon
            else:
                with pytest.raises(cli.ConfigError, match="more than 1000000$"):
                    cli.load_config(path)

    # steps = 10**12 exited 3 when allocating its first chain (116 TiB); a
    # size the allocator overcommits would run until the host ran out
    @pytest.mark.parametrize("overrides, size", [
        ({"steps": 10 ** 12}, 32 * 8 * 10 ** 12),
        ({"steps": 40_000, "replicates": 10 ** 6}, 32 * 40_000 * 10 ** 6),
    ], ids=["steps-1e12", "replicates-1e6"])
    def test_chains_too_large_refused_before_any_draw(self, tmp_path, capsys, monkeypatch,
                                                      overrides, size):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled a refused config")
        monkeypatch.setattr(samplers, "run_ghmc_chains", refuse)
        path = write_config(tmp_path, {"experiment": "ghmc-phi-compare", "seed": 1,
                                       **overrides, "out": str(tmp_path / "x")})
        assert cli.main(["run", path]) == 2
        err = capsys.readouterr().err
        assert err.rstrip().endswith(f"make {size} bytes of chains, more than 1073741824"), err
        assert err.startswith("config error: steps "), err
        assert not (tmp_path / "x").exists()

    def test_chain_size_rule_boundary(self, tmp_path):
        # 8 B x 2 observables x 2 rules x replicates x steps, at most 2**30:
        # 2**25 replicate-steps; the defaults take 5.1 MB
        for sizes, ok in (({"steps": 2 ** 22, "replicates": 8}, True),
                          ({"steps": 2 ** 22 + 1, "replicates": 8}, False),
                          ({"steps": 2 ** 24, "replicates": 2}, True),
                          ({"steps": 2 ** 24 + 1, "replicates": 2}, False), ({}, True)):
            path = write_config(tmp_path, {"experiment": "ghmc-phi-compare", "seed": 1,
                                           **sizes})
            if ok:
                params = cli.load_config(path).params
                assert {key: params[key] for key in sizes} == sizes
            else:
                with pytest.raises(cli.ConfigError, match="more than 1073741824$"):
                    cli.load_config(path)

    @pytest.mark.parametrize("payload", [
        {"experiment": ["gustafson-ring"], "seed": 1},
        {"experiment": "gustafson-ring", "seed": 1, "out": 5},
    ], ids=["experiment-list", "out-number"])
    def test_experiment_and_out_must_be_strings(self, tmp_path, payload):
        assert cli.main(["run", write_config(tmp_path, payload)]) == 2

    def test_table_covers_every_key(self):
        keys = {key for _d, defaults, _r in EXPERIMENTS.values() for key in defaults}
        assert set(PARAMS) == keys and len(PARAMS) == 15

    def test_values_take_their_defaults_types(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "zigzag-1d-gamma", "seed": 1,
                                       "gamma": 1, "horizon": 200})
        params = cli.load_config(path).params
        assert params == {"gamma": 1.0, "horizon": 200.0, "replicates": 16}
        assert type(params["gamma"]) is type(params["horizon"]) is float
        path = write_config(tmp_path, {"experiment": "two-cycle-extra-chance",
                                       "seed": 1, "weights": [1, 2, 3]})
        assert cli.load_config(path).params["weights"] == (1.0, 2.0, 3.0)

    def test_malformed_json(self, tmp_path, capsys):
        # not JSON; not UTF-8 (once a UnicodeDecodeError, exit 1); nested
        # past the decoder's recursion limit (once a RecursionError, exit 1);
        # an integer past int()'s digit limit (once a ValueError, exit 1)
        for raw in (b"{not json", b'{"experiment": "gustafson-ring\xff"}',
                    b"[" * 100_000 + b"]" * 100_000, b'{"seed": ' + b"1" * 5000 + b"}"):
            path = tmp_path / "bad.json"
            path.write_bytes(raw)
            assert cli.main(["run", str(path)]) == 2
            assert capsys.readouterr().err.startswith("config error:")

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "gustafson-ring", "seed": 1})
        cfg = cli.load_config(path, seed_override=99)
        assert cfg.seed == 99


class TestRun:
    def run_gustafson(self, tmp_path, sub, seed=7):
        out = tmp_path / sub
        path = write_config(tmp_path, {"experiment": "gustafson-ring",
                                       "seed": seed, "out": str(out)})
        code = cli.main(["run", path])
        return code, out

    def test_writes_three_files_and_passes(self, tmp_path, capsys):
        code, out = self.run_gustafson(tmp_path, "a")
        assert code == 0
        for suffix in ("results.csv", "summary.json", "metadata.json"):
            assert (out / f"gustafson-ring_{suffix}").exists()
        stdout = capsys.readouterr().out
        assert "PASS" in stdout and "FAIL" not in stdout
        summary = json.loads((out / "gustafson-ring_summary.json").read_text())
        assert all(c["pass"] for c in summary["checks"])
        # each check carries the tolerance its violation is held to
        assert [sorted(c) for c in summary["checks"]] == [
            ["max_violation", "name", "pass", "tol"]] * 4
        assert summary["checks"][-1]["tol"] == 1e-8

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_out_path_that_is_not_a_directory(self, tmp_path, capsys, out):
        # --out under a regular file was a NotADirectoryError, exit 1; it is
        # found before the run starts
        (tmp_path / "file").write_text("")
        path = write_config(tmp_path, {"experiment": "gustafson-ring", "seed": 1})
        assert cli.main(["run", path, "--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err.startswith("config error:")

    def test_second_call_leaves_no_parser_cycles(self, capsys):
        # each call built its own parser, and left its HelpFormatter,
        # _ArgumentGroup and _SubParsersAction objects in reference cycles
        assert cli.main(["list"]) == 0
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert cli.main(["list"]) == 0
            gc.collect()
            left = [type(o).__name__ for o in gc.garbage if type(o).__module__ == "argparse"]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert left == []
        assert capsys.readouterr().out.count("gustafson-ring:") == 2

    def test_results_csv_deterministic(self, tmp_path):
        _, out_a = self.run_gustafson(tmp_path, "a")
        _, out_b = self.run_gustafson(tmp_path, "b")
        a = (out_a / "gustafson-ring_results.csv").read_bytes()
        b = (out_b / "gustafson-ring_results.csv").read_bytes()
        assert a == b
        header = a.decode().splitlines()[0]
        assert header == "experiment,case_id,lambda,value,se,oracle,pass"

    def test_large_eps_runs(self, tmp_path):
        # phi_eps(1e300) is about 1e-9 below 1 at eps = 1000; the rule's
        # phi(inf) check once rejected it and the run exited 3
        path = write_config(tmp_path, {"experiment": "phi-eps-bounds", "seed": 1,
                                       "eps_values": [1000.0],
                                       "out": str(tmp_path / "x")})
        assert cli.main(["run", path]) == 0

    def test_numeric_failure_exit_code(self, tmp_path):
        # negative target weights fail inside the runner -> exit 3
        path = write_config(tmp_path, {"experiment": "gustafson-ring",
                                       "seed": 1, "weights": [1.0, -2.0, 1.0],
                                       "out": str(tmp_path / "x")})
        assert cli.main(["run", path]) == 3

    @pytest.mark.parametrize("lam", [0.9999999, 0.9999999999999999])
    def test_series_oracle_finishes_next_to_one(self, tmp_path, lam):
        # summed term by term, the series oracle made 27.6 / (1 - lam)
        # matrix-vector products: at 0.9999999 the run did not end in 30 s
        path = write_config(tmp_path, {"experiment": "gustafson-ring", "seed": 1,
                                       "lambdas": [lam], "out": str(tmp_path / "x")})
        start = time.perf_counter()
        assert cli.main(["run", path]) == 0
        assert time.perf_counter() - start < 5.0

    def test_metadata_records_seed_timestamp_and_versions(self, tmp_path):
        _, out = self.run_gustafson(tmp_path, "a", seed=31)
        meta = json.loads((out / "gustafson-ring_metadata.json").read_text())
        assert meta["seed"] == 31
        assert "timestamp" in meta
        assert meta["versions"] == {"nonrev": nonrev.__version__, "numpy": np.__version__,
                                    "scipy": scipy.__version__}

    def test_k_values_past_the_state_count_run_at_once(self, tmp_path):
        # the ladder ran every one of K's stages, about 4.8 us each on the
        # default 10-state ring: 10**12 of them would have taken about 56 days
        path = write_config(tmp_path, {"experiment": "two-cycle-extra-chance", "seed": 1,
                                       "K_values": [1, 10 ** 12], "out": str(tmp_path / "x")})
        proc = subprocess.run([sys.executable, "-m", "nonrev.cli", "run", path],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 2 and all(": PASS (" in line for line in lines), proc.stdout

    def test_top_seed_runs_the_full_refresh(self, tmp_path, capsys):
        # the full-refresh estimate reads seed + 1, wrapped into [0, 2**64):
        # at the top seed it read 2**64 and the admitted seed exited 3
        name = "zigzag-2d-refresh"
        path = write_config(tmp_path, {"experiment": name, "seed": 2 ** 64 - 1,
                                       **SMALL[name], "out": str(tmp_path / "x")})
        assert cli.main(["run", path]) in (0, 3)
        assert "numerical failure" not in capsys.readouterr().err
        rows = (tmp_path / "x" / f"{name}_results.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in rows[-2:]] == ["partial", "full"]


# -- scipy.special stays unloaded, even where the Gaussian CDF runs ----------

SRC = str(Path(nonrev.__file__).resolve().parent.parent)
# the Monte Carlo entries at run lengths that take well under a second
SMALL = {"ghmc-phi-compare": {"steps": 270, "replicates": 2},
         "zigzag-1d-gamma": {"horizon": 50.0, "replicates": 2},
         "zigzag-2d-refresh": {"horizon": 50.0, "replicates": 2}}

WITHOUT_PHI_EPS = """
import importlib, json, pkgutil, sys, tempfile
from pathlib import Path
import nonrev
for module in pkgutil.iter_modules(nonrev.__path__):
    importlib.import_module("nonrev." + module.name)
from nonrev import cli
codes = {"list": cli.main(["list"])}
with tempfile.TemporaryDirectory() as d:
    for name, overrides in json.loads(sys.argv[1]).items():
        path = Path(d) / "config.json"
        path.write_text(json.dumps({"experiment": name, "seed": 1, **overrides}))
        codes[name] = cli.main(["run", str(path), "--out", d])
print(json.dumps({"codes": codes, "loaded": "scipy.special" in sys.modules}))
"""

FIRST_CALL = """
import json, sys
import numpy as np
from nonrev import zigzag, zoo
before = "scipy.special" in sys.modules
bits = np.asarray(eval(sys.argv[1]), dtype=float).tobytes().hex()
print(json.dumps({"before": before, "after": "scipy.special" in sys.modules, "bits": bits}))
"""

RATIOS = "np.concatenate([[0.0], np.logspace(-3, 3, 41), [1e300, np.inf]])"
STATES = "np.linspace(-3, 3, 41)[:, None], np.where(np.arange(41) % 2, 1.0, -1.0)[:, None]"
# the first call of each path that needs the Gaussian CDF, at eps = 0.5
FIRST_CALLS = {
    "phi-eps": f"zoo.AcceptanceRule.phi_eps(0.5).phi({RATIOS})",
    "penalty-intensity": "zigzag.intensity(zigzag.IntensitySpec('penalty', eps=0.5), "
                         f"zigzag.zz_double_well(), 0, {STATES})",
}


def smoothed_metropolis_reference(r, se=math.sqrt(0.5)):
    """phi_eps(r), with ndtr imported from scipy.special here."""
    r = np.minimum(r, sys.float_info.max)
    out, pos = np.zeros_like(r), r > 0
    lr = np.log(r[pos])
    out[pos] = r[pos] * ndtr(-(se / 2 + lr / se)) + ndtr(-(se / 2 - lr / se))
    return out


def penalty_rate_reference(x, v, se=math.sqrt(0.5)):
    """-log phi_eps(e^-s) at the double well's slopes s, with log_ndtr
    imported from scipy.special here."""
    s = zigzag.zz_double_well().grad(x)[:, 0] * v[:, 0]
    return -np.logaddexp(-s + log_ndtr(-(se / 2 - s / se)), log_ndtr(-(se / 2 + s / se)))


# the package's path shares its loader with the fresh process, so the bits
# are held to the formulas above instead
REFERENCES = {"phi-eps": lambda: smoothed_metropolis_reference(eval(RATIOS)),
              "penalty-intensity": lambda: penalty_rate_reference(*eval(STATES))}


def fresh_python(script, arg, **env):
    """The last stdout line, as JSON, of script run in a new interpreter
    that imports this source tree, with env added to the environment; the
    test process already holds scipy.special and one BLAS thread."""
    proc = subprocess.run([sys.executable, "-c", script, arg], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC, **env})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestScipySpecialStaysUnloaded:
    def test_imports_list_and_runs_without_phi_eps(self):
        configs = {name: SMALL.get(name, {}) for name in CATALOG if name != "phi-eps-bounds"}
        out = fresh_python(WITHOUT_PHI_EPS, json.dumps(configs))
        assert out["codes"] == {"list": 0, **dict.fromkeys(configs, 0)}
        assert not out["loaded"]

    @pytest.mark.parametrize("call", list(FIRST_CALLS))
    def test_first_call_keeps_it_unloaded_and_gives_the_same_bits(self, call):
        out = fresh_python(FIRST_CALL, FIRST_CALLS[call])
        assert not out["before"] and not out["after"]
        assert out["bits"] == REFERENCES[call]().tobytes().hex()


# -- one BLAS thread, whatever thread count the environment asks for -------

BLAS_THREADS = """
import ctypes, json
import numpy as np
core = ctypes.CDLL(np._core._multiarray_umath.__file__)
before = core.scipy_openblas_get_num_threads64_()
import nonrev.cli
print(json.dumps([before, core.scipy_openblas_get_num_threads64_()]))
"""

RUN_ALL = """
import json, sys, tempfile
from pathlib import Path
from nonrev import cli
out = []
with tempfile.TemporaryDirectory() as d:
    for k, config in enumerate(json.loads(sys.argv[1])):
        path, where = Path(d) / "config.json", Path(d) / str(k)
        path.write_text(json.dumps({**config, "out": str(where)}))
        code = cli.main(["run", str(path)])
        out.append([code, (where / f"{config['experiment']}_results.csv").read_text()])
print(json.dumps(out))
"""


class TestAnyBlasThreadCount:
    def test_import_sets_one_thread(self):
        before, after = fresh_python(BLAS_THREADS, "", OPENBLAS_NUM_THREADS="2")
        assert after == 1, before

    @pytest.mark.parametrize("env", [
        {}, {"OMP_NUM_THREADS": "3"}, {"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "3"},
        {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "3"},
        {"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "3"},
        {"OPENBLAS_NUM_THREADS": "two", "GOTO_NUM_THREADS": "-1"}])
    def test_import_sets_one_thread_whatever_the_variables_ask(self, env, monkeypatch):
        # OpenBLAS reads these three at load, the first valid one winning,
        # and defaults to the CPUs; the import overrides them all
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        before, after = fresh_python(BLAS_THREADS, "", **env)
        assert after == 1, before

    def test_results_keep_their_bytes_at_any_thread_count(self):
        # at 2 threads ghmc-phi-compare's long dots were threaded, and the
        # 20-weight neal-ordering grid (400 states) solved threaded in one
        # process: the last digits of their rows depended on the count
        configs = [{"experiment": name, "seed": 1} for name in CATALOG]
        configs.append({"experiment": "neal-ordering", "seed": 1,
                        "weights": np.linspace(0.5, 1.5, 20).tolist()})
        runs = {threads: fresh_python(RUN_ALL, json.dumps(configs),
                                      OPENBLAS_NUM_THREADS=threads)
                for threads in ("1", "2")}
        assert [code for code, _csv in runs["1"]] == [0] * len(configs)
        assert [config for config, one, two in zip(configs, runs["1"], runs["2"])
                if one != two] == []


# -- property tests over the parameter table ---------------------------------

CONFUSED = st.one_of(st.text(max_size=3), st.none(), st.booleans(),
                     st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400,
                                      -10 ** 400, 2.5, -1, 0]),
                     st.lists(st.integers(-3, 3), max_size=2),
                     st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


def in_range(kind, p):
    """Numbers of the default's type that the table row admits."""
    if kind is int:
        return st.integers(min_value=math.ceil(p.lo), max_value=10 ** 6)
    return st.floats(min_value=max(p.lo, -1e300), max_value=min(p.hi, 1e300),
                     exclude_min=p.lo_open, exclude_max=p.hi < math.inf,
                     allow_nan=False, allow_infinity=False)


def valid_value(key, default):
    p = PARAMS[key]
    if not isinstance(default, tuple):
        return in_range(type(default), p)
    grids = st.lists(in_range(type(default[0]), p), min_size=p.min_len,
                     max_size=p.min_len + 3, unique=p.increasing)
    return grids.map(sorted) if p.increasing else grids


def any_value(key, default):
    kind = type(default[0] if isinstance(default, tuple) else default)
    entry = st.one_of(st.integers(-10, 10), st.floats(), CONFUSED)
    return st.one_of(valid_value(key, default), entry, st.lists(entry, max_size=4),
                     st.lists(st.one_of(in_range(kind, PARAMS[key]), entry),
                              max_size=4))


def load(payload):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "config.json"
        path.write_text(json.dumps(payload))
        return cli.load_config(path)


def assert_typed_and_in_range(params, defaults):
    assert list(params) == list(defaults)
    for key, default in defaults.items():
        p, value = PARAMS[key], params[key]
        grid = isinstance(default, tuple)
        kind = type(default[0] if grid else default)
        entries = value if grid else (value,)
        assert type(value) is (tuple if grid else kind)
        assert len(entries) >= p.min_len
        for x in entries:
            assert type(x) is kind and math.isfinite(x) and x < p.hi
            assert x > p.lo if p.lo_open else x >= p.lo
        if p.increasing:
            assert all(a < b for a, b in zip(entries, entries[1:]))
    assert cross_key_error(params) is None


@st.composite
def configs(draw, values):
    name = draw(st.sampled_from(CATALOG))
    defaults = EXPERIMENTS[name][1]
    keys = draw(st.lists(st.sampled_from(sorted(defaults)), unique=True, max_size=3))
    return name, {key: draw(values(key, defaults[key])) for key in keys}


def long_enough_chains(case):
    """case with steps raised to the least that its largest mc_lambda
    admits: valid values drawn one key at a time can break that rule."""
    name, overrides = case
    defaults = EXPERIMENTS[name][1]
    if "mc_lambdas" not in defaults:
        return case
    need = samplers.min_chain_length(max(overrides.get("mc_lambdas", defaults["mc_lambdas"])))
    if overrides.get("steps", defaults["steps"]) < need:
        overrides = {**overrides, "steps": need}
    return name, overrides


def short_enough_paths(case):
    """case without its horizon and rates where the size rule refuses
    them: valid values drawn one key at a time can break that rule."""
    name, overrides = case
    if size_error(name, {**EXPERIMENTS[name][1], **overrides}) is None:
        return case
    return name, {key: value for key, value in overrides.items()
                  if key not in ("horizon", "gamma", "refresh_rate")}


def small_enough_chains(case):
    """case without its steps, replicates and mc_lambdas where the chain
    size rule refuses them: valid values drawn one key at a time, and the
    steps long_enough_chains raises them to, can break that rule."""
    name, overrides = case
    if size_error(name, {**EXPERIMENTS[name][1], **overrides}) is None:
        return case
    return name, {key: value for key, value in overrides.items()
                  if key not in ("steps", "replicates", "mc_lambdas")}


class TestParamTableProperties:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(configs(any_value))
    def test_returns_typed_values_or_config_error(self, case):
        name, overrides = case
        try:
            cfg = load({"experiment": name, "seed": 1, **overrides})
        except cli.ConfigError:
            return
        assert_typed_and_in_range(cfg.params, EXPERIMENTS[name][1])

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(configs(valid_value).map(long_enough_chains).map(short_enough_paths)
           .map(small_enough_chains))
    def test_values_inside_the_table_load_unchanged(self, case):
        name, overrides = case
        params = load({"experiment": name, "seed": 1, **overrides}).params
        assert_typed_and_in_range(params, EXPERIMENTS[name][1])
        for key, value in overrides.items():
            assert params[key] == (tuple(value) if isinstance(value, list) else value)


# -- the exit contract over runs of admitted configs --------------------------

FINITE = st.floats(allow_nan=False, allow_infinity=False)  # what Param() admits
POSITIVE = st.floats(0.0, 1e300, exclude_min=True)
RATE = st.floats(0.0, 50.0, exclude_min=True)
# the table leaves the grid lengths, nleap, quad_nodes and grid_points
# unbounded, and bounds the rates only through the size rule: these draws
# keep every run to milliseconds
RUN_VALUES = {
    "step_dist": st.lists(FINITE, min_size=1, max_size=3),
    "lambdas": st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                        min_size=1, max_size=3),
    # min_chain_length(0.88) is 1,450 steps
    "mc_lambdas": st.lists(st.floats(0.0, 0.88, exclude_min=True), min_size=1, max_size=3),
    "K_values": st.lists(st.integers(1, 10 ** 12), min_size=2, max_size=4,
                         unique=True).map(sorted),
    "replicates": st.integers(2, 4), "horizon": st.floats(4.0, 60.0),
    "step": POSITIVE, "gamma": RATE, "refresh_rate": RATE,
    "eps_values": st.lists(POSITIVE, min_size=1, max_size=3),
    "nleap": st.integers(1, 4), "steps": st.integers(1, 1500),
    "quad_nodes": st.integers(1, 30), "grid_points": st.integers(1, 200),
}
# drawn whenever an entry has them, as steps are
SIZE_KEYS = ("replicates", "horizon", "K_values")


def run_value(name, key):
    if key == "weights":  # half of them positive, so most rings can be built
        return st.lists(st.one_of(st.floats(0.1, 10.0), FINITE), min_size=1,
                        max_size=5 if name == "neal-ordering" else 7)
    return RUN_VALUES[key]


@st.composite
def run_configs(draw):
    name = draw(st.sampled_from(CATALOG))
    defaults = EXPERIMENTS[name][1]
    keys = draw(st.lists(st.sampled_from(sorted(defaults)), unique=True, max_size=3))
    keys += [key for key in SIZE_KEYS if key in defaults and key not in keys]
    overrides = {key: draw(run_value(name, key)) for key in keys}
    if "steps" in defaults:  # at least the cross-key rule's least, at most 1,500
        need = samplers.min_chain_length(max(overrides.get("mc_lambdas",
                                                           defaults["mc_lambdas"])))
        overrides["steps"] = draw(st.integers(need, 1500))
    seed = draw(st.sampled_from([0, 1, 2 ** 64 - 2, 2 ** 64 - 1]))
    return {"experiment": name, "seed": seed, **overrides}


class TestRunProperties:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(run_configs())
    def test_admitted_configs_exit_by_the_contract(self, payload):
        # exit 0 with every check passed, or 3 with a failed check or a
        # named numerical failure
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "config.json"
            path.write_text(json.dumps({**payload, "out": d}))
            cli.load_config(path)  # admitted: a ConfigError fails the test
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["run", str(path)])
        lines, err = out.getvalue().splitlines(), err.getvalue()
        if code == 0:
            assert lines and all(": PASS (" in line for line in lines), lines
            return
        assert code == 3, (code, err)
        named = any(re.match(r"numerical failure: \S", line) for line in err.splitlines())
        assert named or any(": FAIL (" in line for line in lines), (lines, err)
