import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonrev import cli, samplers
from nonrev.experiments import EXPERIMENTS, PARAMS, cross_key_error

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

    def test_metadata_records_seed_and_threads(self, tmp_path):
        _, out = self.run_gustafson(tmp_path, "a", seed=31)
        meta = json.loads((out / "gustafson-ring_metadata.json").read_text())
        assert meta["seed"] == 31
        assert "timestamp" in meta


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
    @given(configs(valid_value).map(long_enough_chains))
    def test_values_inside_the_table_load_unchanged(self, case):
        name, overrides = case
        params = load({"experiment": name, "seed": 1, **overrides}).params
        assert_typed_and_in_range(params, EXPERIMENTS[name][1])
        for key, value in overrides.items():
            assert params[key] == (tuple(value) if isinstance(value, list) else value)
