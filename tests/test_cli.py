import json
import os

import pytest

from nonrev import cli
from nonrev.experiments import EXPERIMENTS

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
        path = write_config(tmp_path, {"experiment": "gustafson-ring",
                                       "seed": 1, "extra_knob": 3})
        assert cli.main(["run", path]) == 2

    def test_lambda_outside_unit_interval(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "gustafson-ring",
                                       "seed": 1, "lambdas": [0.5, 1.0]})
        assert cli.main(["run", path]) == 2

    def test_continuous_experiment_allows_lambda_above_one(self, tmp_path):
        cfg = cli.load_config(write_config(
            tmp_path, {"experiment": "phi-eps-bounds", "seed": 1}))
        assert cfg.experiment == "phi-eps-bounds"

    @pytest.mark.parametrize("name", ["zigzag-1d-gamma", "zigzag-2d-refresh"])
    @pytest.mark.parametrize("horizon", [3.9, 0, -1, "long"])
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
        for seed in (0, 2 ** 64 - 1):
            path = write_config(tmp_path, {"experiment": "gustafson-ring",
                                           "seed": seed})
            assert cli.load_config(path).seed == seed

    @pytest.mark.parametrize("name", REPLICATED)
    @pytest.mark.parametrize("replicates", [1, 0, 1.5, "many"])
    def test_replicates_below_two(self, tmp_path, name, replicates):
        path = write_config(tmp_path, {"experiment": name, "seed": 1,
                                       "replicates": replicates,
                                       "out": str(tmp_path / "x")})
        assert cli.main(["run", path]) == 2

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["run", str(path)]) == 2

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

    def test_results_csv_deterministic(self, tmp_path):
        _, out_a = self.run_gustafson(tmp_path, "a")
        _, out_b = self.run_gustafson(tmp_path, "b")
        a = (out_a / "gustafson-ring_results.csv").read_bytes()
        b = (out_b / "gustafson-ring_results.csv").read_bytes()
        assert a == b
        header = a.decode().splitlines()[0]
        assert header == "experiment,case_id,lambda,value,se,oracle,pass"

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
