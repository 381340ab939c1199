"""Command-line experiment runner.

`nonrev list` prints the experiment catalog; `nonrev run config.json` runs
one experiment and writes `<name>_results.csv` (deterministic for a fixed
seed), `<name>_summary.json` with per-check PASS/FAIL, and
`<name>_metadata.json` (the only file carrying a timestamp).

Exit codes: 0 all checks pass, 2 invalid configuration, 3 numerical failure
(an internal numeric error or a failed theorem check).
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .experiments import CSV_HEADER, EXPERIMENTS

CONTINUOUS_EXPERIMENTS = {"zigzag-1d-gamma", "zigzag-2d-refresh",
                          "phi-eps-bounds"}


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    params: dict
    out_dir: Path


def _validate_lambdas(name: str, params: dict) -> None:
    for key in ("lambdas", "mc_lambdas"):
        if key not in params:
            continue
        for lam in params[key]:
            lam = float(lam)
            if name in CONTINUOUS_EXPERIMENTS:
                if lam < 0:
                    raise ConfigError(f"{key} entries must be >= 0, got {lam}")
            elif not 0.0 <= lam < 1.0:
                raise ConfigError(f"{key} entries must lie in [0, 1), got {lam}")


def load_config(path, seed_override=None, out_override=None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    name = raw.pop("experiment", None)
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}")
    seed = raw.pop("seed", None)
    if seed_override is not None:
        seed = seed_override
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("seed is mandatory and must be an integer")
    if not 0 <= seed < 2 ** 64:
        raise ConfigError(f"seed must lie in [0, 2^64), got {seed}")
    out_dir = Path(raw.pop("out", "."))
    if out_override is not None:
        out_dir = Path(out_override)
    _desc, defaults, _runner = EXPERIMENTS[name]
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    params = {**defaults, **raw}
    for key, default in defaults.items():
        # every grid must give its check something to compare
        least = 2 if key == "K_values" else 1
        if isinstance(default, tuple) and not (
                isinstance(params[key], (list, tuple)) and len(params[key]) >= least):
            raise ConfigError(f"{key} must be a list of at least {least} "
                              f"entries, got {params[key]!r}")
    _validate_lambdas(name, params)
    replicates = params.get("replicates", 2)  # a standard error needs 2
    if not (isinstance(replicates, (int, float)) and replicates >= 2):
        raise ConfigError(f"replicates must be a number >= 2, got {replicates!r}")
    horizon = params.get("horizon", 4)  # batch means need floor(sqrt(T)) >= 2
    if not (isinstance(horizon, (int, float)) and horizon >= 4):
        raise ConfigError(f"horizon must be a number >= 4, got {horizon!r}")
    return ExperimentConfig(name, seed, params, out_dir)


def run(config: ExperimentConfig) -> int:
    _desc, _defaults, runner = EXPERIMENTS[config.experiment]
    try:
        rows, checks = runner(config.params, config.seed)
    except Exception as exc:  # noqa: BLE001 - mapped to the exit contract
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    config.out_dir.mkdir(parents=True, exist_ok=True)
    stem = config.out_dir / config.experiment
    with open(f"{stem}_results.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.to_csv() + "\n")
    summary = {"experiment": config.experiment,
               "checks": [{"name": c["name"], "pass": bool(c["pass"]),
                           "max_violation": c["max_violation"]}
                          for c in checks]}
    with open(f"{stem}_summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    meta = {"experiment": config.experiment, "seed": config.seed,
            "params": {k: list(v) if isinstance(v, tuple) else v
                       for k, v in config.params.items()},
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()}
    with open(f"{stem}_metadata.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for c in checks:
        status = "PASS" if c["pass"] else "FAIL"
        print(f"{config.experiment} :: {c['name']}: {status} "
              f"(max violation {c['max_violation']:.3e})")
    return 0 if all(c["pass"] for c in checks) else 3


def list_experiments() -> str:
    lines = [f"{name}: {desc}" for name, (desc, _d, _r) in EXPERIMENTS.items()]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nonrev",
                                     description="variance-ordering experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    sub.add_parser("list", help="print the experiment catalog")
    args = parser.parse_args(argv)
    if args.command == "list":
        print(list_experiments())
        return 0
    try:
        config = load_config(args.config, args.seed, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
