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

from .experiments import CSV_HEADER, EXPERIMENTS, PARAMS, cross_key_error


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    params: dict
    out_dir: Path


def _value(key: str, value, default):
    """value as its default's type, each number in PARAMS[key]'s range: a float
    takes a finite int or float, an int an int, a tuple a list of such."""
    p, grid = PARAMS[key], isinstance(default, tuple)
    kind = type(default[0] if grid else default)
    if grid and not (isinstance(value, (list, tuple)) and len(value) >= p.min_len):
        raise ConfigError(f"{key} must be a list of at least {p.min_len} "
                          f"entries, got {value!r}")
    for x in value if grid else [value]:
        # compare x as given: float() of an int beyond the float range overflows
        if not (type(x) in (int, kind) and abs(x) <= sys.float_info.max
                and (p.lo < x if p.lo_open else p.lo <= x) and x < p.hi):
            raise ConfigError(f"{'each entry of ' if grid else ''}{key} must be a "
                              f"finite {kind.__name__}{p}, got {x!r}")
    if p.increasing and any(a >= b for a, b in zip(value, value[1:])):
        raise ConfigError(f"{key} must be strictly increasing, got {value!r}")
    return tuple(map(kind, value)) if grid else kind(value)


def load_config(path, seed_override=None, out_override=None) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    # ValueError: malformed JSON, bytes that are not UTF-8, too many digits
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    name = raw.pop("experiment", None)
    if not isinstance(name, str) or name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}")
    seed = raw.pop("seed", None)
    if seed_override is not None:
        seed = seed_override
    if type(seed) is not int or not 0 <= seed < 2 ** 64:
        raise ConfigError(f"seed is mandatory and must be an integer in "
                          f"[0, 2^64), got {seed!r}")
    out_dir = raw.pop("out", ".")
    if not isinstance(out_dir, str):
        raise ConfigError(f"out must be a path string, got {out_dir!r}")
    out_dir = Path(out_dir if out_override is None else out_override)
    _desc, defaults, _runner = EXPERIMENTS[name]
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    params = {key: _value(key, raw.get(key, default), default)
              for key, default in defaults.items()}
    if error := cross_key_error(params):
        raise ConfigError(error)
    return ExperimentConfig(name, seed, params, out_dir)


def run(config: ExperimentConfig) -> int:
    """Exit code 0 or 3 of one run.  An out path that cannot be written
    raises ConfigError; the directory is made first, so a bad path fails
    before the run rather than after it."""
    _desc, _defaults, runner = EXPERIMENTS[config.experiment]
    try:
        config.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the out directory: {exc}") from exc
    try:
        rows, checks = runner(config.params, config.seed)
    except Exception as exc:  # noqa: BLE001 - mapped to the exit contract
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    stem = config.out_dir / config.experiment
    try:
        with open(f"{stem}_results.csv", "w", encoding="utf-8", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in rows:
                fh.write(row.to_csv() + "\n")
        summary = {"experiment": config.experiment, "checks": checks}
        with open(f"{stem}_summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        meta = {"experiment": config.experiment, "seed": config.seed,
                "params": config.params,
                "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat()}
        with open(f"{stem}_metadata.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write to the out directory: {exc}") from exc
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
        return run(load_config(args.config, args.seed, args.out))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
