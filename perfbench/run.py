"""Benchmark of the nonrev laboratory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (ghmc-compare, zigzag-exact, zigzag-thinned or
finite-exact; BENCHMARK.json says why each exists) as a closed loop: one
caller makes sequential calls into the program, and the BLAS runs one
thread.  Every input is generated from ``--seed``, and
every pass's outputs are checked.  Human-readable lines come first; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

On a shared host the speed of the whole process drifts by up to 2x over
seconds to minutes.  Times are therefore scaled to a fixed host speed:
t * REF_S / ref, where ref is the time of a fixed reference kernel
(worker.reference_seconds) measured just before and after the interval
timed.  The raw times are printed alongside.

``--trace 0`` reports the end-to-end metrics:
  norm_wall_s   median over passes of the pass wall time, tracing off,
                scaled to the reference speed
  setup_s       median over SETUP_SAMPLES fresh processes of the time from
                process start to the first timed call, scaled likewise
  peak_rss_mib  peak resident memory of the measured process
  ops_ok_ratio  ops that passed / ops attempted (1 - ops_failed_ratio)
  work_per_s    the workload's work per pass / norm_wall_s, where the work
                is computed from the inputs: replicate-transitions on
                ghmc-compare, simulated time on the zigzag-* workloads,
                resolvent systems on finite-exact
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics listed in BENCHMARK.json (medians over traced passes),
from spans recorded around calls into cli, finite, zoo, samplers and
zigzag.  Spans and a record of every run go to perfbench/_out/.

A pass that fails validation is never reported as a timing.  The process
exits 1 without a result line if the program cannot be imported from this
checkout's src/ or a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
WORKER = HERE / "worker.py"
WORKLOADS = ("ghmc-compare", "zigzag-exact", "zigzag-thinned", "finite-exact")
SETUP_SAMPLES = 5
BUDGET_S = 170.0
# One BLAS thread: on a shared host the two vCPUs slow down independently,
# and a BLAS call waits for its slowest thread, which the reference kernel
# on the calling thread cannot see.
WORKER_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# The reference kernel's time at full speed on a 2-vCPU Xeon KVM guest, so
# scaled times read as seconds on that host.
REF_S = 0.08
THROUGHPUT_NAME = {"ghmc-compare": "ghmc_transitions_per_s",
                   "zigzag-exact": "zz_sim_time_per_s",
                   "zigzag-thinned": "zz_sim_time_per_s",
                   "finite-exact": "finite_resolvents_per_s"}


class WorkerFailed(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and time its set-up from the spawn."""
    t0 = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              env=WORKER_ENV, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    data = json.loads(lines[-1])
    ref_start, ref_ready = data["setup_ref_s"]
    data["setup_raw_s"] = data["ready"] - t0 - ref_start
    data["setup_s"] = data["setup_raw_s"] * REF_S / ((ref_start + ref_ready) / 2)
    return data


def _norm(p: dict) -> float:
    return p["wall_s"] * REF_S / p["ref_s"]


def end_to_end(workload: str, setups: list[dict], data: dict, ok_passes: list,
               attempted: int, failed: int) -> tuple[dict, list[str]]:
    values = {"setup_s": median([s["setup_s"] for s in setups]),
              "peak_rss_mib": data["peak_rss_mib"],
              "ops_ok_ratio": (attempted - failed) / attempted}
    lines = [f"ops_failed_ratio = {failed / attempted!r} ({failed} / {attempted} ops)",
             f"raw set-up times: {[s['setup_raw_s'] for s in setups]!r} s"]
    if ok_passes:
        walls = [p["wall_s"] for p in ok_passes]
        wall = median(walls)
        values["norm_wall_s"] = median([_norm(p) for p in ok_passes])
        values["work_per_s"] = data["work"] / values["norm_wall_s"]
        lines += [f"wall_s = {wall!r} s (raw median of {len(walls)} passes; "
                  f"min {min(walls)!r}, max {max(walls)!r})",
                  f"{THROUGHPUT_NAME[workload]} = {data['work'] / wall!r} "
                  f"{data['work_unit']}/s raw ({data['work']!r} per pass)",
                  f"reference kernel: median {median([p['ref_s'] for p in ok_passes])!r} s"]
    return values, lines


def per_layer(ok_passes: list) -> tuple[dict, list[str]]:
    traced = [p for p in ok_passes if p["traced"]]
    plain = [p for p in ok_passes if not p["traced"]]
    if not traced or not plain:
        return {}, []
    values = {name: median([p["layers"][name] for p in traced])
              for name in traced[0]["layers"]}
    values["trace.overhead_s"] = (median([_norm(p) for p in traced])
                                  - median([_norm(p) for p in plain]))
    return values, [f"traced passes {len(traced)}, untraced passes {len(plain)}; "
                    "trace.overhead_s is scaled like norm_wall_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "nonrev" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    deadline = time.monotonic() + BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = [] if args.trace else [spawn([*common, "--setup-only"], deadline)
                                        for _ in range(SETUP_SAMPLES - 1)]
        data = spawn(common, deadline)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(data)

    passes = data["passes"]
    ok_passes = [q for q in passes if q["failed"] == 0]
    nesting = sum(q.get("nesting_violations", 0) for q in passes)
    attempted = sum(q["attempted"] for q in passes)
    failed = min(attempted, sum(q["failed"] for q in passes) + (not data["repeats"]))
    values, lines = (per_layer(ok_passes) if args.trace else
                     end_to_end(args.workload, setups, data, ok_passes, attempted, failed))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    # a metric is missing only when no pass passed validation
    metrics = ({m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
               if all(m["name"] in values for m in listed) else {})

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} setup samples={len(setups)}")
    print("env " + json.dumps(data["env"], sort_keys=True))
    for q in passes:
        for msg in q["failures"]:
            print(f"FAILED: {msg}")
    if not data["repeats"]:
        print("FAILED: outputs differ from an earlier run of these sources and seed")
    if nesting:
        print(f"FAILED: {nesting} span nesting violations")
    for line in lines:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    result = {"correct": failed == 0 and nesting == 0 and bool(metrics),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "trace": args.trace, "env": data["env"],
              "setup_raw_s": [s["setup_raw_s"] for s in setups],
              "passes": [{k: v for k, v in q.items() if k != "layers"} for q in passes],
              "result": result}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
