"""One benchmark process: set up a workload, then time passes of it.

run.py starts this once per set-up sample (``--setup-only``) and once for
the measured run:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Set-up is everything before the first timed pass: the interpreter,
``import nonrev``, input generation, config validation and warm-up,
including the first dense BLAS solve.  The measured run then repeats the
timed pass until ``--seconds`` have elapsed; with ``--trace 1`` it
alternates untraced and traced passes.  The last stdout line is one JSON
object with the raw measurements; run.py turns them into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "_out"


def reference_seconds() -> float:
    """Time of a fixed mix of interpreter steps and small numpy calls, the
    mix the workloads spend their time on.  Measured around every pass and
    around set-up, it tracks how fast the host runs this process at that
    moment: on a shared host that speed drifts by up to 2x over seconds to
    minutes."""
    x = np.arange(32.0)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(100_000):
        acc += float(np.dot(x, x)) + i
    return time.perf_counter() - t0


def _import_program() -> dict:
    """Import the package from this checkout's sources, never another copy."""
    sys.path.insert(0, str(SRC))
    import nonrev
    if Path(nonrev.__file__).resolve().parent != (SRC / "nonrev").resolve():
        raise ImportError(f"nonrev imported from {nonrev.__file__}, not from {SRC}")
    from nonrev import cli, finite, samplers, zigzag, zoo
    return {"cli": cli, "finite": finite, "samplers": samplers,
            "zigzag": zigzag, "zoo": zoo}


def _warm_blas() -> None:
    """The first dense solve and eigendecomposition pay the BLAS's one-time
    start-up (with several BLAS threads, a stall of up to a second); that
    belongs to set-up, not to the first pass."""
    n = 600
    a = np.random.default_rng(0).random((n, n)) + n * np.eye(n)
    np.linalg.solve(a, np.ones(n))
    np.linalg.eigh(a + a.T)


def _blas_threads() -> int | None:
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), "..",
                                       "numpy.libs", "*blas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest() -> str:
    """Identity of the program and benchmark sources being measured."""
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("nonrev/*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "seed": seed, "commit": commit,
            "source_sha256": source_digest()}


def _repeats(workload: str, seed: int, digest: str) -> bool:
    """Same sources, seed and BLAS thread count must give the same outputs
    in every run this checkout makes; the record is kept in the checkout."""
    path = OUT / "digests.json"
    seen = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    key = f"{source_digest()}:{_blas_threads()}:{workload}:{seed}"
    ok = seen.setdefault(key, digest) == digest
    path.write_text(json.dumps(seen, indent=1, sort_keys=True), encoding="utf-8")
    return ok


def measure(wl, modules: dict, seconds: float, trace: bool) -> dict:
    import tracing
    deadline = time.monotonic() + seconds
    passes, spans, first_digest = [], [], None
    ref_before = reference_seconds()
    while not passes or time.monotonic() < deadline or (trace and len(passes) < 2):
        traced = trace and len(passes) % 2 == 1
        tracer = tracing.Tracer(modules) if traced else None
        with tracer.installed() if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            ops = wl.run()
            wall = time.perf_counter() - t0
        ref_after = reference_seconds()
        failures, digest = wl.check(ops)
        first_digest = first_digest or digest
        if digest != first_digest:
            failures.append("outputs differ from the first pass with this seed")
        entry = {"wall_s": wall, "ref_s": (ref_before + ref_after) / 2, "traced": traced,
                 "attempted": len(ops), "failed": min(len(ops), len(failures)),
                 "failures": failures}
        if traced:
            entry["layers"] = tracer.layer_metrics()
            entry["nesting_violations"] = tracer.nesting_violations()
            spans.append(tracer.span_arrays(len(passes)))
            names = tracer.names
        passes.append(entry)
        ref_before = ref_after
    if spans:
        np.savez(OUT / f"spans-{wl.name}-seed{wl.seed}.npz", names=np.array(names),
                 **{k: np.concatenate([s[k] for s in spans]) for k in spans[0]})
    return {"passes": passes, "repeats": _repeats(wl.name, wl.seed, first_digest),
            "work": wl.work, "work_unit": wl.work_unit,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ref_start = reference_seconds()
    modules = _import_program()
    import workloads

    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        _warm_blas()
        wl.warm_up()
        ready = time.monotonic()
        # ref_start is not set-up work: run.py subtracts it
        setup = {"ready": ready, "setup_ref_s": [ref_start, reference_seconds()]}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        result = measure(wl, modules, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    result.update(setup, env=environment(args.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
