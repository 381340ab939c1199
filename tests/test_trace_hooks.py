"""The benchmark's trace hooks name functions of the program by module
attribute and read some arguments by positional slot; a deleted or renamed
name would only surface when a traced benchmark pass fails, and a shifted
slot would only corrupt its per-layer counts.  The hook table is read from
its source file, which is executed in a fresh namespace (nothing is imported
from, or written to, the benchmark directory)."""

import importlib
import inspect
import math
import types
from pathlib import Path

import pytest

from nonrev import samplers
from nonrev.zigzag import zz_gaussian
from nonrev.zoo import AcceptanceRule

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracing_module():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         module.__dict__)
    return module


def hook_table():
    module = tracing_module()
    return ([(mod, fn) for mod, fn, _size, _hook in module.SPANS]
            + list(module.COUNTERS))


@pytest.mark.parametrize("mod, fn", hook_table())
def test_traced_name_exists(mod, fn):
    assert callable(getattr(importlib.import_module(f"nonrev.{mod}"), fn, None))


@pytest.mark.parametrize("mod, fn, slots", [
    ("samplers", "run_ghmc_chains", {5: "n_steps", 6: "replicates"}),
    ("finite", "var_lambda", {1: "P"}),
    ("finite", "var_lambda_cycle", {1: "P1"}),
    ("samplers", "estimate_var_lambda", {0: "chains"}),
])
def test_slots_the_hooks_read(mod, fn, slots):
    fn = getattr(importlib.import_module(f"nonrev.{mod}"), fn)
    params = list(inspect.signature(fn).parameters)
    assert {i: params[i] for i in slots} == slots


def test_ghmc_transitions_see_the_burn_in(monkeypatch):
    # the hook reads burn_in from the keywords, or from positional slot 10
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        raise StopIteration

    monkeypatch.setattr(samplers, "run_ghmc_chains", record)
    with pytest.raises(StopIteration):
        samplers.compare_acceptance_rules(
            zz_gaussian([1.0]), omega=math.pi / 4, step=0.9, nleap=2,
            rules=[AcceptanceRule.metropolis(), AcceptanceRule.barker()],
            lambdas=[0.5], observables={"x": lambda x: x[:, 0]},
            n_steps=3000, replicates=4, seed=0)
    (args, kwargs), = calls
    assert kwargs["burn_in"] == 300
    assert tracing_module()._ghmc_transitions(args, kwargs) == 4 * (3000 + 300)
