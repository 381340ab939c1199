"""The benchmark's trace hooks name functions of the program by module
attribute and read some arguments by positional slot; a deleted or renamed
name would only surface when a traced benchmark pass fails, and a shifted
slot would only corrupt its per-layer counts.  The hook table is read from
its source file, which is executed in a fresh namespace (nothing is imported
from, or written to, the benchmark directory).  The workloads' calls into
the program are read from their source as a syntax tree, so a deleted or
renamed parameter fails here rather than as a failed benchmark run."""

import ast
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
WORKLOADS = TRACING.with_name("workloads.py")


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


def workload_calls():
    """(line, dotted name, positional count, keywords) of every call in the
    workloads' source whose callee is imported from nonrev.  A call
    _attempt(name, fn, *args, **kwargs) counts as the call fn(*args, **kwargs)."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    names = {}  # local name -> dotted name under nonrev
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("nonrev"):
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def dotted(expr):
        if isinstance(expr, ast.Name):
            return names.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = dotted(expr.value)
            return base and f"{base}.{expr.attr}"
        return None

    calls = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func, args = call.func, call.args
        if isinstance(func, ast.Name) and func.id == "_attempt":
            func, args = args[1], args[2:]
        name = dotted(func)
        if name is not None:
            assert not any(isinstance(a, ast.Starred) for a in args), name
            assert all(k.arg is not None for k in call.keywords), name
            calls.append((call.lineno, name, len(args), tuple(k.arg for k in call.keywords)))
    return calls


def resolve(dotted_name):
    module, _, attr = dotted_name.partition(".")
    obj = importlib.import_module(module)
    for part in attr.split("."):
        if isinstance(obj, types.ModuleType) and not hasattr(obj, part):
            obj = importlib.import_module(f"{obj.__name__}.{part}")
        else:
            obj = getattr(obj, part)
    return obj


WORKLOAD_CALLS = workload_calls()


def test_workload_calls_are_found():
    # the library calls each workload times, so an empty parse cannot pass
    found = {name for _line, name, _npos, _kws in WORKLOAD_CALLS}
    assert {"nonrev.cli.main", "nonrev.cli.load_config",
            "nonrev.zigzag.estimate_var_continuous", "nonrev.zigzag.IntensitySpec",
            "nonrev.finite.verify_ordering_theorem"} <= found


@pytest.mark.parametrize("line, name, npos, keywords", WORKLOAD_CALLS,
                         ids=[f"{name}@{line}" for line, name, _n, _k in WORKLOAD_CALLS])
def test_workload_call_binds(line, name, npos, keywords):
    signature = inspect.signature(resolve(name))
    signature.bind(*[None] * npos, **dict.fromkeys(keywords))
