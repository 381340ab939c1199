"""The benchmark's trace hooks name functions of the program by module
attribute; a deleted or renamed name would only surface when a traced
benchmark pass fails.  The hook table is read from its source file, which is
executed in a fresh namespace (nothing is imported from, or written to, the
benchmark directory)."""

import importlib
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def hook_table():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         module.__dict__)
    return ([(mod, fn) for mod, fn, _size, _hook in module.SPANS]
            + list(module.COUNTERS))


@pytest.mark.parametrize("mod, fn", hook_table())
def test_traced_name_exists(mod, fn):
    assert callable(getattr(importlib.import_module(f"nonrev.{mod}"), fn, None))
