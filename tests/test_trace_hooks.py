"""The traced benchmark run rebinds package names listed in
``benchmarks/spans.py``; every one of them must stay bound, or ``--trace 1``
breaks without any package test failing."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _constant(name):
    # read the tuples from the source: importing spans.py is not needed
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {SPANS}")


def test_traced_names_resolve_on_the_package():
    hooks = [(mod, attr) for mod, attr, _span in _constant("HOOKS")]
    hooks.append(tuple(_constant("RATE_HOOK")))
    assert len(hooks) >= 2
    for mod, attr in hooks:
        assert callable(getattr(importlib.import_module(mod), attr, None)), (mod, attr)
