"""The traced benchmark run rebinds package names listed in
``benchmarks/spans.py`` and reads counters from what they return; every name
must stay bound and every field a counter reads must exist, or ``--trace 1``
breaks without any package test failing."""

import ast
import collections
import importlib
from pathlib import Path

from stokin.cli import main

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _module():
    return ast.parse(SPANS.read_text(encoding="utf-8"))


def _assigned(name):
    for node in _module().body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"{name} not found in {SPANS}")


def _constant(name):
    # read the tuples from the source: importing spans.py is not needed
    return ast.literal_eval(_assigned(name))


def _counter_reads() -> dict:
    """Span name -> the attributes its counter reads from the result."""
    functions = {n.name: n for n in _module().body if isinstance(n, ast.FunctionDef)}
    counters = _assigned("_COUNTERS")
    reads = {}
    for key, value in zip(counters.keys, counters.values):
        fn = functions[value.id]
        result = fn.args.args[-1].arg
        reads[ast.literal_eval(key)] = {
            node.attr
            for node in ast.walk(fn)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == result
        }
    return reads


def test_traced_names_resolve_on_the_package():
    hooks = [(mod, attr) for mod, attr, _span in _constant("HOOKS")]
    hooks.append(tuple(_constant("RATE_HOOK")))
    assert len(hooks) >= 2
    for mod, attr in hooks:
        assert callable(getattr(importlib.import_module(mod), attr, None)), (mod, attr)


def test_counted_result_fields_exist(monkeypatch, tmp_path):
    # capture what each counted hook returns in small ensembles of every
    # engine and mode, then check every field its counter reads
    reads = {name: attrs for name, attrs in _counter_reads().items() if attrs}
    assert reads
    results = collections.defaultdict(list)
    for mod, attr, name in _constant("HOOKS"):
        if name in reads:
            module = importlib.import_module(mod)

            def capture(*args, _fn=getattr(module, attr), _name=name, **kwargs):
                result = _fn(*args, **kwargs)
                results[_name].append(result)
                return result

            monkeypatch.setattr(module, attr, capture)
    for method in ("em", "pca", "mc", "mc --mode exact"):
        args = ["ensemble", "--scenario", "table1", "--method", *method.split(), "--samples", "3"]
        assert main(args + ["--out", str(tmp_path)]) == 0
    for name, attrs in reads.items():
        assert results[name], f"{name} was not called"
        for result in results[name]:
            for attr in sorted(attrs):
                assert hasattr(result, attr), (name, type(result).__name__, attr)
