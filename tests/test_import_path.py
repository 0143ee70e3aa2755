"""stokin never loads scipy: ``import stokin``, scenario loading and every
det, em, pca and mc run load numpy only, and no module of the package imports
scipy.  ``numpy.random`` waits for the first seeded run.  Each run check
starts a fresh interpreter, because the test process itself has both
loaded."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import stokin

SRC = str(Path(stokin.__file__).resolve().parents[1])

# prints, after each step, whether the module has been imported so far
SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
seen = {{}}

def mark(step):
    seen[step] = {module!r} in sys.modules

import stokin
from stokin.cli import main
mark("import")
scn = stokin.load_scenario("table1")
scn.build_initial(scn.build_parameters())
mark("scenario")
for step, args in {runs!r}:
    code = main(args + ["--scenario", "table1", "--seed", "3", "--out", {out!r}])
    if code != 0:
        raise SystemExit(f"{{step}} exited {{code}}")
    mark(step)
print(json.dumps(seen))
"""


def loaded_after(module, runs, out):
    script = SCRIPT.format(src=SRC, module=module, runs=runs, out=str(out))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_deterministic_solve_leaves_scipy_unloaded(tmp_path):
    runs = [("det", ["solve", "--method", "det"])]
    assert loaded_after("scipy", runs, tmp_path) == {
        "import": False,
        "scenario": False,
        "det": False,
    }
    assert (tmp_path / "table1_det_trajectory.csv").is_file()


def test_em_mc_and_pca_runs_never_load_scipy(tmp_path):
    runs = [
        ("em", ["ensemble", "--method", "em", "--samples", "20"]),
        ("mc", ["ensemble", "--method", "mc", "--mode", "exact", "--samples", "4"]),
        ("pca", ["ensemble", "--method", "pca", "--samples", "20"]),
    ]
    assert loaded_after("scipy", runs, tmp_path) == {
        "import": False,
        "scenario": False,
        "em": False,
        "mc": False,
        "pca": False,
    }
    assert (tmp_path / "table1_pca_summary.json").is_file()


def test_no_module_imports_scipy():
    # walks the package source, so a scipy import that no run reaches, or one
    # behind a function call, is refused too
    offenders = []
    for path in sorted(Path(SRC, "stokin").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name == "scipy" or name.startswith("scipy.") for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_numpy_random_waits_for_the_first_seeded_run(tmp_path):
    runs = [("em", ["ensemble", "--method", "em", "--samples", "20"])]
    assert loaded_after("numpy.random", runs, tmp_path) == {
        "import": False,
        "scenario": False,
        "em": True,
    }
