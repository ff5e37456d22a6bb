"""The import graph follows the command: `import ikcs.cli` loads only the
graph, percolation and exact modules, and each command loads only the
modules it runs.  Every check runs in a fresh interpreter, since the test
process itself has imported the whole package."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
CORE = ["ikcs", "ikcs.cli", "ikcs.exact", "ikcs.graph", "ikcs.percolation"]
LOADED = """\
import json, sys
import ikcs.cli
if sys.argv[1:]:
    ikcs.cli.main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m == "numpy" or m.startswith("ikcs"))),
      file=sys.stderr)
"""


def _python(code, *argv, cwd=None):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _loaded(*argv, cwd=None):
    return json.loads(_python(LOADED, *argv, cwd=cwd).stderr.splitlines()[-1])


def test_cli_import_loads_no_solver_and_no_numpy():
    assert _loaded() == CORE


@pytest.mark.parametrize("argv, extra", [
    (["simulate", "--k", "2", "--seed", "0,2", "p3.edges"], []),
    (["min-set", "--k", "2", "--engine", "brute", "p3.edges"], []),
    (["reduce-sat", "f.cnf"], ["ikcs.satred"]),
    (["check-sat-equiv", "f.cnf"], ["ikcs.satred"]),
    (["torus-construct", "6", "6", "--verify"], ["ikcs.torus"]),
    (["min-set", "--k", "2", "--engine", "deg3", "p3.edges"],
     ["ikcs.deg3", "ikcs.gf2", "ikcs.polymatroid", "numpy"]),
], ids=["simulate", "min-set-brute", "reduce-sat", "check-sat-equiv", "torus-construct",
        "min-set-deg3"])
def test_each_command_loads_only_what_it_runs(tmp_path, argv, extra):
    (tmp_path / "p3.edges").write_text("p 3 2\n0 1\n1 2\n")
    (tmp_path / "f.cnf").write_text("p cnf 2 2\n1 2 -1 0\n-2 -2 1 0\n")
    assert _loaded(*argv, cwd=tmp_path) == sorted(CORE + extra)


def test_every_exported_name_resolves():
    out = _python(
        "import ikcs, ikcs.gf2, ikcs.polymatroid\n"
        "print(all(getattr(ikcs, name) is not None for name in ikcs.__all__),\n"
        "      ikcs.ConsistencyError is ikcs.gf2.ConsistencyError"
        " is ikcs.polymatroid.ConsistencyError)\n"
    )
    assert out.stdout.split() == ["True", "True"]
