"""The CLI loads no module beyond the standard library, allab itself and
what its one declared dependency, numpy, loads: imports are most of its
start-up time."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _top_level_modules(statement):
    """Top-level names in sys.modules of a fresh interpreter after statement."""
    path = os.pathsep.join([str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    code = f"{statement}; import sys; print(*{{m.split('.')[0] for m in sys.modules}})"
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_cli_imports_only_its_declared_dependencies():
    extra = (_top_level_modules("import allab.cli")
             - _top_level_modules("import numpy")
             - set(sys.stdlib_module_names))
    assert extra == {"allab"}
