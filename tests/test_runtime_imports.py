"""The simulator runs on the Python standard library alone.

Every package the runtime imports must be ``repro`` itself or part of the
standard library; third-party packages (networkx, pytest, hypothesis) are
test-side only.  The check runs in a fresh interpreter, so modules the test
session already loaded cannot hide an import.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_PROBE = ("import sys\n"
          "before = set(sys.modules)\n"
          "import repro.experiments, repro.cli\n"
          "print(*sorted(set(sys.modules) - before))\n")


def test_runtime_imports_only_the_standard_library():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                           capture_output=True, text=True, check=True)
    loaded = {name.partition(".")[0] for name in probe.stdout.split()}
    assert "repro" in loaded
    foreign = sorted(loaded - {"repro"} - sys.stdlib_module_names)
    assert foreign == [], f"non-standard-library imports: {foreign}"
