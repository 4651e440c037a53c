import os
import subprocess
import sys
from pathlib import Path

import nuanneal

SUBMODULES = ("annealer", "aqae", "basis", "clock", "config", "evolution", "hamiltonians", "witnesses")


def test_bare_import_exposes_version_and_every_submodule():
    # A fresh interpreter: under pytest other test modules have already
    # imported the submodules, which would hide one the package leaves out.
    probe = f"import nuanneal; print(nuanneal.__version__); print(all(hasattr(nuanneal, m) for m in {SUBMODULES!r}))"
    run = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(nuanneal.__file__).parents[1])},
        timeout=60,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, f"{nuanneal.__version__}\nTrue\n", "")


def test_bare_import_leaves_yaml_unloaded():
    # Only reading a config file needs PyYAML; loading it costs every process
    # start about 13 ms, so the config module imports it in its loader.
    probe = "import sys, nuanneal; print('yaml' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(nuanneal.__file__).parents[1])},
        timeout=60,
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "False\n", "")
