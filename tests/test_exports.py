"""The package's public names."""

import os
import re
import subprocess
import sys
from pathlib import Path

import poincarerep

ROOT = Path(__file__).resolve().parent.parent


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from poincarerep import *", namespace)
    assert set(poincarerep.__all__) <= set(namespace)


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for code in blocks:
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr


def test_cli_import_leaves_numpy_unloaded():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import poincarerep.cli, sys; assert 'numpy' not in sys.modules"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
