"""The package's public names."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import poincarerep
from poincarerep.bundle import load_bundle

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
    # The command line and the whole package, each in a fresh interpreter.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for module in ("poincarerep.cli", "poincarerep"):
        code = f"import {module}, sys; assert 'numpy' not in sys.modules"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, (module, proc.stderr)


_BLOCKED_NUMPY_CLI = """
import sys
sys.modules["numpy"] = None  # any numpy import now raises ImportError
from poincarerep.cli import main
d = sys.argv[1]
calls = [
    ["gen", "--spins", "2,1,1,2", "--block", "keep12", "--out", f"{d}/b.json"],
    ["verify", "--in", f"{d}/b.json", "--out", f"{d}/report.json"],
    ["equiv", "--spins", "2,1,1,2", "--out", f"{d}/equiv.json"],
    ["export", "--in", f"{d}/b.json", "--format", "plain", "--out", f"{d}/b.txt"],
    ["export", "--in", f"{d}/b.json", "--format", "float-json", "--out", f"{d}/b.float.json"],
]
print([main(argv) for argv in calls])
"""


def test_cli_runs_with_numpy_blocked(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCKED_NUMPY_CLI, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0]", proc.stderr
    exported = json.loads((tmp_path / "b.float.json").read_text())["matrices"]
    bundle = load_bundle(str(tmp_path / "b.json"))
    assert exported == {
        key: [[v.real, v.imag] for v in mat.to_numpy().ravel().tolist()]
        for key, mat in bundle.matrices().items()
    }
