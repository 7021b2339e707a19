"""Every demo runs to the end: exit 0 and nothing on stderr."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py")) + [ROOT / "demos" / "08_cli.sh"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # the shell demo calls python3: make it the interpreter running the tests
    env["PATH"] = os.pathsep.join(filter(None, [os.path.dirname(sys.executable), env.get("PATH")]))
    command = ["sh", str(demo)] if demo.suffix == ".sh" else [sys.executable, str(demo)]
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
