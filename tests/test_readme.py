"""The README's minimal session, run as written in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_minimal_session_prints_true():
    text = (ROOT / "README.md").read_text()
    block = text.split("A minimal session:", 1)[1].split("```python\n", 1)[1]
    code = block.split("```", 1)[0]
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["True"]
