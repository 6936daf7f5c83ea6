"""The README's minimal session, run as written in a fresh interpreter, and
its config block against the config schema."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from skewlab.config import BumpSpec, ExperimentConfig

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


def _key_paths(d, prefix=()):
    paths = set()
    for k, v in d.items():
        paths.add(prefix + (k,))
        if isinstance(v, dict):
            paths |= _key_paths(v, prefix + (k,))
    return paths


def test_config_block_matches_schema():
    text = (ROOT / "README.md").read_text()
    block = text.split("Defaults shown:", 1)[1].split("```jsonc\n", 1)[1]
    block = block.split("```", 1)[0]
    shown = json.loads(re.sub(r"//.*", "", block))
    real = ExperimentConfig().to_dict()
    assert _key_paths(shown) == _key_paths(real)
    (bump,) = shown["family"].pop("bumps")
    assert set(bump) == {f.name for f in dataclasses.fields(BumpSpec)}
    real["family"].pop("bumps")
    assert shown == real
