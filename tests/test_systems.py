"""FINE's and STRONG's draws are written once, in perfbench/workloads.py.

Tests read them through systems.py.  A test, library module or README that
wrote one out again would drift from the pin when a destroy change re-draws
them, so the repr of each translation component and certified half-width is
searched for in every file under tests/, in src/skewlab/ and in README.md.
"""

from pathlib import Path

import skewlab

from systems import DESTROYED

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(skewlab.__file__).parent


def restatements(files, values):
    """(file name, repr) for each value whose repr, without its sign, is in a file."""
    reprs = [repr(abs(x)) for x in values]
    found = []
    for path in files:
        text = path.read_text(encoding="utf-8", errors="replace")
        found += [(path.name, r) for r in reprs if r in text]
    return found


def pinned_values():
    return [x for spec, _, _ in DESTROYED.values() for x in (*spec.v1, *spec.v2, spec.region_half)]


def searched_files():
    tests = [p for p in (ROOT / "tests").rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    return tests + sorted(SRC.glob("*.py")) + [ROOT / "README.md"]


def test_draws_are_written_once():
    assert len(pinned_values()) == 10
    assert restatements(searched_files(), pinned_values()) == []


def test_a_restated_draw_is_flagged(tmp_path):
    value = DESTROYED["strong"][0].v2[1]
    written = tmp_path / "restated.py"
    written.write_text(f"V2 = (0.032, {value!r})\n")
    assert restatements([written], pinned_values()) == [("restated.py", repr(abs(value)))]
