"""Every name `src/skewlab` defines is reached from outside the tests.

A def or class counts as reached when library code names it outside its own
definition (`__init__.py`'s re-exports do not count), or when a benchmark
file or `pyproject.toml` mentions it as a word: the perfbench tracer names
the boundaries it wraps in strings, and the console script names `main`.
A name that only tests reach belongs in `tests/`, beside the oracles of
`tests/oracles.py` and the toolkit of `tests/bounded_variation.py`.
"""

import ast
import re
from pathlib import Path

import skewlab

SRC = Path(skewlab.__file__).parent
ROOT = SRC.parent.parent

# hooks that a library other than skewlab calls, never skewlab itself
HOOKS = {
    "error": "argparse.ArgumentParser calls it on a command line it rejects",
}


def _defined_and_used(tree):
    """(names defined by def or class, names used outside a def of that name)."""
    defined, used = set(), set()

    def walk(node, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(child.name)
                walk(child, enclosing | {child.name})
                continue
            if isinstance(child, ast.Name):
                name = child.id
            elif isinstance(child, ast.Attribute):
                name = child.attr
            else:
                name = None
            if name is not None and name not in enclosing:
                used.add(name)
            walk(child, enclosing)

    walk(tree, frozenset())
    return defined, used


def unreached_names(src=SRC, root=ROOT):
    defined, used = set(), set()
    for path in sorted(src.glob("*.py")):
        d, u = _defined_and_used(ast.parse(path.read_text()))
        defined |= d
        if path.name != "__init__.py":
            used |= u
    outside = [root / "pyproject.toml", *sorted((root / "perfbench").glob("*.py"))]
    for path in outside:
        used |= set(re.findall(r"\w+", path.read_text()))
    return sorted(n for n in defined - used - set(HOOKS)
                  if not (n.startswith("__") and n.endswith("__")))


def test_no_library_name_is_reached_only_by_tests():
    assert unreached_names() == []


def test_an_uncalled_helper_is_flagged(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "pyproject.toml").write_text('skewlab = "skewlab.cli:main"\n')
    (tmp_path / "perfbench" / "run.py").write_text('WRAPPED = ["Probe.traced"]\n')
    (tmp_path / "src" / "__init__.py").write_text("from .mod import helper\n")
    (tmp_path / "src" / "mod.py").write_text(
        "class Probe:\n"
        "    def traced(self):\n"
        "        return self.used()\n"
        "    def used(self):\n"
        "        return 1\n"
        "    def helper(self):\n"
        "        return self.helper()\n"
        "def main():\n"
        "    return Probe().traced()\n"
        "def error(message):\n"
        "    raise SystemExit(message)\n")
    assert unreached_names(tmp_path / "src", tmp_path) == ["helper"]
