"""Every name `src/skewlab` defines is reached from outside the tests.

A def or class counts as reached when library code names it outside its own
definition (`__init__.py`'s re-exports do not count), or when a benchmark
file or `pyproject.toml` mentions it as a word: the perfbench tracer names
the boundaries it wraps in strings, and the console script names `main`.
A name that only tests reach belongs in `tests/`, beside the oracles of
`tests/oracles.py` and the toolkit of `tests/bounded_variation.py`.

Every annotated field of a `@dataclass` in `src/skewlab` is read: library
code (again not `__init__.py`) or a test reads it as an attribute, or a
benchmark file mentions it as a word.  A field nothing reads is a record
of a value no one uses.  The rule goes by name, so a field that shares its
name with an attribute read elsewhere passes unseen: `ClassSample` could
keep a `word_length` field, since the CLI reads `config.classify.word_length`.
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


def _dataclass_fields(tree):
    """Names of the annotated fields of the module's @dataclass classes."""
    fields = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            deco = deco.func if isinstance(deco, ast.Call) else deco
            if getattr(deco, "id", getattr(deco, "attr", None)) == "dataclass":
                fields |= {stmt.target.id for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)}
    return fields


def _attributes_read(path):
    return {node.attr for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def unread_fields(src=SRC, root=ROOT):
    fields, read = set(), set()
    for path in sorted(src.glob("*.py")):
        fields |= _dataclass_fields(ast.parse(path.read_text()))
        if path.name != "__init__.py":
            read |= _attributes_read(path)
    for path in sorted((root / "tests").glob("*.py")):
        read |= _attributes_read(path)
    for path in sorted((root / "perfbench").glob("*.py")):
        read |= set(re.findall(r"\w+", path.read_text()))
    return sorted(fields - read)


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


def test_no_record_field_goes_unread():
    assert unread_fields() == []


def test_an_unread_field_is_flagged(tmp_path):
    for sub in ("src", "tests", "perfbench"):
        (tmp_path / sub).mkdir()
    (tmp_path / "perfbench" / "run.py").write_text('COUNTED = "Probe.benched"\n')
    (tmp_path / "tests" / "test_mod.py").write_text("def test_probe(p):\n    assert p.tested\n")
    (tmp_path / "src" / "__init__.py").write_text("def show(p):\n    return p.reexported\n")
    (tmp_path / "src" / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Probe:\n"
        "    used: int\n"
        "    tested: int\n"
        "    benched: int\n"
        "    reexported: int\n"
        "    written: int\n"
        "class Plain:\n"
        "    untracked: int\n"
        "def read(p):\n"
        "    p.written = p.used\n"
        "    return p\n")
    assert unread_fields(tmp_path / "src", tmp_path) == ["reexported", "written"]
