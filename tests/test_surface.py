"""Every function, class and method that src/relpose defines is used by
the program itself, not only by the tests, every field that one of its
dataclasses declares is read by the program, and every name a file under
src/, tests/ or demos/ imports is used in that file.

A defined name counts as used when it appears as a whole word in a
Python file under src/, demos/ or perfbench/ (the benchmark's own tests
excepted) outside the lines of its own definition.  Dunder methods are
called by Python and are not checked.  A field named f counts as read
when ".f" appears, f a whole word, in one of those files outside the
line that declares it.  An imported name counts as used when the file's
syntax tree reads it anywhere.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "relpose"
# the only names the guard allows, kept for the tests alone: the loss the
# oracle's confidences are calibrated to, and an independent reference for
# the oracle's noise
TEST_REFERENCES = {"conf_loss", "noise_scales"}
# the only fields the guard allows: PoseEdge, one row of an EdgeBatch, is
# read whole by the tests and the benchmark's smoke test, and goes with
# the rest of ROADMAP item 5
UNREAD_FIELDS = {"PoseEdge.rel_rotation"}


def definitions(path):
    """(name, first line, last line) of each top-level function and class
    in the module and of each non-dunder method of its classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("__"):
                    yield item.name, item.lineno, item.end_lineno


def program_files():
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "demos").glob("*.py"),
             *(p for p in (ROOT / "perfbench").glob("*.py")
               if not p.name.startswith("test_"))]
    return {p: p.read_text().splitlines() for p in sorted(files)}


def unused_names():
    files = program_files()
    unused = set()
    for module in sorted(PACKAGE.glob("*.py")):
        for name, first, last in definitions(module):
            word = re.compile(rf"\b{re.escape(name)}\b")
            used = any(word.search(line)
                       for path, lines in files.items()
                       for k, line in enumerate(lines, start=1)
                       if not (path == module and first <= k <= last))
            if not used:
                unused.add(name)
    return unused


def test_the_program_uses_every_name_it_defines():
    assert unused_names() == TEST_REFERENCES


def dataclass_fields(path):
    """(class, field, line) of each field that a dataclass of the module
    declares."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(d, ast.Name) and d.id == "dataclass"
                or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
                for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id, item.lineno


def unread_fields():
    files = program_files()
    unread = set()
    for module in sorted(PACKAGE.glob("*.py")):
        for cls, field, line in dataclass_fields(module):
            word = re.compile(rf"\.{re.escape(field)}\b")
            read = any(word.search(text)
                       for path, lines in files.items()
                       for k, text in enumerate(lines, start=1)
                       if not (path == module and k == line))
            if not read:
                unread.add(f"{cls}.{field}")
    return unread


def test_the_program_reads_every_field_it_declares():
    assert unread_fields() == UNREAD_FIELDS


def unused_imports(path):
    """Names that the module at path imports and never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {f"{name} (line {line})" for name, line in imported.items()
            if name not in read}


def test_every_import_is_used():
    files = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
    found = {str(p.relative_to(ROOT)): unused_imports(p) for p in files}
    assert {path: names for path, names in found.items() if names} == {}
