"""Every file the package writes goes through one writer, ``kernel_io._write_file``.

So ``open`` with a write, append, exclusive or update mode, ``Path.write_text``
and ``Path.write_bytes`` are called in that one scope only.  An ``open`` whose
mode is not a string constant counts as a write, as does ``os.open``, whose
flags the finder does not read."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kernelforge"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
WRITE_METHODS = {"write_text", "write_bytes"}
MODULES_WITH_OPEN = {"builtins", "io", "os", "gzip", "bz2", "lzma", "codecs"}  # mode after the file


def file_writes(source: str) -> list[str]:
    """The scope of each call in source that can write a file; ``<module>`` at the top level."""
    found: list[str] = []
    _visit(ast.parse(source), (), found)
    return found


def _mode(call: ast.Call) -> ast.expr | None:
    """The node that gives the mode of an ``open`` call: ``open(file, mode)``, ``io.open(file, mode)``, or
    ``path.open(mode)``; None when the call gives none."""
    for keyword in call.keywords:
        if keyword.arg in ("mode", "flags"):
            return keyword.value
    func = call.func
    after_file = isinstance(func, ast.Name) or getattr(func.value, "id", None) in MODULES_WITH_OPEN
    position = 1 if after_file else 0
    return call.args[position] if len(call.args) > position else None


def _writes(call: ast.Call) -> bool:
    func = call.func
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    if name in WRITE_METHODS and isinstance(func, ast.Attribute):
        return True
    if name != "open":
        return False
    mode = _mode(call)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or bool(set(mode.value) & set("wax+"))


def _visit(node: ast.AST, scope: tuple[str, ...], found: list[str]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and _writes(child):
            found.append(".".join(scope) or "<module>")
        _visit(child, (*scope, child.name) if isinstance(child, SCOPES) else scope, found)


def test_files_are_written_only_by_the_one_writer():
    found = {
        f"{path.stem}.{where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where in file_writes(path.read_text(encoding="utf-8"))
    }
    assert sorted(found) == ["kernel_io._write_file"]


def test_the_finder_flags_every_call_that_can_write_a_file():
    source = (
        "def f(p):\n    open(p, 'w')\n    open(p)\n    open(p, 'rb')\n    open(p, mode='ab')\n"
        "class C:\n    def g(self, p):\n        p.open('r+')\n        p.open()\n        p.read_text()\n"
        "p.write_text('x')\n"
        "def h(p, m):\n    io.open(p, m)\n    os.open(p, os.O_RDONLY)\n"
        "def k(p):\n    p.write_bytes(b'x')\n    open(p, 'x')\n    p.open(mode='r')\n"
    )
    assert file_writes(source) == ["f", "f", "C.g", "<module>", "h", "h", "k", "k"]
