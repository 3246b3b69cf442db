"""An input file's errors are typed and named in one place, ``kernel_io.reading``.

So an ``except`` clause that can catch an OSError or a UnicodeDecodeError
appears in four scopes only: ``kernel_io.reading``; ``config.load_config_file``,
whose errors stay a ConfigError (exit 2); ``kernel_io._make_dir``, which makes
every output directory; and ``kernel_io._write_file``, the one writer of output files,
whose errors are a ConfigError too.  ValueError, a base of UnicodeDecodeError, is left out: it is
every parser's error, and ``reading`` types the ones raised while a file is read."""

import ast
import builtins
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kernelforge"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FILE_ERRORS = {
    name
    for name, cls in vars(builtins).items()
    if isinstance(cls, type) and cls is not ValueError
    and any(issubclass(cls, error) or issubclass(error, cls) for error in (OSError, UnicodeDecodeError))
}


def file_error_handlers(source: str) -> list[str]:
    """The scope of each except clause in source that can catch a file error,
    a bare ``except:`` included; ``<module>`` at the top level."""
    found: list[str] = []
    _visit(ast.parse(source), (), found)
    return found


def _visit(node: ast.AST, scope: tuple[str, ...], found: list[str]) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ExceptHandler):
            caught = child.type or ast.Name("BaseException")  # a bare except
            named = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(caught)}
            if named & FILE_ERRORS:
                found.append(".".join(scope) or "<module>")
        _visit(child, (*scope, child.name) if isinstance(child, SCOPES) else scope, found)


def test_file_errors_are_caught_only_at_the_reader_boundary():
    found = {
        f"{path.stem}.{where}"
        for path in sorted(PACKAGE.glob("*.py"))
        for where in file_error_handlers(path.read_text(encoding="utf-8"))
    }
    assert sorted(found) == [
        "config.load_config_file", "kernel_io._make_dir", "kernel_io._write_file", "kernel_io.reading"
    ]


def test_the_finder_flags_every_clause_that_can_catch_a_file_error():
    source = (
        "def f():\n    try:\n        pass\n    except (KeyError, FileNotFoundError):\n        pass\n"
        "class C:\n    def g(self):\n        try:\n            pass\n"
        "        except builtins.UnicodeError:\n            pass\n"
        "try:\n    pass\nexcept:\n    pass\n"
        "def h():\n    try:\n        pass\n    except (ValueError, KeyError):\n        pass\n"
        "    except Exception:\n        pass\n"
    )
    assert file_error_handlers(source) == ["f", "C.g", "<module>", "h"]
