"""Every JSON file the package writes has one layout, ``kernel_io.dump_json``:
``json.dumps`` with ``indent=`` may be called only in ``kernel_io``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kernelforge"


def indented_dumps(source: str) -> int:
    """How many calls of ``json.dumps`` (or a bare ``dumps``) pass ``indent=``."""
    return sum(
        isinstance(node, ast.Call)
        and (getattr(node.func, "attr", None) == "dumps" or getattr(node.func, "id", None) == "dumps")
        and any(keyword.arg == "indent" for keyword in node.keywords)
        for node in ast.walk(ast.parse(source))
    )


def test_only_kernel_io_lays_out_json():
    found = {path.stem: indented_dumps(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name for name, count in found.items() if count} == {"kernel_io"}
    assert found["kernel_io"] == 1


def test_an_indented_dumps_is_found_wherever_it_is():
    source = (
        "import json\nfrom json import dumps\n"
        "def f(doc):\n    return json.dumps(doc, indent=2) + dumps(doc, sort_keys=True, indent=1)\n"
        "class C:\n    text = json.dumps({}, indent=4)\n"
        "line = json.dumps({})\n"
    )
    assert indented_dumps(source) == 3
