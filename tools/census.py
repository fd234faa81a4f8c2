"""Line count and settable-value census of the package source.

    python3 tools/census.py [SRC_DIR]

SRC_DIR defaults to src/. Prints the number of lines of every .py file
under it, the settable values: function parameters that have a default,
plus dataclass fields (each one a value a caller may set), and the
number of `class` statements.
"""

from __future__ import annotations

import ast
import pathlib
import sys


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else \
            getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def census(tree: ast.AST) -> tuple[int, int, int]:
    """(defaulted parameters, dataclass fields, classes) in one module."""
    defaulted = fields = classes = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            defaulted += len(a.defaults)
            defaulted += sum(d is not None for d in a.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            classes += 1
            if _is_dataclass(node):
                fields += sum(isinstance(s, ast.AnnAssign) for s in node.body)
    return defaulted, fields, classes


def main(argv: list[str]) -> int:
    src = pathlib.Path(argv[1] if len(argv) > 1 else "src")
    lines = defaulted = fields = classes = 0
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        lines += len(text.splitlines())
        d, f, c = census(ast.parse(text))
        defaulted += d
        fields += f
        classes += c
    print(f"lines {lines}")
    print(f"settable {defaulted + fields} "
          f"(defaulted parameters {defaulted}, dataclass fields {fields})")
    print(f"classes {classes}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
