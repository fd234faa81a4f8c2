"""tools/census.py on a tiny source tree whose counts are known."""

import ast
import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "census.py"

SOURCE = '''\
from dataclasses import dataclass, field


def f(a, b=1, *, c, d=2):
    return (lambda x=3: x)()


@dataclass(frozen=True)
class Config:
    n: int
    k: int = 5
    tags: list = field(default_factory=list)
    LIMIT = 7


class Plain:
    size: int = 4

    def grow(self, by=1):
        return self.size + by
'''


def _census():
    spec = importlib.util.spec_from_file_location("census", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_census_counts_defaults_and_dataclass_fields(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(SOURCE)
    (tmp_path / "top.py").write_text("def g(x, y=None):\n    return x\n")
    census = _census()
    # b, d (keyword-only), the lambda's x, Plain.grow's by, g's y;
    # Config's three annotated fields, not its plain LIMIT nor Plain's;
    # two classes, the dataclass and the plain one
    assert census.census(ast.parse(SOURCE)) == (4, 3, 2)
    assert census.main(["census.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "lines 22\n"  # 20 in mod.py, 2 in top.py
        "settable 8 (defaulted parameters 5, dataclass fields 3)\n"
        "classes 2\n")
