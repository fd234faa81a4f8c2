"""tools/same_outputs.py's comparison, on directories written here."""

import importlib.util
import pathlib
import shutil

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" \
    / "same_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _two_trees(tmp_path):
    a = tmp_path / "parent"
    (a / "run" / "out").mkdir(parents=True)
    (a / "printed.txt").write_text("$ pwdrecon train\nexit 0\n")
    (a / "run" / "out" / "metrics.csv").write_text("window,r\n0,0.5\n")
    (a / "run" / "model.npz").write_bytes(bytes(range(256)))
    b = tmp_path / "change"
    shutil.copytree(a, b)
    return a, b


def test_identical_trees_show_no_difference(tmp_path, capsys):
    tool = _tool()
    a, b = _two_trees(tmp_path)
    assert tool.differences(str(a), str(b)) == []
    assert tool.report(str(a), str(b), []) == 0
    assert capsys.readouterr().out == \
        "3 files compared, 0 differ, 0 allowed differences\n"


def test_one_changed_byte_is_named(tmp_path, capsys):
    tool = _tool()
    a, b = _two_trees(tmp_path)
    data = bytearray((b / "run" / "model.npz").read_bytes())
    data[100] ^= 1
    (b / "run" / "model.npz").write_bytes(bytes(data))
    assert tool.differences(str(a), str(b)) == ["run/model.npz"]
    assert tool.report(str(a), str(b), ["*.csv"]) == 1
    assert "differs: run/model.npz" in capsys.readouterr().out.splitlines()


def test_a_file_on_one_side_only_is_named(tmp_path):
    tool = _tool()
    a, b = _two_trees(tmp_path)
    (b / "run" / "out" / "window0.svg").write_text("<svg/>")
    (a / "printed.txt").unlink()
    assert tool.differences(str(a), str(b)) == ["printed.txt",
                                                "run/out/window0.svg"]


def test_allow_lets_a_difference_pass_and_lists_it(tmp_path, capsys):
    tool = _tool()
    a, b = _two_trees(tmp_path)
    (b / "run" / "out" / "metrics.csv").write_text("window,r\n0,0.6\n")
    assert tool.report(str(a), str(b), ["run/out/*.csv"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "3 files compared, 0 differ, 1 allowed differences",
        "allowed: run/out/metrics.csv"]
