"""tools/reach.py on a tiny module whose reached lines are known."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "reach.py"

SOURCE = '''\
LIMIT = 3


def pick(flag):
    if flag:
        return "yes"
    return "no"


class Box:
    size = 3

    def grow(self, by):
        return self.size + by


def unused():
    x = [i for i in range(LIMIT)]
    return x
'''


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reach_collects_function_body_lines(tmp_path):
    reach = _load("reach", TOOL)
    root = tmp_path.resolve() / "pkg"
    root.mkdir()
    path = root / "tiny.py"
    path.write_text(SOURCE)
    # module and class bodies run at import; def lines are not counted
    assert reach.executable_lines(path) == {5, 6, 7, 14, 18, 19}

    tiny = _load("tiny", path)
    reached = reach.reached_lines(root, lambda: tiny.pick(True))
    assert reached == {str(path): {5, 6}}
    assert reach.unreached(root, reached) == {str(path): [7, 14, 18, 19]}

    both = reach.reached_lines(
        root, lambda: (tiny.pick(False), tiny.Box().grow(1), tiny.unused()))
    assert reach.unreached(root, both) == {str(path): [6]}
