"""Structural checks on the package source: each file format and each
signal primitive has one owner, the one module that calls it, no module
imports scipy, each text format has one writer, each error type has a
raise, and a fault in a file read from outside is an OSError or a
ValueError."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "pwdrecon"

# (module alias, function) -> the one module allowed to call it
OWNERS = {
    ("json", "load"): "core.py",
    ("json", "dump"): "core.py",
    ("np", "load"): "harness/io.py",
    ("np", "savez"): "harness/io.py",
    ("np", "fromfile"): "harness/io.py",
    ("np", "frombuffer"): "harness/io.py",  # the PGM pixels, the model's config
    ("np", "bincount"): "pwd_envelope.py",  # the one pixel counter
    ("np", "interp"): "dsp.py",        # the one resampler
}


def _calls(tree):
    """(alias, function, line) of every `alias.function(...)` call."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name):
            yield node.func.value.id, node.func.attr, node.lineno


def test_each_file_format_has_one_reader_and_writer():
    seen, stray = set(), []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for alias, fn, line in _calls(ast.parse(path.read_text())):
            owner = OWNERS.get((alias, fn))
            if owner is None:
                continue
            seen.add((alias, fn))
            if module != owner:
                stray.append(f"{module}:{line}: {alias}.{fn}")
    assert stray == []
    assert seen == set(OWNERS)  # the walk found each owner's calls


def test_no_module_imports_scipy():
    # the zero-phase filter is numpy only; scipy is a test dependency
    stray = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            stray += [f"{module}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert stray == []


def _opens_to_write(tree):
    """Lines of every `open(...)` call whose mode writes, appends or
    updates a file."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "open":
            mode = node.args[1:2] + [k.value for k in node.keywords
                                     if k.arg == "mode"]
            if mode and not (isinstance(mode[0], ast.Constant)
                             and set(mode[0].value).isdisjoint("wax+")):
                yield node.lineno


def test_each_text_format_has_one_writer():
    # every CSV table goes through core.write_csv and every JSON file
    # through core.write_json; the SVG plot and the PGM image have one
    # writer each
    writers = []
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for node in ast.parse(path.read_text()).body:
            name = getattr(node, "name", "<module>")
            writers += [f"{module}:{name}" for _ in _opens_to_write(node)]
    assert writers == ["core.py:write_json", "core.py:write_csv",
                       "harness/io.py:write_pgm",
                       "harness/plots.py:write_window_svg"]


def _raised(tree):
    """Names of the exception classes that `raise` statements construct or
    re-raise by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


def _error_types():
    """Names of the PwdReconError subclasses in errors.py."""
    types = set()
    for node in ast.parse((SRC / "errors.py").read_text()).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name)
                and base.id in types | {"PwdReconError"}
                for base in node.bases):
            types.add(node.name)
    return types


def test_every_error_type_is_raised():
    # each PwdReconError subclass names a fault that some run can meet
    types = _error_types()
    raised = set()
    for path in SRC.rglob("*.py"):
        if path.name != "errors.py":
            raised.update(_raised(ast.parse(path.read_text())))
    assert types and sorted(types - raised) == []


def test_one_error_type_per_way_a_run_refuses_data():
    # a new type must name a way of refusing data that none of these does
    assert _error_types() == {"SignalTooShort", "DegenerateInput",
                              "NumericalInstability", "NoFetalComponent",
                              "NoWindowsAfterFilter"}


def test_a_file_fault_is_an_os_error_or_a_value_error():
    # the readers of outside files and the JSON codec raise no PwdReconError
    # (those are for data the pipeline cannot process), and no path is
    # checked before it is opened: opening it names the path
    types = _error_types() | {"PwdReconError"}
    for module in ("harness/io.py", "core.py"):
        raised = set(_raised(ast.parse((SRC / module).read_text())))
        assert sorted(raised & types) == [], module
    prechecks = [f"{path.relative_to(SRC).as_posix()}:{node.lineno}"
                 for path in sorted(SRC.rglob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Attribute) and node.attr == "isfile"]
    assert prechecks == []


def test_raw_float32_files_have_one_reader():
    # load_record and load_preprocessed both read through read_f32_rows,
    # the one place that sizes, reads and checks a raw float32 file
    tree = ast.parse((SRC / "harness" / "io.py").read_text())
    sites = [fn.name for fn in tree.body if isinstance(fn, ast.FunctionDef)
             for alias, name, _ in _calls(fn) if (alias, name)
             == ("np", "fromfile")]
    assert sites == ["read_f32_rows"]


def _names_float32(tree):
    """Whether the tree names float32: `np.float32`, a bare `float32`, or
    the dtype string "float32" or "f4"."""
    return any(isinstance(node, ast.Attribute) and node.attr == "float32"
               or isinstance(node, ast.Name) and node.id == "float32"
               or isinstance(node, ast.Constant)
               and node.value in ("float32", "f4")
               for node in ast.walk(tree))


def test_the_network_precision_has_one_chooser():
    # the network computes in its parameters' dtype and experiment._fit
    # alone picks float32 for them, so no config field, flag or second
    # cast can choose it too; the "<f4" of the raw files is their format
    sites = [f"{path.relative_to(SRC).as_posix()}:"
             f"{getattr(node, 'name', '<module>')}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.parse(path.read_text()).body
             if _names_float32(node)]
    assert sites == ["harness/experiment.py:_fit"]
