"""Structural checks on the package source: each file format and each
signal primitive has one owner, the one module that calls it."""

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
    ("sps", "sosfiltfilt"): "dsp.py",  # the one zero-phase filter
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
