"""Static checks over the source: every name imported in src/ and tests/
is used in its module, and only the input boundary raises ConfigError.

An import kept only to re-export a name says so with `# noqa: F401`; a
name listed in the module's `__all__` counts as used."""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _dunder_all(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            yield from (e.value for e in node.value.elts if isinstance(e, ast.Constant))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("noqa: F401" in ln for ln in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported.append((node.lineno, name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_dunder_all(tree))
    return [(line, name) for line, name in imported if name not in used]


def test_scanner_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path as osp\n"
              "from json import dumps, loads\n"
              "from re import sub  # noqa: F401\n"
              "def f(x):\n"
              "    return dumps(x) + osp.sep\n")
    assert unused_imports(source) == [(2, "os"), (4, "loads")]


def test_no_unused_imports_in_src_or_tests():
    found = []
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")]):
        for line, name in unused_imports(path.read_text()):
            found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


# the modules that read configs, flags and records; everything past them trusts
# the bounds `ExperimentConfig` checks
INPUT_BOUNDARY = {"config.py", "cli.py", "runner.py"}


def _raised_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield node.lineno, exc.id


def test_only_the_input_boundary_raises_config_error():
    found = [f"{path.name}:{line}"
             for path in sorted(ROOT.glob("src/geofuse/*.py"))
             if path.name not in INPUT_BOUNDARY
             for line, name in _raised_names(ast.parse(path.read_text()))
             if name == "ConfigError"]
    assert not found, "ConfigError raised past the input boundary: " + ", ".join(found)
