"""Static checks over the source: every name imported in src/ and tests/
is used in its module, every function, class and method src/ defines is
read somewhere in src/ or perfbench/, only the input boundary raises
ConfigError, and every package name the benchmark harness in perfbench/
reads exists.

An import kept only to re-export a name says so with `# noqa: F401`; a
name listed in the module's `__all__` counts as used."""
import ast
import importlib
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


def defined_names(source: str) -> list[tuple[int, str]]:
    """(line, name) of every undecorated module-level function and class,
    and every undecorated non-dunder method, as `Class.method`."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.decorator_list:
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found.extend((m.lineno, f"{node.name}.{m.name}") for m in node.body
                         if isinstance(m, ast.FunctionDef) and not m.decorator_list
                         and not (m.name.startswith("__") and m.name.endswith("__")))
    return found


def read_names(source: str) -> set[str]:
    """Every name a module reads: loaded names and attributes, and the
    names its imports bind."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def test_dead_name_scanner_flags_only_unread_definitions():
    source = ("from dataclasses import dataclass\n"
              "from json import dumps\n"
              "def used(): return dumps\n"
              "def unused(): pass\n"
              "@dataclass\n"
              "class Spec: pass\n"
              "class Box:\n"
              "    def __len__(self): return 0\n"
              "    def read(self): return used()\n"
              "    def dead(self): pass\n"
              "    @staticmethod\n"
              "    def helper(): pass\n"
              "Box().read()\n")
    reads = read_names(source)
    assert [(line, name) for line, name in defined_names(source)
            if name.split(".")[-1] not in reads] == [(4, "unused"), (10, "Box.dead")]


def test_every_definition_in_src_is_read_by_src_or_perfbench():
    reads = set()
    for path in [*ROOT.glob("src/**/*.py"), *ROOT.glob("perfbench/*.py")]:
        reads |= read_names(path.read_text())
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in sorted(ROOT.glob("src/geofuse/*.py"))
             for line, name in defined_names(path.read_text())
             if name.split(".")[-1] not in reads]
    assert not found, "defined but never read in src/ or perfbench/:\n" + "\n".join(found)


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


def geofuse_reads(source: str) -> list[tuple[int, str, str]]:
    """(line, owner, name) of every package name a module reads statically:
    `from geofuse[.mod] import name`, and `alias.name` where an import bound
    `alias` to a geofuse module or to a name inside one."""
    tree = ast.parse(source)
    reads, bound = [], {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "geofuse":
            for alias in node.names:
                reads.append((node.lineno, node.module, alias.name))
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "geofuse":
                    local = alias.asname or alias.name.split(".")[0]
                    bound[local] = alias.name if alias.asname else local
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            reads.append((node.lineno, bound[node.value.id], node.attr))
    return reads


def _exists(dotted: str) -> bool:
    """Whether a dotted path names something, importing each submodule on
    the way first: a package has a submodule as an attribute only once it
    is imported."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        try:
            importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            pass  # not a module: an attribute or nothing
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_reads_scanner_resolves_modules_and_names():
    source = ("import geofuse\n"
              "from geofuse import cli, runner\n"
              "from geofuse.runner import pilot_config\n"
              "def f():\n"
              "    return geofuse.__file__, runner.pilot_configs, cli.no_such_name\n")
    missing = [(line, f"{owner}.{name}") for line, owner, name in geofuse_reads(source)
               if not _exists(f"{owner}.{name}")]
    assert missing == [(3, "geofuse.runner.pilot_config"), (5, "geofuse.cli.no_such_name")]


def test_every_package_name_perfbench_reads_exists():
    """The harness drives the package by name; a rename must fail in Tier-1,
    not first in `perfbench/smoke.py`."""
    missing = [f"perfbench/{path.name}:{line}: {owner}.{name}"
               for path in sorted(ROOT.glob("perfbench/*.py"))
               for line, owner, name in geofuse_reads(path.read_text())
               if not _exists(f"{owner}.{name}")]
    assert not missing, "names perfbench reads are gone:\n" + "\n".join(missing)
