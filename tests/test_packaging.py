"""The package imports no third-party module that pyproject.toml does not
declare as a runtime dependency, declares none it does not import, and
imports no name that it never reads."""

import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports():
    found = set()
    for path in sorted((ROOT / "src" / "pairboson").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"pairboson"}


def test_imports_match_runtime_dependencies():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps}
    assert _third_party_imports() == declared == {"numpy"}


def _unloaded_imports(path):
    """The names a module's import statements bind that no expression in
    the module reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported - loaded


def _perfbench_rebinds():
    """(module, name) for every name of the package that perfbench replaces
    while it measures: the tracer's WRAPS rows and the names PoolSpeed sets
    on `pairboson.cli`, read from their source."""
    bench = ROOT / "perfbench"
    found = set()
    for node in ast.walk(ast.parse((bench / "tracer.py").read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["WRAPS"]):
            for row in node.value.elts:
                module, attr = (e.value for e in row.elts[:2])
                found.add((module.removeprefix("pairboson."), attr))
    speed = ast.parse((bench / "speed.py").read_text(encoding="utf-8"))
    pool = next(n for n in ast.walk(speed)
                if isinstance(n, ast.ClassDef) and n.name == "PoolSpeed")
    for node in ast.walk(pool):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and "cli" in (getattr(node.value, "id", None),
                              getattr(node.value, "attr", None))):
            found.add(("cli", node.attr))
    return found


def test_every_import_is_read_or_rebound_by_perfbench():
    # no linter is installed: an imported name that its module never reads
    # is stale, unless perfbench rebinds it there to wrap it
    rebinds = _perfbench_rebinds()
    unread = {(path.stem, name)
              for path in sorted((ROOT / "src" / "pairboson").glob("*.py"))
              if path.name != "__init__.py"
              for name in _unloaded_imports(path)}
    assert unread <= rebinds, sorted(unread - rebinds)
