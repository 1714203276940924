"""Every import of the library, its tests and its demos is read by its module.

Exempt: `from __future__ import ...`, the package's re-exports in
`src/cherednik_kit/__init__.py`, and lines marked `# noqa: F401` (an import
kept for its side effect).
"""
import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE_INIT = ROOT / "src" / "cherednik_kit" / "__init__.py"
MODULES = sorted(path for folder in ("src", "tests", "demos")
                 for path in (ROOT / folder).rglob("*.py"))


def unused_imports(path: pathlib.Path) -> list[str]:
    """The names that an import of the module binds and no expression reads,
    each as 'line: name'."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and (
                node.module == "__future__" or (path == PACKAGE_INIT and node.level)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for line, name in bound if name not in read]


def test_the_scan_finds_an_unused_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import os, sys\n"
                      "import a.b\n"
                      "from c import d as e\n"
                      "import f  # noqa: F401\n"
                      "print(sys.argv, a.b.x)\n")
    assert unused_imports(module) == ["2: os", "4: e"]
    assert {path.relative_to(ROOT).parts[0] for path in MODULES} == {"src", "tests", "demos"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(path) == []
