"""Every name a spanplan module imports is used in that module.

The check reads the source with ``ast``.  An import statement whose lines
carry ``# noqa: F401`` is exempt, and so is a relative import in an
``__init__.py``, which re-exports its names.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spanplan"
MODULES = sorted(PACKAGE.rglob("*.py"))


def _unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name path imports and never uses, in line order."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, str(path))
    imported = {}  # bound name -> line of its import
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and (
                node.module == "__future__" or node.level and path.name == "__init__.py"):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_every_imported_name_is_used(path):
    assert _unused_imports(path) == []


def test_the_import_check_finds_an_unused_import(tmp_path):
    assert {"cost.py", "formula.py", "pure.py", "__init__.py"} <= {p.name for p in MODULES}
    module = tmp_path / "__init__.py"
    module.write_text("import copy\nimport math\nfrom os import path as p, sep\n"
                      "import time  # noqa: F401\nfrom . import kept\nimport os.path\n"
                      "print(math.pi, sep)\n")
    assert _unused_imports(module) == [(1, "copy"), (3, "p"), (6, "os")]
