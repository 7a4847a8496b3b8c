"""Every module in src/ and tests/ references each name it imports."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that the module never references.

    A name listed in ``__all__`` counts as referenced; ``from __future__``
    imports are ignored.
    """
    imported: dict[str, int] = {}
    referenced: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            referenced.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in referenced]


def test_scan_flags_only_unreferenced_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path\n"
        "import sys\n"
        "from json import dumps as to_json, loads\n"
        "from .errors import ParseError\n"
        "__all__ = ['ParseError']\n"
        "print(sys.argv, to_json)\n"
    )
    assert unused_imports(source) == ["line 5: loads", "line 3: os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
