"""Every module in src/ and tests/ references each name it imports, every
module-level private name defined in src/ is referenced somewhere in src/, no
module in src/ imports numpy or requests at import time, the CLI imports no
generation module and no thread pool at import time, none imports requests at
all, and the package's lazy exports resolve each ``__all__`` name, once, to
the object its submodule defines."""

from __future__ import annotations

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC_MODULES = sorted((ROOT / "src").rglob("*.py"))
MODULES = sorted([*SRC_MODULES, *(ROOT / "tests").rglob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that the module never references.

    A name listed in a literal ``__all__`` counts as referenced; ``from
    __future__`` imports are ignored.
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
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
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


# loaded by the functions that use them, so commands that do not stay fast to start
DEFERRED = ("numpy", "requests")
# what only the generation commands use, which the CLI loads inside them
GENERATION = ("dialogforge.agents", "dialogforge.backends", "dialogforge.orchestrators",
              "dialogforge.scenarios", "dialogforge.seeding", "dialogforge.generators",
              "concurrent.futures")


def eager_deferred_imports(source: str, deferred_modules=DEFERRED) -> list[str]:
    """Imports of a ``deferred_modules`` module, or one inside it, that run
    when the module is imported.

    An import inside a function body runs with the function, and one under
    ``if TYPE_CHECKING:`` never runs; any other import, class bodies
    included, runs at import time. Relative imports are read as imports
    from the ``dialogforge`` package.
    """
    found: list[str] = []

    def deferred(module: str) -> bool:
        return any(module == name or module.startswith(name + ".")
                   for name in deferred_modules)

    def scan(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
                "TYPE_CHECKING", "typing.TYPE_CHECKING"):
            children = node.orelse
        elif isinstance(node, ast.Import):
            found.extend(f"line {node.lineno}: {alias.name}" for alias in node.names
                         if deferred(alias.name))
            return
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                modules = [node.module]
            elif node.module:
                modules = [f"dialogforge.{node.module}"]
            else:  # from . import name, ...
                modules = [f"dialogforge.{alias.name}" for alias in node.names]
            found.extend(f"line {node.lineno}: {module}" for module in modules
                         if deferred(module))
            return
        else:
            children = ast.iter_child_nodes(node)
        for child in children:
            scan(child)

    scan(ast.parse(source))
    return found


def test_deferred_scan_flags_only_import_time_imports():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import numpy.linalg\n"
        "from requests.exceptions import Timeout\n"
        "import numbers\n"
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n"
        "else:\n"
        "    import requests\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    pass\n"
        "def embed():\n"
        "    import numpy as np\n"
        "class Client:\n"
        "    import requests\n"
        "    def post(self):\n"
        "        import requests\n"
    )
    assert eager_deferred_imports(source) == [
        "line 2: numpy.linalg", "line 3: requests.exceptions", "line 8: requests",
        "line 10: numpy", "line 16: requests"]


@pytest.mark.parametrize("path", SRC_MODULES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_import_time_numpy_or_requests(path):
    assert eager_deferred_imports(path.read_text(encoding="utf-8")) == []


def test_generation_scan_reads_relative_imports_as_package_modules():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from .dialog import Dialog\n"
        "from .agents import Agent\n"
        "from . import flow, orchestrators\n"
        "import concurrent.futures.thread\n"
        "from concurrent.futures import Future\n"
        "import concurrent\n"
        "if TYPE_CHECKING:\n"
        "    from .backends import Backend\n"
        "def run():\n"
        "    from .seeding import entropy_seed\n"
        "    from concurrent.futures import ThreadPoolExecutor\n"
    )
    assert eager_deferred_imports(source, GENERATION) == [
        "line 3: dialogforge.agents", "line 4: dialogforge.orchestrators",
        "line 5: concurrent.futures.thread", "line 6: concurrent.futures"]


def test_cli_imports_no_generation_module_at_import_time():
    source = (ROOT / "src" / "dialogforge" / "cli.py").read_text(encoding="utf-8")
    assert eager_deferred_imports(source, GENERATION) == []


def test_src_never_imports_requests():
    found = []
    for path in SRC_MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name} line {node.lineno}: {module}" for module in modules
                      if module.split(".")[0] == "requests"]
    assert found == []


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private names of ``sources`` (module -> text) that no module loads.

    A private name has one leading underscore (dunders are not private) and
    is bound at module level by ``def``, ``class`` or an assignment. It is
    referenced when any module loads it as a bare name or as an attribute.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    referenced: set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unused = []
    for module, tree in trees.items():
        for statement in tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [statement.name]
            elif isinstance(statement, ast.Assign):
                names = [node.id for target in statement.targets for node in ast.walk(target)
                         if isinstance(node, ast.Name)]
            elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
                names = [statement.target.id]
            else:
                continue
            unused += [f"{module} line {statement.lineno}: {name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in referenced]
    return unused


def test_private_scan_flags_only_unreferenced_names():
    sources = {
        "a": (
            "__version__ = '1'\n"
            "_LIMIT: int = 3\n"
            "_a, _b = 1, 2\n"
            "def _resolve_seed(seed):\n"
            "    return seed\n"
            "def _used():\n"
            "    return _LIMIT + _a\n"
            "class _Hidden:\n"
            "    pass\n"
        ),
        "b": "from . import a\nprint(a._used(), a._Hidden)\n",
    }
    assert unreferenced_privates(sources) == ["a line 3: _b", "a line 4: _resolve_seed"]


def test_no_unreferenced_private_names_in_src():
    sources = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
               for path in SRC_MODULES}
    assert unreferenced_privates(sources) == []


def test_package_all_lists_each_imported_name_once():
    import dialogforge

    exported = [name for names in dialogforge._EXPORTS.values() for name in names]
    assert [name for name, n in Counter(exported).items() if n > 1] == []
    assert sorted(dialogforge.__all__) == sorted(exported)
    for module, names in dialogforge._EXPORTS.items():
        submodule = importlib.import_module(f"dialogforge.{module}")
        for name in names:
            assert getattr(dialogforge, name) is getattr(submodule, name), name
    assert sorted(dir(dialogforge)) == sorted(dialogforge.__all__)
    namespace: dict = {}
    exec("from dialogforge import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(dialogforge.__all__)


def test_package_refuses_a_name_it_does_not_export():
    import dialogforge

    with pytest.raises(AttributeError, match="^module 'dialogforge' has no attribute 'Dialogue'$"):
        dialogforge.Dialogue
    assert not hasattr(dialogforge, "MESSAGES")  # defined in orchestrators, not exported
