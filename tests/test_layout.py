"""Package layout: a module's private names are its own."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "levypme"


def private_imports(package: Path) -> list:
    """(importing module, module imported from, name) of every
    ``from .module import _name`` and ``from levypme.module import _name`` in
    the modules of ``package`` that takes a private name from another
    module."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if node.level == 1:
                source = node.module
            elif node.level == 0 and node.module.startswith("levypme."):
                source = node.module.removeprefix("levypme.")
            else:
                continue
            found += [(path.stem, source, alias.name) for alias in node.names
                      if alias.name.startswith("_") and source != path.stem]
    return found


def test_no_module_imports_another_modules_private_name():
    assert private_imports(PACKAGE) == []
