"""Import layering: the exact-math modules do not depend on the simulator
or the command line."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gwimm"


def imported_modules(path: Path) -> set[str]:
    """Absolute names of the gwimm modules a source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "gwimm" + ("." + base if base else "")
            names.add(base)
            # `from gwimm import simulate` names the module in the alias
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


@pytest.mark.parametrize("module", ["laws", "pgf", "renewal", "limits",
                                    "_num"])
def test_exact_math_does_not_import_simulator_or_cli(module):
    names = imported_modules(PACKAGE / f"{module}.py")
    assert names, "no imports parsed"
    for banned in ("gwimm.simulate", "gwimm.cli"):
        assert not any(n == banned or n.startswith(banned + ".")
                       for n in names), (module, banned)


def unused_imports(path: Path) -> set[str]:
    """Names a source file imports but never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return bound - used


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.stem)
def test_no_unused_imports(path):
    # deletions tend to leave their imports behind
    assert not unused_imports(path), sorted(unused_imports(path))
