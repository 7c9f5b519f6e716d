"""Source hygiene: every imported name is used, and no module imports
another module's private name."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "spikelab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imports(tree):
    """(bound name, imported name, line, from-package?) for every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield (a.asname or a.name.split(".")[0]), a.name, node.lineno, False
        elif isinstance(node, ast.ImportFrom):
            ours = node.level > 0 or (node.module or "").split(".")[0] == "spikelab"
            for a in node.names:
                yield a.asname or a.name, a.name, node.lineno, ours


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used_and_public(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    problems = []
    for bound, name, line, ours in _imports(tree):
        if bound not in used:
            problems.append(f"{path.name}:{line}: {bound} is imported but never used")
        if ours and name.startswith("_"):
            problems.append(f"{path.name}:{line}: {name} is private to its module")
    assert not problems, "\n".join(problems)


def test_every_module_is_checked():
    assert len(MODULES) >= 10
