"""Source hygiene: every imported name is used, no module imports another
module's private name, every name the benchmarks read exists, and importing
the package loads no process pool."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
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


def test_norms_go_through_one_helper():
    """Every Euclidean norm goes through params.norm, so a change of its
    summation order reaches them all; oracles.py keeps numpy's as a reference."""
    calls = [f"{p.name}:{n.lineno}" for p in MODULES if p.name != "oracles.py"
             for n in ast.walk(ast.parse(p.read_text()))
             if isinstance(n, ast.Attribute) and n.attr == "norm"
             and ast.unparse(n.value) in ("np.linalg", "numpy.linalg", "linalg")]
    assert not calls, calls


# === names the benchmarks read ==============================================

BENCH = SRC.parent.parent / "benchmarks"


def _sl_chain(node):
    """The dotted path after sl in an attribute chain sl.a.b..., else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return ".".join(reversed(names)) if isinstance(node, ast.Name) and node.id == "sl" else None


def _resolves(obj, dotted):
    for name in dotted.split("."):
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_benchmarks_read_only_names_spikelab_has():
    """Every sl.<name>, with the attributes chained on it (sl.A.b), and every
    `from spikelab... import` in benchmarks/ exists, so deleting a name they
    use fails here, not only in a traced run."""
    missing = []
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _sl_chain(node):
                module, names = "spikelab", [_sl_chain(node)]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spikelab"):
                module, names = node.module, [a.name for a in node.names]
            else:
                continue
            missing += [f"{path.name}:{node.lineno}: {module}.{name}" for name in names
                        if not _resolves(importlib.import_module(module), name)]
    assert not missing, "\n".join(missing)


def test_chained_benchmark_names_are_resolved():
    chain = ast.parse("sl.Preconditioner.for_adam(1)").body[0].value.func
    assert _sl_chain(chain) == "Preconditioner.for_adam"
    assert _sl_chain(chain.value) == "Preconditioner"
    assert _sl_chain(ast.parse("sc.hyper.eta").body[0].value) is None
    import spikelab
    assert _resolves(spikelab, "Preconditioner.for_adam")
    assert not _resolves(spikelab, "Preconditioner.for_adamw")


def test_benchmark_tracer_installs_and_uninstalls():
    import spikelab
    from spikelab.objectives import FnnObjective

    spec = importlib.util.spec_from_file_location("spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    run, grad = spikelab.run, FnnObjective.loss_and_gradient
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert spikelab.run is not run and FnnObjective.loss_and_gradient is not grad
    finally:
        tracer.uninstall()
    assert spikelab.run is run and FnnObjective.loss_and_gradient is grad


def test_import_does_not_load_the_process_pool():
    """Only run_sweep needs multiprocessing, so importing spikelab, which
    every run pays for, does not load it."""
    code = ("import sys, spikelab; "
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert out.stdout.strip() == "[]"
