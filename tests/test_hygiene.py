"""Source hygiene: every imported name is used, no module imports another
module's private name, every name the benchmarks read exists, the probe and
optimizer layers add no public function, importing the package loads no
process or thread pool, a run that draws nothing loads neither numpy.random
nor numpy.ma, the package never calls np.median, the package never writes
the environment, only optimizers.run sets the BLAS thread count, only the
oracles build a certificate body, no oracle is a thin wrapper around
another, the analysis never reads eta_t, and only analysis.fill_sustained
stores the sustained series."""

import ast
import importlib
import importlib.util
import inspect
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


# benchmarks/spans.py wraps every public module-level function of a layer
# module, so a public helper called per probe or per step would change what a
# traced run measures; such helpers stay private
PUBLIC_FUNCTIONS = {
    "probes": {"compute_probe", "lambda_grad", "lanczos", "power_iteration"},
    "optimizers": {"run"},
}


@pytest.mark.parametrize("layer", sorted(PUBLIC_FUNCTIONS))
def test_hot_layers_keep_their_public_functions(layer):
    mod = importlib.import_module(f"spikelab.{layer}")
    public = {name for name, fn in vars(mod).items()
              if not name.startswith("_") and inspect.isfunction(fn)
              and fn.__module__ == mod.__name__}
    assert public == PUBLIC_FUNCTIONS[layer]


def _spans():
    spec = importlib.util.spec_from_file_location("spans", BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_tracer_installs_and_uninstalls():
    import spikelab
    from spikelab.objectives import FnnObjective

    run, grad = spikelab.run, FnnObjective.loss_and_gradient
    tracer = _spans().Tracer()
    tracer.install()
    try:
        assert spikelab.run is not run and FnnObjective.loss_and_gradient is not grad
    finally:
        tracer.uninstall()
    assert spikelab.run is run and FnnObjective.loss_and_gradient is grad


def test_traced_thmD4_times_the_five_stage_oracle():
    """A thmD4 run calls the oracle by the name spans.py totals, so its time
    shows under oracles.five_stage_s, not only in oracles.self_s."""
    from spikelab import build_scenario, preset_config, run_scenario

    tracer = _spans().Tracer()
    tracer.install()
    try:
        run_scenario(build_scenario(preset_config("thmD4")))
    finally:
        tracer.uninstall()
    assert tracer.report()["oracles.five_stage_s"] > 0


def test_import_does_not_load_the_process_pool():
    """Only run_sweep needs multiprocessing, and only a wide probed run a
    thread pool, so importing spikelab, which every run pays for, loads
    neither."""
    code = ("import sys, spikelab; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('multiprocessing', 'concurrent'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert out.stdout.strip() == "[]"


def test_a_run_loads_only_the_numpy_it_uses(tmp_path):
    """numpy.random loads on the first random stream and numpy.ma with
    np.median, so a figD9 run written to disk, which draws nothing and
    takes its medians by analysis._trailing_medians, loads neither. Building
    an FNN draws its dataset and initial point, so it loads numpy.random."""
    code = ("import sys, spikelab as sl\n"
            "def loaded():\n"
            "    return sorted(m for m in ('numpy.random', 'numpy.ma') if m in sys.modules)\n"
            "sc = sl.build_scenario({**sl.preset_config('figD9-adagrad'), 'n_steps': 300})\n"
            "result = sl.run_scenario(sc)\n"
            "sl.write_run_dir(result, sys.argv[1])\n"
            "print(result.analysis['n_steps'] > sc.analysis.window, loaded())\n"
            "sl.build_scenario(sl.preset_config('fig6-fnn50d'))\n"
            "print(loaded())\n")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, check=True, env=dict(os.environ, PYTHONPATH=str(SRC.parent)))
    assert out.stdout.splitlines() == ["True []", "['numpy.random']"]
    assert list(tmp_path.glob("*/*/trace.csv"))


def _median_calls(tree):
    """Lines that call np.median or np.nanmedian."""
    return [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr in ("median", "nanmedian")
            and ast.unparse(n.func.value) in ("np", "numpy")]


def test_package_never_calls_np_median():
    """np.median's NaN check loads numpy.ma; the detector's medians come from
    analysis._trailing_medians, bit for bit the same."""
    calls = [f"{p.name}:{line}" for p in MODULES + [SRC / "__init__.py"]
             for line in _median_calls(ast.parse(p.read_text()))]
    assert not calls, calls


def test_median_calls_are_found():
    code = ("m = np.median(rows, axis=1)\n"
            "n = numpy.nanmedian(x)\n"
            "fine = (statistics.median(x), np.partition(rows, 2), 'np.median')\n")
    assert _median_calls(ast.parse(code)) == [1, 2]


ENV_WRITERS = {"putenv", "unsetenv", "__setitem__", "__delitem__", "update", "setdefault",
               "pop", "popitem", "clear"}


def _environ_writes(tree):
    """Lines that set or delete an environment variable of the process."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("putenv", "unsetenv"):
            yield node.lineno
        if not (isinstance(node, ast.Attribute) and node.attr == "environ"
                or isinstance(node, ast.Name) and node.id == "environ"):
            continue
        up = parents.get(node)
        if (isinstance(up, ast.Subscript) and not isinstance(up.ctx, ast.Load)
                or isinstance(up, ast.Attribute) and up.attr in ENV_WRITERS
                or isinstance(up, (ast.Assign, ast.AugAssign)) and node is not up.value):
            yield node.lineno


def test_library_never_writes_the_environment():
    """Thread counts are set through the BLAS's C API (spikelab.blas), never
    through os.environ, which every later child process would inherit."""
    writes = [f"{p.name}:{line}" for p in MODULES + [SRC / "__init__.py"]
              for line in _environ_writes(ast.parse(p.read_text()))]
    assert not writes, writes


@pytest.mark.parametrize("code", [
    "os.environ['X'] = '1'", "del os.environ['X']", "os.environ.update(X='1')",
    "os.environ.setdefault('X', '1')", "os.putenv('X', '1')", "environ['X'] = '1'",
    "os.environ = {}",
])
def test_environment_writes_are_found(code):
    assert list(_environ_writes(ast.parse(code))) == [1]


def test_environment_reads_are_not_writes():
    code = "os.environ.get('X'); dict(os.environ, X='1'); os.environ['X']"
    assert not list(_environ_writes(ast.parse(code)))


def _functions_around(tree, match):
    """The innermost function (or <module>) around each node that `match` accepts."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if not match(node):
            continue
        while node in parents and not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node = parents[node]
        yield getattr(node, "name", "<module>")


def _users(tree, name):
    """The innermost function (or <module>) around each use of `name`, as a
    bare name, an attribute or an imported name."""
    return _functions_around(tree, lambda node: (
        isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.alias) and node.name == name))


def _attribute_writers(tree, attr):
    """The innermost function (or <module>) around each assignment to, or
    deletion of, an attribute named `attr`."""
    return _functions_around(tree, lambda node: (
        isinstance(node, ast.Attribute) and node.attr == attr
        and not isinstance(node.ctx, ast.Load)))


def test_only_run_sets_the_blas_threads():
    """Every run holds OpenBLAS at one thread, so the thread rule lives in
    optimizers.run alone."""
    users = {f"{p.stem}.{user}" for p in MODULES + [SRC / "__init__.py"] if p.name != "blas.py"
             for user in _users(ast.parse(p.read_text()), "set_threads")}
    assert users == {"optimizers.run"}


def test_blas_thread_users_are_found():
    code = ("from .blas import set_threads\n"
            "def f():\n    blas.set_threads(1)\n"
            "def g():\n    def h():\n        stack.callback(set_threads, 2)\n")
    assert sorted(_users(ast.parse(code), "set_threads")) == ["<module>", "f", "h"]


def _eta_t_reads(tree):
    """Lines that read a name or an attribute called eta_t."""
    return [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr == "eta_t"
            or isinstance(n, ast.Name) and n.id == "eta_t"]


def test_analysis_never_reads_eta_t():
    """Each probe row stores its 2/eta_t as threshold, so every crossing
    compares with that and the threshold is stated once, by the probe."""
    assert not _eta_t_reads(ast.parse((SRC / "analysis.py").read_text()))


def test_eta_t_reads_are_found():
    code = ("thr = 2.0 / trace.eta_t[steps]\n"
            "eta = eta_t\n"
            "fine = (trace.eta, trace.threshold, 'eta_t')\n")
    assert sorted(_eta_t_reads(ast.parse(code))) == [1, 2]


def test_only_fill_sustained_stores_the_sustained_series():
    """RunTrace.sustained holds values whose rows RunTrace.sustained_rows
    states, so only the one function that lays them out that way stores them."""
    writers = {f"{p.stem}.{w}" for p in MODULES + [SRC / "__init__.py"]
               for w in _attribute_writers(ast.parse(p.read_text()), "sustained")}
    assert writers == {"analysis.fill_sustained"}


def test_sustained_writers_are_found():
    code = ("trace.sustained = vals\n"
            "def f(t):\n    t.stage, t.sustained = a, b\n"
            "def g(t):\n    t.sustained += 1\n"
            "def h(t):\n    del t.sustained\n"
            "def reads(t, sustained):\n    return t.sustained[1:], sustained\n"
            "class T:\n    sustained: tuple = ()\n")
    assert sorted(_attribute_writers(ast.parse(code), "sustained")) == [
        "<module>", "f", "g", "h"]


# === one entry per oracle ===================================================


def _twins(tree):
    """Public functions whose body, past a docstring, is one `return` of a
    call to another function of the same module, or of an index into one."""
    defined = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
            continue
        body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
        if len(body) != 1 or not isinstance(body[0], ast.Return):
            continue
        value = body[0].value
        if isinstance(value, ast.Subscript):
            value = value.value
        if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in defined and value.func.id != fn.name):
            yield fn.name


def test_no_oracle_is_a_twin_of_another():
    """Each oracle has one public entry; a body-only wrapper around another
    oracle would state its result twice and hide its time from spans.py."""
    assert not list(_twins(ast.parse((SRC / "oracles.py").read_text())))


def test_oracle_twins_are_found():
    code = ('def full(x):\n    return x, x\n'
            'def body(x):\n    """Only the first."""\n    return full(x)[0]\n'
            'def alias(x):\n    return full(x)\n'
            'def outside(x):\n    return max(x)\n'
            'def _private(x):\n    return full(x)\n'
            'def longer(x):\n    y = full(x)\n    return y\n')
    assert list(_twins(ast.parse(code))) == ["body", "alias"]


# === one refusal path per theorem ===========================================

HYPOTHESIS_SKIP = "SKIPPED (hypothesis)"


def _skip_constants(tree):
    """Lines of every string constant that is exactly the hypothesis verdict."""
    return [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Constant) and n.value == HYPOTHESIS_SKIP]


def test_only_oracles_holds_the_hypothesis_verdict():
    """The oracles build every SKIPPED (hypothesis) body, so no wrapper that
    catches a refusal and builds a second one can come back."""
    found = [f"{p.name}:{line}" for p in MODULES + [SRC / "__init__.py"]
             if p.name != "oracles.py"
             for line in _skip_constants(ast.parse(p.read_text()))]
    assert not found, found
    assert _skip_constants(ast.parse((SRC / "oracles.py").read_text()))


def _theorem_keys(tree):
    """Lines of every dict literal or dict(...) call with a "theorem" key."""
    return [n.lineno for n in ast.walk(tree)
            if isinstance(n, ast.Dict) and any(
                isinstance(k, ast.Constant) and k.value == "theorem" for k in n.keys)
            or isinstance(n, ast.Call) and any(k.arg == "theorem" for k in n.keywords)]


def test_only_oracles_builds_a_certificate_body():
    """Every certificate.json body comes from its oracle; the command line
    and the harness add params at most."""
    found = [f"{p.name}:{line}" for p in MODULES + [SRC / "__init__.py"]
             if p.name != "oracles.py"
             for line in _theorem_keys(ast.parse(p.read_text()))]
    assert not found, found
    assert _theorem_keys(ast.parse((SRC / "oracles.py").read_text()))


def test_theorem_keys_are_found():
    code = ('body = {"theorem": "x", "verdict": "PASS"}\n'
            'other = dict(theorem="x")\n'
            'fine = {"theorem_note": 1, "verdict": "PASS"}\n'
            'cert["theorem"]\n')
    assert _theorem_keys(ast.parse(code)) == [1, 2]


def test_hypothesis_verdict_constants_are_found():
    code = ('body = {"verdict": "SKIPPED (hypothesis)"}\n'
            '"""A docstring may name SKIPPED (hypothesis)."""\n'
            'ok = not verdict.startswith("SKIPPED")\n')
    assert _skip_constants(ast.parse(code)) == [1]
