"""Public surface: exported names, the README entry points, shipped MI
tables and the module attributes the benchmark traces. Guards deletions
from breaking callers outside the package."""

import ast
import glob
import importlib
import importlib.util
import os
import re
import subprocess
import sys

import pytest

from hybridldpc import construction, density_evolution, optimization, simulation
from hybridldpc.ensembles import Ensemble, fixture_path
from hybridldpc.groups import MAX_ORDER, validate_order

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ["hybridldpc", "hybridldpc.channel", "hybridldpc.cli",
           "hybridldpc.codec", "hybridldpc.construction",
           "hybridldpc.density_evolution", "hybridldpc.ensembles",
           "hybridldpc.groups", "hybridldpc.optimization",
           "hybridldpc.simulation"]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", ()) if not hasattr(mod, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_readme_entry_points_import():
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    section = text.split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_every_valid_order_has_a_shipped_table():
    orders = [q for q in range(2, MAX_ORDER + 1) if not q & (q - 1)]
    assert [validate_order(q) for q in orders] == orders
    for q in orders:
        path = os.path.join(density_evolution._table_dir(), f"jc_q{q}.json")
        assert os.path.exists(path), path


def test_missing_table_is_an_error_naming_the_script(tmp_path, monkeypatch):
    density_evolution.get_table.cache_clear()
    monkeypatch.setattr(density_evolution, "_table_dir", lambda: str(tmp_path))
    with pytest.raises(FileNotFoundError, match=r"order 16 .*scripts/build_tables\.py"):
        density_evolution.get_table(16)
    assert not os.listdir(tmp_path)


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(ROOT, "perfbench", f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_targets_exist():
    worker = load_perfbench("worker")
    for owner, attr, _name, _note in worker.traced_targets():
        assert hasattr(owner, attr), f"{owner.__name__}.{attr}"
    assert hasattr(density_evolution.clamp_stats, "count")
    assert callable(density_evolution.get_table)


def test_benchmark_trace_targets_are_called(tmp_path):
    # a scaled-down pipeline through every traced layer: a target that
    # exists but is no longer called would read 0 in the benchmark. The
    # tracer patches the package's modules, so calls go through them.
    # About 3 s, most of it the J_v families the cleared memo rebuilds.
    targets = load_perfbench("worker").traced_targets()
    tracer = load_perfbench("spans").Tracer()
    density_evolution.get_table.cache_clear()
    density_evolution._family.cache_clear()
    tracer.install(targets)
    try:
        ens = Ensemble.load(fixture_path("r12_hybrid_g8g2"))
        density_evolution.threshold_search(ens, tol_db=0.5)
        try:   # an infeasible LP has still called linprog
            optimization.optimize_gamma(2, 3, [8, 16, 256], 1.4538, rate_eq=1 / 6,
                                        grid=optimization.ConstraintGrid(points=8))
        except optimization.OptimizationError:
            pass
        small = Ensemble.from_factored([2, 8], {2: 0.5, 3: 0.5}, {6: 1.0},
                                       {2: {8: 1.0}, 3: {2: 1.0}})
        path = str(tmp_path / "code.alist")
        construction.save_code(construction.build_code(small, 240, seed=1), path)
        code = construction.load_code(path)
        simulation.run_point(code, 2.0, code.rate(), simulation.CampaignConfig(
            max_iter=5, max_frames=2, chunk_frames=2, random_codewords=True))
    finally:
        tracer.uninstall()
    called = {span[0] for span in tracer.finished()}
    assert [name for _o, _a, name, _n in targets if name not in called] == []


def test_pipeline_imports_leave_scipy_unloaded():
    # encoding, decoding, construction and campaigns never pay for scipy;
    # the first J_c table loads it
    script = (
        "import sys\n"
        "import hybridldpc.cli, hybridldpc.codec, hybridldpc.construction\n"
        "import hybridldpc.simulation, hybridldpc.density_evolution, hybridldpc.optimization\n"
        "assert 'scipy' not in sys.modules\n"
        "print(hybridldpc.density_evolution.jc(1.0, 8).hex())\n"
        "assert 'scipy' in sys.modules\n"
    )
    path = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float.fromhex(proc.stdout.strip()) == density_evolution.jc(1.0, 8)


def _parsed(pattern: str) -> list[tuple[str, ast.Module]]:
    paths = sorted(glob.glob(os.path.join(ROOT, pattern), recursive=True))
    out = []
    for path in paths:
        with open(path) as fh:
            out.append((path, ast.parse(fh.read(), path)))
    return out


def test_src_holds_only_what_the_pipeline_calls():
    # every module-level function and class of the package, and every
    # method but the dunders, is named somewhere in src/, scripts/ or
    # perfbench/ outside its own definition: by a Name, an Attribute or
    # an import, or as an attribute the benchmark traces by its string
    package = _parsed("src/hybridldpc/*.py")
    callers = package + _parsed("scripts/**/*.py") + _parsed("perfbench/**/*.py")
    uses = []           # (path, line, name)
    for path, tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((path, node.lineno, node.attr))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                uses += [(path, node.lineno, a.name.rsplit(".", 1)[-1]) for a in node.names]
    traced = {attr for _o, attr, _n, _note in load_perfbench("worker").traced_targets()}
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = []
    for path, tree in package:
        defs = [d for d in tree.body if isinstance(d, kinds)]
        defs += [m for d in defs if isinstance(d, ast.ClassDef) for m in d.body
                 if isinstance(m, kinds) and not m.name.startswith("__")]
        for d in defs:
            if d.name in traced:
                continue
            if not any(name == d.name and not (upath == path and d.lineno <= line <= d.end_lineno)
                       for upath, line, name in uses):
                unused.append(f"{os.path.relpath(path, ROOT)}:{d.lineno} {d.name}")
    assert unused == []
