"""Public surface: exported names, the README entry points, shipped MI
tables and the module attributes the benchmark traces. Guards deletions
from breaking callers outside the package."""

import importlib
import importlib.util
import os
import re
import subprocess
import sys

import pytest

from hybridldpc import density_evolution
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
    monkeypatch.setattr(density_evolution, "_tables", {})
    monkeypatch.setattr(density_evolution, "_table_dir", lambda: str(tmp_path))
    with pytest.raises(FileNotFoundError, match=r"order 16 .*scripts/build_tables\.py"):
        density_evolution.get_table(16)
    assert not os.listdir(tmp_path)


def test_benchmark_trace_targets_exist():
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", os.path.join(ROOT, "perfbench", "worker.py"))
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    for owner, attr, _name, _note in worker.traced_targets():
        assert hasattr(owner, attr), f"{owner.__name__}.{attr}"
    assert hasattr(density_evolution.clamp_stats, "count")
    assert callable(density_evolution.get_table)


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
