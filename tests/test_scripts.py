"""The maintenance scripts: table rebuilds and the FER campaign's code cache."""

import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

from hybridldpc.construction import built_length
from hybridldpc.density_evolution import JTable, get_table
from hybridldpc.ensembles import Ensemble, fixture_path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(ROOT, "scripts", f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def shifted(tab: JTable, delta: float) -> JTable:
    return JTable(tab.order, tab.grid_m, tab.grid_i + delta, tab.n_samples, tab.seed)


def test_build_tables_keeps_file_on_rounding_only_rebuild(tmp_path):
    mod = load_script("build_tables")
    tab = get_table(2)
    path = str(tmp_path / "jc_q2.json")
    assert mod.write_table(tab, path) == f"wrote {path}"
    with open(path) as fh:
        saved = fh.read()
    msg = mod.write_table(shifted(tab, 6e-16), path)
    assert "rounding only; kept" in msg
    with open(path) as fh:
        assert fh.read() == saved
    msg = mod.write_table(shifted(tab, 1e-9), path)
    assert msg.startswith("max |change| 1.0e-09; wrote")
    assert np.array_equal(JTable.load(path).grid_i, tab.grid_i + 1e-9)


@pytest.mark.parametrize("q", [2, 4])
def test_full_size_table_build_reproduces_shipped_table(q):
    # full-size builds of the orders whose blocks are transposed
    mod = load_script("build_tables")
    assert mod.table_change(get_table(q), JTable.build(q)) <= mod.ROUNDING_ONLY


def test_fer_codes_are_named_after_the_built_length(tmp_path, monkeypatch):
    mod = load_script("fer_comparison")
    monkeypatch.setattr(mod, "log", lambda msg: None)
    # GF(8) has no 1024-bit code; the length rule builds 1020 bits
    code = mod.get_code("r12_gf8_regular36", 1024, 1, str(tmp_path))
    assert code.n_bits == 1020
    assert os.listdir(tmp_path) == ["r12_gf8_regular36_1020.alist"]

    def no_build(*args, **kwargs):
        raise AssertionError("a cached code was rebuilt")

    monkeypatch.setattr(mod, "build_code", no_build)
    again = mod.get_code("r12_gf8_regular36", 1024, 1, str(tmp_path))
    assert np.array_equal(again.edge_col, code.edge_col)


@pytest.mark.parametrize("name", ["r16_gf256_regular", "r16_hybrid_g256g16g8"])
def test_shipped_campaign_codes_resolve(name):
    # scripts/fer_comparison.py asks for 6144 bits on the r16 set
    assert built_length(Ensemble.load(fixture_path(name)), 6144) == 6144
    assert os.path.exists(os.path.join(ROOT, "fer_results", "codes", f"{name}_6144.alist"))


@pytest.mark.parametrize("flag, value", [
    ("--chunk-frames", "0"), ("--workers", "0"), ("--max-iter", "0"), ("--max-frames", "0"),
    ("--min-frame-errors", "0"), ("--seed", "-1")])
def test_fer_campaign_arguments_fail_before_any_build(flag, value, tmp_path, monkeypatch,
                                                      capsys):
    # a count below one or a negative seed is a usage error while parsing,
    # before the 6144-bit codes are built or loaded
    mod = load_script("fer_comparison")

    def no_code(*args, **kwargs):
        raise AssertionError("a code was built or loaded")

    monkeypatch.setattr(mod, "get_code", no_code)
    out_dir = str(tmp_path / "out")
    monkeypatch.setattr(sys, "argv", ["fer_comparison.py", "--out-dir", out_dir, flag, value])
    with pytest.raises(SystemExit) as exc:
        mod.main()
    assert exc.value.code == 2
    assert f"argument {flag}: '{value}'" in capsys.readouterr().err
    assert not os.path.exists(out_dir)


@pytest.mark.parametrize("name", ["build_tables", "fer_comparison", "optimize_designs"])
def test_scripts_run_from_an_uninstalled_checkout(name, tmp_path):
    # each script puts the checkout's src/ on the path itself
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    res = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", f"{name}.py"),
                          "--help"], cwd=tmp_path, env=env, capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
