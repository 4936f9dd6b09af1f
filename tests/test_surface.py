"""The names that code outside the package reaches for: the benchmark's
tracer and worker, and the demos.  A deleted or renamed name fails here
instead of in a benchmark run or a demo.  Also the package's promise that
its checks still run under ``python -O``."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eonoise.cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = sorted((ROOT / "src" / "eonoise").glob("*.py"))


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr", _load_tracer().TARGETS)
def test_tracer_targets_resolve(module, attr):
    obj = importlib.import_module(f"eonoise.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


@pytest.mark.parametrize("name", ["PRESETS", "SWEEP_COLUMNS", "DATASET_COLUMNS", "main"])
def test_cli_names_the_worker_reads(name):
    assert hasattr(eonoise.cli, name)


def test_all_names_resolve():
    for name in eonoise.__all__:
        assert hasattr(eonoise, name), name


def test_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert not list(tmpdir.iterdir()), "the demo left files in its temp dir"


def test_package_sources_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_no_bare_assert_in_package(source):
    # python -O strips assert statements, so an invariant must raise instead
    tree = ast.parse(source.read_text(), filename=str(source))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{source.name}: assert on lines {lines}"
