"""The names that code outside the package reaches for: the benchmark's
tracer and worker, and the demos.  A deleted or renamed name fails here
instead of in a benchmark run or a demo.  The public ``__all__`` holds only
names something uses: the CLI, a demo, the README or the benchmark worker,
or, for an exception, the package itself by raising it.  Also the package's
promise that its checks still run under ``python -O``."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import eonoise.cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = sorted((ROOT / "src" / "eonoise").glob("*.py"))
#: Where a public name must appear to earn its place in ``__all__``.
USERS = [ROOT / "src" / "eonoise" / "cli.py", *DEMOS, ROOT / "README.md",
         ROOT / "perfbench" / "worker.py"]
EXCEPTIONS = [name for name in eonoise.__all__
              if isinstance(getattr(eonoise, name), type)
              and issubclass(getattr(eonoise, name), BaseException)]


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


@pytest.mark.parametrize("name", [n for n in eonoise.__all__ if n not in EXCEPTIONS])
def test_public_name_has_a_user(name):
    text = "\n".join(path.read_text() for path in USERS)
    assert re.search(rf"\b{re.escape(name)}\b", text), \
        f"{name} is in __all__ but the CLI, the demos, the README and the worker never use it"


def _raised_names() -> set[str]:
    names = set()
    for source in SOURCES:
        for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


@pytest.mark.parametrize("name", EXCEPTIONS)
def test_public_exception_is_raised(name):
    # a base class counts when one of its subclasses is raised
    raised = [getattr(eonoise, n) for n in _raised_names() if n in EXCEPTIONS]
    assert any(issubclass(cls, getattr(eonoise, name)) for cls in raised), \
        f"{name} is in __all__ but nothing under src/ raises it"


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
