"""The names that code outside the package reaches for: the benchmark's
tracer and worker, the demos and the README's quick start, sweep config
and output columns.  A deleted or renamed name fails here instead of in a
benchmark run, a demo or a reader's terminal, and a command line in the
README that the parser no longer accepts fails here too.  The public ``__all__`` holds only
names something uses: the CLI, a demo, the README or the benchmark worker,
or, for an exception, the package itself by raising it.  Also the package's
promise that its checks still run under ``python -O``, that each module
imports only names it uses, and that every top-level name has a reader."""

import ast
import importlib
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import eonoise.cli
import eonoise.errors
import lp_oracle
from eonoise import sample_records, write_records_csv
from eonoise.programs import build_corrupted_program
from support import fig1_top_left, load_perfbench

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = sorted((ROOT / "src" / "eonoise").glob("*.py"))
#: Where a public name must appear to earn its place in ``__all__``.
USERS = [ROOT / "src" / "eonoise" / "cli.py", *DEMOS, ROOT / "README.md",
         ROOT / "perfbench" / "worker.py"]
EXCEPTIONS = [name for name in eonoise.__all__
              if isinstance(getattr(eonoise, name), type)
              and issubclass(getattr(eonoise, name), BaseException)]


WORKER, TRACING = load_perfbench("worker"), load_perfbench("tracer")


@pytest.mark.parametrize("module, attr", TRACING.TARGETS)
def test_tracer_targets_resolve(module, attr):
    obj = importlib.import_module(f"eonoise.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


@pytest.mark.parametrize("workload", ["sweep-presets", "dataset-1e6", "derive-single"])
def test_traced_pass_makes_the_expected_calls(workload, tmp_path):
    # the call counts a traced benchmark run checks, and the pinned seed-0
    # digests of its outputs (the sweep's, the dataset's records CSV and
    # output, and the derived predictors), here on one seed-0 pass
    WORKER.SETUPS[workload](eonoise, tmp_path, 0)
    work_pass = WORKER.PASSES[workload](eonoise, tmp_path, 0)
    tracer = TRACING.Tracer()
    tracer.pass_id = 0
    tracer.install()
    try:
        ops = work_pass.run(time.perf_counter)
    finally:
        tracer.uninstall()
    assert all(ok for _, _, ok in ops)
    digests = dict(zip(work_pass.ops, work_pass.digests()))
    if workload == "dataset-1e6":
        digests["records.csv"] = WORKER.sha256_file(WORKER.dataset_paths(tmp_path)[0])
    assert digests == WORKER.expected_digests(workload, 0)
    stats = tracer.per_pass()[0]
    for name, want in WORKER.EXPECTED_CALLS[workload].items():
        assert stats[name] == want, name
    if workload == "derive-single":
        # derive_predictor's programs: every input has a spec, a zero one included
        programs = [build_corrupted_program(inst, spec) for inst, spec in work_pass.pairs]
        tied = sum(lp_oracle.solve_with_ties(program)[1] > 1 for program in programs)
        assert stats[TRACING.TIED_SOLVES] == tied
        assert stats["programs.build_corrupted_joint.calls"] == len(work_pass.pairs)
        assert stats["programs.build_clean_program.calls"] == 0


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


def test_errors_module_defines_exactly_the_exported_exceptions():
    # each class once, under its own name: no alias of a merged class
    defined = {name: obj.__name__ for name, obj in vars(eonoise.errors).items()
               if isinstance(obj, type) and obj.__module__ == eonoise.errors.__name__}
    assert sorted(defined) == sorted(EXCEPTIONS)
    assert all(name == own for name, own in defined.items())


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


def _readme_blocks(language) -> list[str]:
    """The text of every README code block fenced as ``language``."""
    text = (ROOT / "README.md").read_text()
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.MULTILINE | re.DOTALL)


def test_readme_quick_start_runs(capsys):
    blocks = _readme_blocks("python")
    assert blocks, "README.md has no python block"
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_sweep_config_runs(tmp_path):
    (block,) = _readme_blocks("ini")
    path = tmp_path / "sweep.cfg"
    path.write_text(block)
    assert len(eonoise.cli.run_sweep(eonoise.cli.load_sweep_config(path))) == 11


def test_readme_output_columns_are_the_cli_columns():
    # each block is one CSV header, wrapped at commas
    sweep, dataset = (tuple("".join(block.split()).split(",")) for block in _readme_blocks("csv"))
    assert sweep == eonoise.cli.SWEEP_COLUMNS
    assert dataset == eonoise.cli.DATASET_COLUMNS


def _readme_commands() -> list[list[str]]:
    """The arguments of every ``eonoise ...`` line in the README's sh blocks,
    with continuation lines joined and comments dropped."""
    commands = []
    for block in _readme_blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["eonoise"]:
                commands.append(words[1:])
    return commands


README_COMMANDS = _readme_commands()


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in README_COMMANDS} == {
        "sweep", "dataset", "bound", "reproduce-lemma1", "estimate"}


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_parses(argv, capsys):
    try:
        eonoise.cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README's 'eonoise {shlex.join(argv)}' does not parse: "
                    f"{capsys.readouterr().err}")


def test_only_lp_names_solve_with_ties():
    # every other module solves through lp.solve, the one solver entry point
    users = [source.name for source in SOURCES if source.name != "lp.py"
             and re.search(r"\bsolve_with_ties\b", source.read_text())]
    assert not users, f"{users} name solve_with_ties; call lp.solve instead"


def _program_builders(tree) -> set:
    """The top-level definitions of a module's syntax tree that call
    ``EoProgram(...)`` or ``<module>.EoProgram(...)``; None for a call at
    module level."""
    return {getattr(top, "name", None) for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Call) and "EoProgram" in (getattr(node.func, "id", None),
                                                               getattr(node.func, "attr", None))}


def test_only_the_joint_reader_and_the_grid_build_programs():
    # one path from a joint to the LP: programs._joint_program reads every
    # scalar program off its joint, and grid_programs is its array twin
    assert _program_builders(ast.parse("def f():\n    lp.EoProgram(o, r)")) == {"f"}
    assert _program_builders(ast.parse("EoProgram(o, r)")) == {None}
    builders = {(source.name, name) for source in SOURCES
                for name in _program_builders(ast.parse(source.read_text()))}
    assert builders == {("programs.py", "_joint_program"), ("programs.py", "grid_programs")}, \
        "build a program with programs._joint_program, not EoProgram(...)"


def _names(tree, name):
    """Whether a module's syntax tree reads, imports or looks up ``name``."""
    return any(getattr(node, "id", None) == name or getattr(node, "attr", None) == name
               or (isinstance(node, ast.alias) and name in (node.name, node.asname))
               for node in ast.walk(tree))


def test_only_lp_names_the_snapped_predictor_builder():
    # the builder skips DerivedPredictor's snap, so only the solver, whose
    # points are their own snap, may call it
    assert _names(ast.parse("from .model import _snapped_predictor"), "_snapped_predictor")
    assert _names(ast.parse("model._snapped_predictor(p)"), "_snapped_predictor")
    users = [source.name for source in SOURCES if source.name != "lp.py"
             and _names(ast.parse(source.read_text()), "_snapped_predictor")]
    assert not users, f"{users} name _snapped_predictor; build DerivedPredictor(p) instead"


#: Where a top-level name may be read from outside ``src/``; tests do not count.
OUTSIDE_READERS = [*DEMOS, ROOT / "README.md",
                   *(path for path in sorted((ROOT / "perfbench").rglob("*")) if path.is_file())]


def _own_names(node) -> set[str]:
    """The names a top-level statement defines: a function, a class or the
    targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {name.id for target in targets if target for name in ast.walk(target)
            if isinstance(name, ast.Name)}


def _unread_names(sources: dict[str, str]) -> list[str]:
    """``module: name`` for each top-level function, class or constant of the
    package sources (file name to text) that nothing reads: no load or
    attribute in the package outside its own definition, no import by a
    module other than ``__init__.py``, and no mention in ``OUTSIDE_READERS``."""
    defined, read = [], set()
    for module, text in sources.items():
        for node in ast.parse(text).body:
            own = _own_names(node)
            defined += [(module, name) for name in sorted(own - {"__all__", "__version__"})]
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id not in own:
                    read.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    read.add(sub.attr)
                elif isinstance(sub, ast.alias) and module != "__init__.py":
                    read.add(sub.name)
    outside = "\n".join(path.read_text(errors="replace") for path in OUTSIDE_READERS)
    return [f"{module}: {name}" for module, name in defined
            if name not in read and not re.search(rf"\b{re.escape(name)}\b", outside)]


def test_every_top_level_name_has_a_reader():
    sources = {source.name: source.read_text() for source in SOURCES}
    # a planted constant and a function that only calls itself are flagged
    planted = {**sources, "metrics.py": sources["metrics.py"]
               + "\nUNREAD_TOL = 1e-12\n\ndef _unread(n):\n    return _unread(n - 1)\n"}
    assert _unread_names(planted) == ["metrics.py: UNREAD_TOL", "metrics.py: _unread"]
    assert _unread_names(sources) == []


def test_package_sources_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_no_bare_assert_in_package(source):
    # python -O strips assert statements, so an invariant must raise instead
    tree = ast.parse(source.read_text(), filename=str(source))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{source.name}: assert on lines {lines}"


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_no_unused_import_in_package(source):
    # an imported name is used where the module loads it or exports it in __all__
    tree = ast.parse(source.read_text(), filename=str(source))
    imported = {(alias.asname or alias.name).split(".")[0]: node.lineno
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, f"{source.name}: unused imports (line, name) {unused}"


#: Run under ``python -O``: each fault check of the command line, reached by
#: a patched solver, must still exit 4.  Prints the three exit codes.
_OPTIMIZED_RUN = """
import math, sys
from eonoise import GIVEN_PREDICTOR_P, DerivedPredictor, cli
if sys.flags.optimize != 1:
    raise SystemExit(f"sys.flags.optimize is {sys.flags.optimize}, not 1")
config, records, out = sys.argv[1:]
sweep = ["sweep", "--config", config, "--out", out]
unfair, tol = (lambda program, start=None: DerivedPredictor((1.0, 0.0, 0.0, 0.0))), cli.RESIDUAL_TOL
cli.solve = unfair
codes = [cli.main(sweep)]
cli.solve, cli.RESIDUAL_TOL = (lambda program, start=None: DerivedPredictor(GIVEN_PREDICTOR_P)), math.inf
codes.append(cli.main(sweep))
cli.solve, cli.RESIDUAL_TOL = unfair, tol
codes.append(cli.main(["dataset", records, "--scenario", "independent-flip",
                       "--grid", "0:0.2:0.1", "--out", out]))
print(codes)
"""


def test_fault_checks_exit_4_under_python_O(tmp_path):
    config = tmp_path / "sweep.cfg"
    config.write_text("preset = fig1-top-left\ngrid_start = 0\ngrid_stop = 0.5\ngrid_step = 0.25\n")
    records = tmp_path / "records.csv"
    write_records_csv(records, sample_records(fig1_top_left(), 2000, seed=39))
    out = tmp_path / "out.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-O", "-c", _OPTIMIZED_RUN, str(config), str(records),
                           str(out)], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[4, 4, 4]\n"
    infeasible, bound, dataset = done.stderr.splitlines()
    assert infeasible.startswith("internal error: at gamma10 = 0, the solver's p")
    assert bound.startswith("internal error: at gamma10 = 0, the label +1 bias")
    assert dataset.startswith("internal error: at the true attribute, the solver's p")
    assert not out.exists()
