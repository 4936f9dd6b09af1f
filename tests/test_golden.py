"""Outputs checked against the digests the benchmark pins in
perfbench/expected/: the 24 preset sweeps on the benchmark grid, and, for
seeds 0 and 1, the 1e6-row record CSV, the ``eonoise dataset`` run on it,
and the 10,000 derived predictors of the derive workload.  The inputs and
the passes are read from perfbench/worker.py, so the two cannot drift
apart."""

import hashlib
import importlib.util
import sys
import time
from pathlib import Path

import pytest

import eonoise
from eonoise.cli import PRESETS, main

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_worker():
    # worker.py imports its sibling modules by their bare names
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_worker", BENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


WORKER = _load_worker()


def _expected(name):
    text = (BENCH / "expected" / name).read_text()
    return dict(line.split() for line in text.splitlines() if line)


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


SWEEP_DIGESTS = _expected("sweep-presets.txt")


def test_every_preset_has_a_pinned_sweep_digest():
    assert sorted(SWEEP_DIGESTS) == sorted(PRESETS)


@pytest.mark.parametrize("name", PRESETS)
def test_preset_sweep_matches_pinned_digest(tmp_path, name):
    start, stop, step = WORKER.SWEEP_GRID
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "sweep.csv"
    cfg.write_text(f"preset = {name}\ngrid_start = {start}\n"
                   f"grid_stop = {stop}\ngrid_step = {step}\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert _sha256(out) == SWEEP_DIGESTS[name]


@pytest.mark.parametrize("seed", [0, 1])
def test_dataset_matches_pinned_digests(tmp_path, seed):
    expected = _expected(f"dataset-1e6-seed{seed}.txt")
    inst = eonoise.ProblemInstance(**WORKER.DATASET_INSTANCE)
    records = eonoise.sample_records(inst, WORKER.DATASET_ROWS, seed, with_scores=True)
    path, _ = WORKER.dataset_paths(tmp_path)
    eonoise.write_records_csv(path, records)
    assert _sha256(path) == expected["records.csv"]

    work_pass = WORKER.DatasetPass(eonoise, tmp_path, seed)
    assert all(ok for _, _, ok in work_pass.run(time.perf_counter))
    assert work_pass.digests() == [expected["dataset"]]


@pytest.mark.parametrize("seed", [0, 1])
def test_derive_single_matches_pinned_digests(tmp_path, seed):
    work_pass = WORKER.DerivePass(eonoise, tmp_path, seed)
    assert all(ok for _, _, ok in work_pass.run(time.perf_counter))
    digests = dict(zip(work_pass.ops, work_pass.digests()))
    assert digests == _expected(f"derive-single-seed{seed}.txt")
