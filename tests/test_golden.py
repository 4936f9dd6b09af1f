"""Outputs checked against the digests the benchmark pins in
perfbench/expected/: each of the 24 preset sweeps on the benchmark grid,
and, for seed 1, the 1e6-row record CSV, the ``eonoise dataset`` run on it,
and the 10,000 derived predictors of the derive workload.  Seed 0's are
checked on the traced passes of test_surface.py.  The inputs and the passes
are read from perfbench/worker.py, so the two cannot drift apart."""

import time

import pytest

import eonoise
from eonoise.cli import PRESETS, main
from support import load_perfbench

WORKER = load_perfbench("worker")
SEED = 1


SWEEP_DIGESTS = WORKER.expected_digests("sweep-presets", SEED)


def test_every_preset_has_a_pinned_sweep_digest():
    assert sorted(SWEEP_DIGESTS) == sorted(PRESETS)


@pytest.mark.parametrize("name", PRESETS)
def test_preset_sweep_matches_pinned_digest(tmp_path, name):
    start, stop, step = WORKER.SWEEP_GRID
    cfg, out = tmp_path / "sweep.cfg", tmp_path / "sweep.csv"
    cfg.write_text(f"preset = {name}\ngrid_start = {start}\n"
                   f"grid_stop = {stop}\ngrid_step = {step}\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert WORKER.sha256_file(out) == SWEEP_DIGESTS[name]


def test_dataset_matches_pinned_digests(tmp_path):
    expected = WORKER.expected_digests("dataset-1e6", SEED)
    inst = eonoise.ProblemInstance(**WORKER.DATASET_INSTANCE)
    records = eonoise.sample_records(inst, WORKER.DATASET_ROWS, SEED, with_scores=True)
    path, _ = WORKER.dataset_paths(tmp_path)
    eonoise.write_records_csv(path, records)
    assert WORKER.sha256_file(path) == expected["records.csv"]

    work_pass = WORKER.DatasetPass(eonoise, tmp_path, SEED)
    assert all(ok for _, _, ok in work_pass.run(time.perf_counter))
    assert work_pass.digests() == [expected["dataset"]]


def test_derive_single_matches_pinned_digests(tmp_path):
    work_pass = WORKER.DerivePass(eonoise, tmp_path, SEED)
    assert all(ok for _, _, ok in work_pass.run(time.perf_counter))
    digests = dict(zip(work_pass.ops, work_pass.digests()))
    assert digests == WORKER.expected_digests("derive-single", SEED)
