"""Set-up and measured passes of one workload, run in a child process.

``run.py`` starts this file in two modes: ``setup`` (several times) to make
the inputs and time that, and ``passes`` once to time the workload itself.
Each writes one JSON result file.  eonoise is imported from the checkout's
``src`` directory only; the program sees nothing but the generated inputs.

    python3 perfbench/worker.py setup  --workload W --seed N --work DIR --result FILE
    python3 perfbench/worker.py passes --workload W --seed N --work DIR --result FILE
                                       --seconds S --trace 0|1 --spans FILE

While anything is timed, a ``SpeedSampler`` (see reference.py) samples the
core's speed; each result carries the seconds together with the factor that
scales them to a core of fixed speed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import sys
import time
from pathlib import Path

from reference import SpeedSampler
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
EXPECTED_DIR = BENCH_DIR / "expected"

SWEEP_GRID = ("0.0", "0.5", "0.001")
DATASET_ROWS = 1_000_000
DATASET_GRID = "0:0.5:0.05"
DATASET_LEVELS = 11
DERIVE_CALLS = 10_000

#: Exact per-pass call counts the traced run asserts, so that a binding the
#: wrappers miss fails loudly instead of reading as zero time.
EXPECTED_CALLS = {
    "sweep-presets": {"lp.solve_with_ties.calls": 12_048, "cli.load_sweep_config.calls": 24},
    "dataset-1e6": {"lp.solve.calls": 12, "perturb.apply_scenario.calls": 11,
                    "records.evaluate_predictor_on_records.calls": 13},
    "derive-single": {"programs.derive_predictor.calls": DERIVE_CALLS},
}


def sha256_file(path) -> str:
    """Hex sha256 of a file's bytes; "missing" when there is no such file."""
    if not Path(path).exists():
        return "missing"
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def import_eonoise():
    """Import the package from the checkout and return (module, seconds)."""
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import eonoise
    import eonoise.cli
    elapsed = time.perf_counter() - t0
    origin = Path(eonoise.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise RuntimeError(f"eonoise imported from {origin}, not from this checkout")
    return eonoise, elapsed


# --------------------------------------------------------------- sweep-presets

def sweep_configs(eonoise, work: Path) -> list[tuple[str, Path, Path]]:
    return [(name, work / f"{name}.cfg", work / f"{name}.csv") for name in eonoise.cli.PRESETS]


def setup_sweep(eonoise, work: Path, seed: int) -> dict:
    start, stop, step = SWEEP_GRID
    for name, cfg, _ in sweep_configs(eonoise, work):
        cfg.write_text(f"preset = {name}\ngrid_start = {start}\n"
                       f"grid_stop = {stop}\ngrid_step = {step}\n")
    return {}


# ----------------------------------------------------------------- dataset-1e6

DATASET_INSTANCE = dict(base=(0.3, 0.2, 0.2, 0.3), alpha1=0.9, beta1=0.8, alpha2=0.4, beta2=0.1)


def dataset_paths(work: Path) -> tuple[Path, Path]:
    return work / "records.csv", work / "dataset.csv"


def setup_dataset(eonoise, work: Path, seed: int) -> dict:
    records_csv, _ = dataset_paths(work)
    t0 = time.perf_counter()
    inst = eonoise.ProblemInstance(**DATASET_INSTANCE)
    records = eonoise.sample_records(inst, DATASET_ROWS, seed, with_scores=True)
    t1 = time.perf_counter()
    eonoise.write_records_csv(records_csv, records)
    t2 = time.perf_counter()
    return {"records.sample_records.s": t1 - t0, "records.write_records_csv.s": t2 - t1,
            "csv_bytes": records_csv.stat().st_size}


# --------------------------------------------------------------- derive-single

def draw_derive_inputs(eonoise, seed: int, n: int = DERIVE_CALLS):
    """Seeded (ProblemInstance, PerturbationSpec) pairs.

    Base cells are random and positive.  Each classifier rate is one of
    {0, 1/2, 1} with probability 1/2 and uniform otherwise, so degenerate
    programs occur.  Exactly a quarter of the instances are uninformative
    (alpha1 == alpha2 and beta1 == beta2).  Exactly half the specs are
    prediction-dependent (general).  Every flip rate lies in [0, 0.5], so no
    corrupted cell is empty and no call fails.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 0xE0])
    base = rng.uniform(0.01, 1.0, size=(n, 4))
    base /= base.sum(axis=1, keepdims=True)
    special = np.array([0.0, 0.5, 1.0])[rng.integers(0, 3, size=(n, 4))]
    rates = np.where(rng.random((n, 4)) < 0.5, special, rng.random((n, 4)))
    uninformative = rng.permutation(n) < n // 4
    rates[uninformative, 2:] = rates[uninformative, :2]
    general = rng.permutation(n) < n // 2
    flips = rng.uniform(0.0, 0.5, size=(n, 8))

    pairs = []
    for i in range(n):
        a1, b1, a2, b2 = (float(v) for v in rates[i])
        inst = eonoise.ProblemInstance(base=tuple(float(v) for v in base[i]),
                                       alpha1=a1, beta1=b1, alpha2=a2, beta2=b2)
        if general[i]:
            spec = eonoise.PerturbationSpec("general", tuple(float(v) for v in flips[i]))
        else:
            spec = eonoise.PerturbationSpec.restricted(*(float(v) for v in flips[i, :4]))
        pairs.append((inst, spec))
    return pairs


def setup_derive(eonoise, work: Path, seed: int) -> dict:
    draw_derive_inputs(eonoise, seed)
    return {}


SETUPS = {"sweep-presets": setup_sweep, "dataset-1e6": setup_dataset,
          "derive-single": setup_derive}


def run_setup(args) -> dict:
    eonoise, import_s = import_eonoise()
    with SpeedSampler(args.workload) as sampler:
        t0 = sampler.clock()
        extra = SETUPS[args.workload](eonoise, args.work, args.seed)
        t1 = sampler.clock()
    gen_s = t1 - t0
    scale = sampler.scale(t0 - import_s, t1)
    result = {"import_s": import_s, "gen_s": gen_s, "scale": scale, "extra": extra}
    if args.workload == "dataset-1e6":
        result["records_digest"] = sha256_file(dataset_paths(args.work)[0])
    return result


# ---------------------------------------------------------------------- passes
#
# ``run(clock)`` performs one pass and returns (start, end, ok) per operation.

def _cli(eonoise, argv) -> bool:
    """One CLI invocation; True when it exits 0.  Its stdout is discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return eonoise.cli.main(argv) == 0
        except SystemExit as exc:  # argparse exits instead of returning
            return exc.code == 0
        except Exception as exc:  # a raising operation counts as failed
            print(f"operation {argv[:2]} raised {exc!r}", file=sys.stderr)
            return False


def _timed_cli(eonoise, clock, argv):
    start = clock()
    ok = _cli(eonoise, argv)
    return start, clock(), ok


class SweepPass:
    """One CLI ``sweep`` per preset, each an operation."""

    def __init__(self, eonoise, work: Path, seed: int):
        self.eonoise = eonoise
        self.configs = sweep_configs(eonoise, work)
        self.ops = [name for name, _, _ in self.configs]

    def run(self, clock):
        return [_timed_cli(self.eonoise, clock, ["sweep", "--config", str(cfg), "--out", str(out)])
                for _, cfg, out in self.configs]

    def digests(self):
        return [sha256_file(out) for _, _, out in self.configs]

    def check(self):
        """Per op: the CSV has the header and 16 fields in each of 501 rows."""
        cols = ",".join(self.eonoise.cli.SWEEP_COLUMNS)
        good = []
        for _, _, out in self.configs:
            lines = out.read_text().splitlines() if out.exists() else []
            good.append(len(lines) == 502 and lines[0] == cols
                        and all(len(line.split(",")) == 16 for line in lines[1:]))
        return good


class DatasetPass:
    """One CLI ``dataset`` run on the 1e6-row CSV."""

    def __init__(self, eonoise, work: Path, seed: int):
        self.eonoise = eonoise
        self.records_csv, self.out = dataset_paths(work)
        self.seed = seed
        self.ops = ["dataset"]

    def run(self, clock):
        return [_timed_cli(self.eonoise, clock, [
            "dataset", str(self.records_csv), "--scenario", "independent-flip",
            "--grid", DATASET_GRID, "--seed", str(self.seed), "--out", str(self.out)])]

    def digests(self):
        return [sha256_file(self.out)]

    def check(self):
        """The CSV has the header, one row per level, and every value in [0, 1]."""
        lines = self.out.read_text().splitlines() if self.out.exists() else []
        good = (len(lines) == DATASET_LEVELS + 1
                and lines[0] == ",".join(self.eonoise.cli.DATASET_COLUMNS))
        for k, line in enumerate(lines[1:]):
            try:
                values = [float(v) for v in line.split(",")]
            except ValueError:
                return [False]
            good = good and math.isclose(values[0], 0.05 * k, abs_tol=1e-12)
            good = good and all(0.0 <= v <= 1.0 for v in values)
        return [good]


class DerivePass:
    """``derive_predictor`` then both biases and the error, per input pair."""

    def __init__(self, eonoise, work: Path, seed: int):
        self.eonoise = eonoise
        self.pairs = draw_derive_inputs(eonoise, seed)
        self.ops = [str(i) for i in range(len(self.pairs))]
        self.outputs = []

    def run(self, clock):
        # Looked up per pass: the tracer rebinds these names while installed.
        derive = self.eonoise.derive_predictor
        bias, error = self.eonoise.bias_derived, self.eonoise.error_derived
        ops, self.outputs = [], []
        for inst, spec in self.pairs:
            start = clock()
            try:
                pred = derive(inst, spec)
                out = (pred.p, bias(inst, pred, 1), bias(inst, pred, -1), error(inst, pred))
            except Exception as exc:  # a raising call counts as failed
                print(f"derive_predictor raised {exc!r}", file=sys.stderr)
                out = None
            ops.append((start, clock(), out is not None))
            self.outputs.append(out)
        return ops

    def digests(self):
        return [hashlib.sha256(repr(out).encode()).hexdigest()[:16] for out in self.outputs]

    def check(self):
        """Recompute each bias and the error from ``p`` independently."""
        cells = ((1, 0), (1, 1), (-1, 0), (-1, 1))
        good = []
        for (inst, _), out in zip(self.pairs, self.outputs):
            if out is None:
                good.append(False)
                continue
            p, b_pos, b_neg, err = out
            mass = dict(zip(cells, inst.base))
            rate = dict(zip(cells, (inst.alpha1, inst.beta1, inst.alpha2, inst.beta2)))
            prob = dict(zip(cells, p))
            pos = {c: rate[c] * prob[(1, c[1])] + (1 - rate[c]) * prob[(-1, c[1])] for c in cells}
            ref_err = sum(mass[c] * (1 - pos[c] if c[0] == 1 else pos[c]) for c in cells)
            good.append(all(0.0 <= v <= 1.0 for v in p)
                        and abs(b_pos - abs(pos[(1, 0)] - pos[(1, 1)])) <= 1e-9
                        and abs(b_neg - abs(pos[(-1, 0)] - pos[(-1, 1)])) <= 1e-9
                        and abs(err - ref_err) <= 1e-9)
        return good


PASSES = {"sweep-presets": SweepPass, "dataset-1e6": DatasetPass, "derive-single": DerivePass}


def expected_digests(workload: str, seed: int):
    """Recorded digests for this workload and seed, or None when unrecorded.

    The sweep does not depend on the seed, so one file serves every seed.
    """
    name = "sweep-presets.txt" if workload == "sweep-presets" else f"{workload}-seed{seed}.txt"
    path = EXPECTED_DIR / name
    if not path.exists():
        return None
    return dict(line.split() for line in path.read_text().splitlines() if line)


def run_pass(work_pass, sampler: SpeedSampler) -> dict:
    with sampler:
        start = sampler.clock()
        ops = work_pass.run(sampler.clock)
        wall = sampler.clock() - start
    return {"wall_s": wall,
            "latencies_s": [end - begin for begin, end, _ in ops],
            "scale": [sampler.scale(begin, end) for begin, end, _ in ops],
            "ok": [ok for _, _, ok in ops]}


def run_passes(args) -> dict:
    eonoise, _ = import_eonoise()
    work_pass = PASSES[args.workload](eonoise, args.work, args.seed)
    sampler = SpeedSampler(args.workload)
    expected = expected_digests(args.workload, args.seed)
    tracer = Tracer(sampler.clock) if args.trace else None

    passes = []
    attempted = failed = 0
    first_digests = None
    problems = []
    start = time.perf_counter()
    while True:
        # The traced run alternates untraced and traced passes.
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        if traced:
            tracer.pass_id = len(passes)
            tracer.install()
        result = run_pass(work_pass, sampler)
        if traced:
            tracer.uninstall()
        result["traced"] = traced
        digests = work_pass.digests()
        checks = work_pass.check()
        if first_digests is None:
            first_digests = digests
        for k, op in enumerate(work_pass.ops):
            good = result["ok"][k] and checks[k] and digests[k] == first_digests[k]
            if expected is not None:
                good = good and expected.get(op) == digests[k]
            attempted += 1
            failed += not good
        del result["ok"]
        passes.append(result)
        elapsed = time.perf_counter() - start
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and elapsed + result["wall_s"] / 2 >= args.seconds:
            break

    result = {
        "numpy": sys.modules["numpy"].__version__,
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "digests": dict(zip(work_pass.ops, first_digests)),
        "digests_checked": expected is not None,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "problems": problems,
    }
    if tracer is not None:
        per_pass = tracer.per_pass()
        result["layers"] = {pid: per_pass[pid] for pid in sorted(per_pass)}
        for pid, stats in sorted(per_pass.items()):
            for name, want in EXPECTED_CALLS[args.workload].items():
                if stats[name] != want:
                    problems.append(f"pass {pid}: {name} = {stats[name]:.0f}, expected {want}")
        tracer.write(args.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "passes"))
    parser.add_argument("--workload", required=True, choices=sorted(PASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)
    result = run_setup(args) if args.mode == "setup" else run_passes(args)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
