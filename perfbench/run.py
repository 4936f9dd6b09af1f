"""eonoise benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload sweep-presets --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Set-up runs several times, each in a fresh
process, and ``setup_s`` is the median.  The measured passes run in one more
process, so that ``peak_rss_mb`` belongs to the passes and not to input
generation.  Every child runs single-threaded (OMP_NUM_THREADS=1,
OPENBLAS_NUM_THREADS=1).  Times are reported in scaled seconds: seconds on a
core of fixed speed, measured alongside by reference.py's sampler.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported;
with ``--trace 1`` untraced and traced passes alternate and the per-layer
metrics are reported.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  The environment, all
raw samples and the output digests go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import expected_digests

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sweep-presets", "dataset-1e6", "derive-single")
#: Set-ups per run; the dataset set-up writes a 23 MB CSV and costs ~3 s.
SETUP_REPEATS = {"sweep-presets": 7, "dataset-1e6": 3, "derive-single": 7}
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def child(mode: str, workload: str, seed: int, work: Path, result: Path, deadline: float,
          extra=()) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), mode, "--workload", workload,
           "--seed", str(seed), "--work", str(work), "--result", str(result), *extra]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child for {workload} timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} child for {workload} exited with {proc.returncode}")
    return json.loads(result.read_text())


def environment(workload: str, seed: int, seconds: int, trace: int, numpy_version: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    cpu_model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_commit": commit, "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
        "thread_env": THREAD_ENV,
    }


def per_op(runner, traced: bool, stat=statistics.median) -> list[float]:
    """``stat`` of each operation's scaled latencies over the (un)traced passes."""
    passes = [p for p in runner["passes"] if p["traced"] is traced]
    scaled = [[t * f for t, f in zip(p["latencies_s"], p["scale"])] for p in passes]
    return [stat(samples) for samples in zip(*scaled)]


def pass_scale(run_pass: dict) -> float:
    """A pass's overall factor from raw to scaled seconds."""
    raw = sum(run_pass["latencies_s"])
    return sum(t * f for t, f in zip(run_pass["latencies_s"], run_pass["scale"])) / raw


def end_to_end(setups, runner) -> dict:
    # The median is the steadier centre.  A burst of interference in one pass
    # widens the tail, so the tail is taken over each operation's fastest pass.
    median_us = [v * 1e6 for v in per_op(runner, False)]
    fastest_us = [v * 1e6 for v in per_op(runner, False, min)]
    n_passes = sum(not p["traced"] for p in runner["passes"])
    setup = [(s["import_s"] + s["gen_s"]) * s["scale"] for s in setups]
    return {
        "setup_s": (statistics.median(setup), len(setups)),
        "wall_s": (sum(median_us) / 1e6, n_passes),
        "call_us_p50": (percentile(median_us, 50), len(median_us)),
        "call_us_p99": (percentile(fastest_us, 99), len(fastest_us)),
        "peak_rss_mb": (runner["maxrss_kb"] / 1024.0, 1),
    }


def per_layer(setups, runner) -> dict:
    layers = []
    for pid, stats in runner["layers"].items():
        factor = pass_scale(runner["passes"][int(pid)])
        layers.append({name: v * factor if name.endswith((".s", ".self_s")) else v
                       for name, v in stats.items()})
    n = len(layers)
    values = {name: (statistics.median(stats[name] for stats in layers), n) for name in layers[0]}
    solves = sum(stats["lp.solve_with_ties.calls"] for stats in layers)
    tied = sum(stats["lp.solve_with_ties.tied"] for stats in layers)
    values["lp.tie_frac"] = (tied / solves if solves else 0.0, int(solves))

    csv_mb = setups[0]["extra"].get("csv_bytes", 0) / 1e6
    read_s = values["records.read_records_csv.s"][0]
    values["records.read_records_csv.mb_per_s"] = (csv_mb / read_s if read_s else 0.0, n)
    for name in ("records.sample_records.s", "records.write_records_csv.s"):
        values[name] = (statistics.median(s["extra"].get(name, 0.0) * s["scale"] for s in setups),
                        len(setups))
    write_s = values["records.write_records_csv.s"][0]
    values["records.write_records_csv.mb_per_s"] = (csv_mb / write_s if write_s else 0.0,
                                                    len(setups))
    values["trace.overhead_s"] = (sum(per_op(runner, True)) - sum(per_op(runner, False)),
                                  len(runner["passes"]))
    return values


def run_workload(workload: str, seed: int, seconds: int, trace: int, spec: dict) -> dict:
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    out_dir = ROOT / ".perfbench_out"
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    try:
        setups = [child("setup", workload, seed, work, work / f"setup{k}.json", deadline)
                  for k in range(SETUP_REPEATS[workload])]
        runner = child("passes", workload, seed, work, work / "passes.json", deadline,
                       ["--seconds", str(seconds), "--trace", str(trace),
                        "--spans", str(out_dir / f"spans-{workload}.csv")])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = list(runner["problems"])
    digests = dict(runner["digests"])
    if workload == "dataset-1e6":
        records = {s["records_digest"] for s in setups}
        if len(records) != 1:
            problems.append("records CSV differs between set-ups of one seed")
        digests["records.csv"] = setups[0]["records_digest"]
        expected = expected_digests(workload, seed)
        if expected is not None and expected.get("records.csv") != digests["records.csv"]:
            problems.append("records CSV digest differs from the recorded one")

    if trace:
        values, wanted = per_layer(setups, runner), spec["per_layer"]
    else:
        values, wanted = end_to_end(setups, runner), spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in wanted}
    samples = {m["name"]: values[m["name"]][1] for m in wanted}

    env = environment(workload, seed, seconds, trace, runner["numpy"])
    digest_dir = out_dir / "digests"
    digest_dir.mkdir(exist_ok=True)
    (digest_dir / f"{workload}-seed{seed}.txt").write_text(
        "".join(f"{op} {d}\n" for op, d in digests.items()))
    detail = {"env": env, "metrics": metrics, "samples": samples, "problems": problems,
              "digests_checked": runner["digests_checked"],
              "passes": runner["passes"], "setups": setups}
    if trace:
        detail["layers"] = runner["layers"]
    (out_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(detail))

    print(f"# {workload}: seed {seed}, {len(runner['passes'])} passes, "
          f"output digests {'checked' if runner['digests_checked'] else 'not recorded, printed only'}")
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']} (n={samples[name]})")
    print(f"{workload} failed_frac = {runner['failed']}/{runner['attempted']}")
    for problem in problems:
        print(f"{workload} PROBLEM: {problem}")
    print("# env " + json.dumps(env))
    return {"correct": runner["failed"] == 0 and not problems,
            "attempted": runner["attempted"], "failed": runner["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="eonoise benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "eonoise" / "__init__.py").is_file():
        print(f"error: no eonoise sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, seconds, args.trace, spec) for w in workloads}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        summary = results[workloads[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
