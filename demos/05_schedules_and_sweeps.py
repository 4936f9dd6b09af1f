"""Flip-rate schedules and analytic sweeps to CSV.

A schedule expands one driving rate gamma_{+1,0} into all four per-cell
rates; a sweep walks the driving rate over a grid and records bias, error,
the bias bound, and the assumption checks per point.  The same sweep is
available from the command line:

    eonoise sweep --config my_sweep.cfg --out sweep.csv
"""

import tempfile
from pathlib import Path

from eonoise import ProblemInstance
from eonoise.cli import PRESETS, SWEEP_COLUMNS, SweepConfig, run_sweep, write_csv
from eonoise.perturb import GammaSchedule, schedule_eval

print("the four schedules, driven at gamma_{+1,0} = 0.4:")
for kind in ("equal", "halves", "power-halving", "capped"):
    spec = schedule_eval(GammaSchedule(kind), 0.4)
    print(f"  {kind:14s} -> {spec.rates[::2]}")

print("\nbundled presets (alpha/beta + schedule; base defaults to balanced):")
for name in ("fig1-top-left", "fig1-bottom-right", "tableA3-row-4"):
    print(f"  {name}: {PRESETS[name]}")

config = SweepConfig(
    instance=ProblemInstance(base=(0.25,) * 4, **{
        k: v for k, v in PRESETS["fig1-top-left"].items() if k != "schedule"}),
    schedule=GammaSchedule(PRESETS["fig1-top-left"]["schedule"]),
    grid=(0.0, 0.5, 0.1),
)
table = run_sweep(config)  # float64, one row per grid point

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "sweep.csv"
    write_csv(out, SWEEP_COLUMNS, table)
    print(f"\nwrote {len(table)} rows to {out}")
print("columns:", ",".join(SWEEP_COLUMNS))
print("\nfirst and last row:")
for row in (table[0], table[-1]):
    picked = dict(zip(SWEEP_COLUMNS, row))
    print("  gamma10={gamma10:.12g}  bias_pos_corr={bias_pos_corr:.12g}  "
          "error_corr={error_corr:.12g}  bound_pos={bound_pos:.12g}".format(**picked))
