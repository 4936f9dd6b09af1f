"""Spans around eonoise's public functions, recorded from outside the package.

The package modules import each other with ``from .x import f``, so a caller
looks ``f`` up in its own module's namespace.  ``Tracer.install`` therefore
replaces every binding of a traced function in every loaded ``eonoise``
module, not only the definition site, and ``uninstall`` puts the originals
back.  Constructors are traced through the class's ``__post_init__``.

Spans live in flat arrays (name, parent, pass, start, end, child time) so
that a pass of ~200,000 spans costs a few MB; they are written out once, at
the end of the run.  A span's self time is its duration minus the time its
direct children cover; calls are strictly nested in one thread, so the
children never overlap.
"""

from __future__ import annotations

import sys
import time
from array import array

#: Traced layer boundaries as (module, attribute) pairs.  ``Class.__post_init__``
#: entries are reported as ``<module>.<Class>.init``.
TARGETS = (
    ("cli", "load_sweep_config"),
    ("cli", "write_csv"),
    ("cli", "run_sweep"),
    ("cli", "run_dataset"),
    ("model", "ProblemInstance.__post_init__"),
    ("model", "lift_perturbation"),
    ("perturb", "schedule_eval"),
    ("perturb", "apply_scenario"),
    ("programs", "derive_predictor"),
    ("programs", "build_clean_program"),
    ("programs", "build_corrupted_program"),
    ("programs", "build_corrupted_joint"),
    ("programs", "program_from_table"),
    ("lp", "solve"),
    ("lp", "solve_with_ties"),
    ("lp", "EoProgram.__post_init__"),
    ("metrics", "bias_derived"),
    ("metrics", "error_derived"),
    ("metrics", "corrupted_bias_bound"),
    ("metrics", "check_flip_budget"),
    ("metrics", "independence_measure"),
    ("records", "read_records_csv"),
    ("records", "RecordSet.__post_init__"),
    ("records", "split"),
    ("records", "estimate_corrupted_tables"),
    ("records", "evaluate_predictor_on_records"),
)

TIED_SOLVES = "lp.solve_with_ties.tied"


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('.__post_init__', '.init')}"


class Tracer:
    """Records one span per call of each target while installed, timed by
    ``clock`` (a ``time.perf_counter``-like function)."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names = [span_name(m, a) for m, a in TARGETS]
        self.name_ids = array("i")
        self.parents = array("i")
        self.pass_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.child = array("d")
        self.tied: dict[int, int] = {}
        self.pass_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name_id: int, func, count_ties: bool):
        name_ids, parents, pass_ids = self.name_ids, self.parents, self.pass_ids
        starts, ends, child, stack = self.starts, self.ends, self.child, self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            name_ids.append(name_id)
            parents.append(parent)
            pass_ids.append(self.pass_id)
            starts.append(0.0)
            ends.append(0.0)
            child.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                if parent >= 0:
                    child[parent] += t1 - t0
            if count_ties and result[1] > 1:
                self.tied[self.pass_id] = self.tied.get(self.pass_id, 0) + 1
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        """Wrap every target; a target that is missing raises AttributeError."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "eonoise" or n.startswith("eonoise."))]
        for name_id, (mod_name, attr) in enumerate(TARGETS):
            module = sys.modules[f"eonoise.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name_id, original, False))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name_id, original, attr == "solve_with_ties")
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def per_pass(self) -> dict[int, dict[str, float]]:
        """Per pass id: ``<span>.calls``, ``<span>.s`` and ``<span>.self_s``
        for every target, plus the tied-solve count and the span count."""
        out: dict[int, dict[str, float]] = {}
        for i in range(len(self.starts)):
            pid = self.pass_ids[i]
            stats = out.get(pid)
            if stats is None:
                stats = out[pid] = {TIED_SOLVES: float(self.tied.get(pid, 0)), "trace.spans": 0.0}
                for name in self.names:
                    stats[name + ".calls"] = 0.0
                    stats[name + ".s"] = 0.0
                    stats[name + ".self_s"] = 0.0
            name = self.names[self.name_ids[i]]
            dur = self.ends[i] - self.starts[i]
            stats[name + ".calls"] += 1
            stats[name + ".s"] += dur
            stats[name + ".self_s"] += dur - self.child[i]
            stats["trace.spans"] += 1
        return out

    def write(self, path) -> None:
        """Write every span as CSV: name, parent index, pass, start, end."""
        with open(path, "w") as fh:
            fh.write("index,name,parent,pass,start_s,end_s\n")
            for i in range(len(self.starts)):
                fh.write(f"{i},{self.names[self.name_ids[i]]},{self.parents[i]},"
                         f"{self.pass_ids[i]},{self.starts[i]:.9f},{self.ends[i]:.9f}\n")
