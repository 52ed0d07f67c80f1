"""In-memory span tracer for the library layers of gwimm.

`Tracer.install()` wraps every public function of gwimm.laws, gwimm.pgf,
gwimm.simulate, gwimm.renewal and gwimm.limits under each module
attribute that refers to it.  Those are the names callers look up: a
call from the engine goes through `gwimm.simulate.sample_offspring` and
one from the renewal code through `gwimm.renewal.q_iterate`, so both are
traced.  No source file is edited, and `uninstall()` restores every
attribute.

Each span records its name, parent span, thread id, wall interval, the
thread's CPU time and the work counted from the call's arguments.  Spans
stay in memory until the caller writes them out.  A span opened on a
worker thread with no open span of its own takes the innermost open span
of the installing thread as parent, so Monte Carlo blocks running on a
pool count as children of the `estimate_survival` call that started them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("laws", "pgf", "simulate", "renewal", "limits")

# Work counted per call, read from the call's bound arguments.
WORK = {
    "laws.sample_offspring": lambda a: {"draws": a["size"]},
    "laws.sample_immigration": lambda a: {"draws": a["size"]},
    "laws.sample_initial": lambda a: {"draws": a["size"]},
    "pgf.q_iterate": lambda a: {"steps": a["n"] * int(np.size(a["t"]))},
    "pgf.q_last": lambda a: {"steps": a["n"] * int(np.size(a["t"]))},
    "renewal.build_renewal": lambda a: {"terms": a["n_max"] + 1},
    # the Horner pass does M multiply-adds per generation on each of the
    # 2M+1 bins of the half spectrum of a ring of size 4M
    "renewal.dp_distribution": lambda a: {
        "gens": a["n"], "cmul": a["n"] * a["M"] * (2 * a["M"] + 1)},
    "limits.conditional_laplace_exact": lambda a: {"gens": a["n"]},
    "limits.convergence_sweep": lambda a: {
        "points": int(np.size(a["s_grid"]) * np.size(a["n_grid"]))},
    "simulate.estimate_survival": lambda a: {
        "rep_gens": a["reps"] * a["horizon"]},
}


class Tracer:
    """Records spans around gwimm's public functions while installed."""

    def __init__(self):
        # (id, parent, name, thread, t0, t1, cpu_s, work, tag)
        self.spans = []
        self.tag = None     # set by the caller, e.g. the pass index
        self._ids = itertools.count(1)
        self._stacks = {}
        self._home = None
        self._patches = []

    def _stack(self) -> list:
        return self._stacks.setdefault(threading.get_ident(), [])

    def _wrap(self, fn, name: str):
        sig = inspect.signature(fn)
        count = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            work = None
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                work = count(bound.arguments)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                home = self._stacks.get(self._home)
                parent = home[-1] if home else None
            sid = next(self._ids)
            stack.append(sid)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu = time.thread_time() - c0
                stack.pop()
                self.spans.append((sid, parent, name, threading.get_ident(),
                                   t0, t1, cpu, work, self.tag))

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._home = threading.get_ident()
        mods = {name: importlib.import_module(f"gwimm.{name}")
                for name in LAYERS}
        targets = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[obj] = f"{short}.{attr}"
        wrappers = {fn: self._wrap(fn, name) for fn, name in targets.items()}
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarise(spans) -> dict:
    """Per-name totals: calls, wall, self and wait seconds, work counts.

    Self time is a span's duration minus the part of it that its child
    spans cover; wait is wall minus the thread's CPU time, which shows
    contention for the interpreter lock or the cores.  Totals add up over
    threads, so on a thread pool they can exceed the wall time.  Work done
    under a `limits.conditional_laplace_exact` span is also totalled
    separately (`q_steps_in_point`), to measure q-iteration per sweep
    point.
    """
    children = defaultdict(list)
    parent_of = {}
    name_of = {}
    for sid, parent, name, _tid, t0, t1, *_ in spans:
        parent_of[sid] = parent
        name_of[sid] = name
        if parent is not None:
            children[parent].append((t0, t1))

    def inside_point(sid) -> bool:
        p = parent_of.get(sid)
        while p is not None:
            if name_of.get(p) == "limits.conditional_laplace_exact":
                return True
            p = parent_of.get(p)
        return False

    out = defaultdict(lambda: defaultdict(float))
    for sid, _parent, name, _tid, t0, t1, cpu, work, _tag in spans:
        row = out[name]
        row["calls"] += 1
        row["wall_s"] += t1 - t0
        row["wait_s"] += max(0.0, (t1 - t0) - cpu)
        row["self_s"] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        for key, val in (work or {}).items():
            row[key] += val
            if key == "steps" and inside_point(sid):
                row["q_steps_in_point"] += val
    return {name: dict(row) for name, row in out.items()}


def layer_metrics(summary: dict) -> dict:
    """The per-layer metrics of one traced pass, from `summarise`.

    A layer that the workload does not call reads 0, and so does a ratio
    over zero work.
    """
    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0.0)

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    m = {}
    for fn in ("sample_offspring", "sample_immigration", "sample_initial"):
        m[f"laws.{fn}.draws"] = get(f"laws.{fn}", "draws")
        m[f"laws.{fn}.self_s"] = get(f"laws.{fn}", "self_s")
    m["laws.sample_offspring.wait_s"] = get("laws.sample_offspring", "wait_s")
    m["laws.sample_offspring.ns_per_draw"] = per(
        m["laws.sample_offspring.self_s"], m["laws.sample_offspring.draws"],
        1e9)
    m["laws.stable_positive.self_s"] = get("laws.stable_positive", "self_s")
    m["laws.sample_sibuya.self_s"] = get("laws.sample_sibuya", "self_s")
    m["laws.pmf_tables.self_s"] = sum(
        get(f"laws.{law}_pmf", "self_s")
        for law in ("offspring", "immigration", "initial"))

    est = "simulate.estimate_survival"
    m[f"{est}.calls"] = get(est, "calls")
    m[f"{est}.self_s"] = get(est, "self_s")
    m["simulate.rep_gens"] = get(est, "rep_gens")

    dp = "renewal.dp_distribution"
    m[f"{dp}.gens"] = get(dp, "gens")
    m[f"{dp}.self_s"] = get(dp, "self_s")
    m[f"{dp}.ms_per_gen"] = per(m[f"{dp}.self_s"], m[f"{dp}.gens"], 1e3)
    m[f"{dp}.cmul_computed"] = get(dp, "cmul")
    m["renewal.build_renewal.terms"] = get("renewal.build_renewal", "terms")
    m["renewal.build_renewal.self_s"] = get("renewal.build_renewal", "self_s")
    m["renewal.fit_tail.self_s"] = get("renewal.fit_tail", "self_s")
    m["renewal.gamma_asymptotics.self_s"] = get("renewal.gamma_asymptotics",
                                                "self_s")

    m["pgf.q_iterate.steps"] = get("pgf.q_iterate", "steps")
    m["pgf.q_iterate.self_s"] = get("pgf.q_iterate", "self_s")
    m["pgf.gamma_sequences.calls"] = get("pgf.gamma_sequences", "calls")
    m["pgf.gamma_sequences.self_s"] = get("pgf.gamma_sequences", "self_s")
    m["pgf.q_last.steps"] = get("pgf.q_last", "steps")
    m["pgf.q_last.self_s"] = get("pgf.q_last", "self_s")
    # q-iteration steps made for each sweep point, over that point's n:
    # 1 would mean one trajectory per point
    point = "limits.conditional_laplace_exact"
    m["pgf.q_steps_per_sweep_point"] = per(
        get("pgf.q_iterate", "q_steps_in_point")
        + get("pgf.q_last", "q_steps_in_point"), get(point, "gens"))

    m[f"{point}.calls"] = get(point, "calls")
    m[f"{point}.self_s"] = get(point, "self_s")
    m["limits.convergence_sweep.points"] = get("limits.convergence_sweep",
                                               "points")
    m["limits.convergence_sweep.self_s"] = get("limits.convergence_sweep",
                                               "self_s")
    m["trace.spans"] = sum(row["calls"] for row in summary.values())
    return m
