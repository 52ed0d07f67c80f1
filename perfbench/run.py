"""Benchmark of gwimm's survival routes: three workloads, optional tracing.

    python3 perfbench/run.py --workload mc_mixed --seed 1 --seconds 30 \
        --trace 0

Run from the root of a checkout; gwimm is imported from its `src`
directory.  The workloads are described in workloads.py.

--trace 0 repeats workload passes for about --seconds seconds and reports
the end-to-end metrics listed in BENCHMARK.json: the median wall time of
a pass, the median set-up time over fresh processes, and the peak
resident memory.  The set-up probes are spread between the passes, so
their median spans the whole run rather than one moment of it.
--trace 1 spends half the time on untraced passes and half on passes
traced by spans.Tracer, and reports the per-layer metrics, including the
tracing overhead; on mc_mixed it also repeats one job on one thread and
on two, requires byte-identical counts, and reports the ratio of the
two adjacent timings.

Every pass's outputs are checked; a pass that raises or fails a check is
a failed operation.  The Monte Carlo counts pooled over all passes are
checked once more, as one more operation.  The lines before the last give each metric with its
unit and sample count, the stage throughputs, and the machine and
working-set facts.  The last line is one JSON object with the keys
correct, attempted, failed and metrics.  Results, and spans when traced,
are written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_PROBES = 15        # fresh processes timed per run; the median counts
MIN_PASSES = 3           # untraced passes per --trace 0 run, at least
MIN_PASSES_TRACED = 2    # untraced and traced passes per --trace 1 run


def machine_facts(seed: int, workload: str) -> dict:
    import numpy as np

    def read(path: Path) -> str | None:
        try:
            return path.read_text().strip()
        except OSError:
            return None

    cpu = "unknown"
    for line in (read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    llc_kb, llc_level = None, -1
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(caches.glob("index*")):
        level, size = read(idx / "level"), read(idx / "size")
        if level and size and size.endswith("K") and int(level) > llc_level:
            llc_kb, llc_level = int(size[:-1]), int(level)
    commit = "unknown"
    head = read(ROOT / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        commit = read(ROOT / ".git" / head[5:]) or commit
    elif head:
        commit = head

    from workloads import LongHorizon, SurvivalR3
    dp, lh = SurvivalR3, LongHorizon
    longdouble = np.dtype(np.longdouble).itemsize
    # working sets from the array shapes: all fit in the last-level cache,
    # so bytes are computed, not measured, and no bandwidth is claimed
    return {
        "workload": workload, "seed": seed,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "llc_kb": llc_kb, "python": platform.python_version(),
        "numpy": np.__version__, "git_commit": commit,
        "dp_pi_bytes_computed": (dp.horizon + 1) * (dp.M + 1) * 8,
        "dp_ring_spectrum_values": 2 * dp.M + 1,
        "dp_ring_spectrum_bytes_computed": (2 * dp.M + 1) * 16,
        "renewal_array_bytes_computed": (lh.n_max + 1) * longdouble,
    }


def probe_setup(workload: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SetupProbes:
    """Fresh-process set-up timings, taken a few at a time between passes
    so that they cover the whole run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.done = []

    def catch_up(self, share: float) -> None:
        """Take probes until `share` of SETUP_PROBES are done."""
        want = min(SETUP_PROBES, math.ceil(SETUP_PROBES * share))
        while len(self.done) < want:
            self.done.append(probe_setup(self.workload))


class Runner:
    """Runs and checks passes of one workload, keeping every record."""

    def __init__(self, wl, seed_of):
        self.wl, self.seed_of = wl, seed_of
        self.ref = wl.reference()
        self.records = []
        # (record, outputs) of the first good pass, kept for a repeat
        self.first = None
        self.pooled = {}         # survival counts summed over passes
        self.pooled_passes = 0

    def record(self, rec: dict, fails: list) -> None:
        rec["fails"] = fails
        rec["ok"] = not fails
        for msg in fails:
            sys.stderr.write(f"pass {rec['pass']}: check failed: {msg}\n")
        self.records.append(rec)

    def one_pass(self, traced: bool, tracer=None) -> None:
        i = len(self.records)
        rec = {"pass": i, "traced": traced}
        if tracer is not None:
            tracer.tag = i
        try:
            t0 = time.perf_counter()
            rec["stages"], out = self.wl.run(self.seed_of(i))
            rec["wall_s"] = time.perf_counter() - t0
            fails, rec["stats"] = self.wl.check(out, self.ref)
        except Exception:  # a pass that raises is one failed operation
            rec["error"] = traceback.format_exc()
            self.record(rec, ["raised " + rec["error"]])
            return
        self.record(rec, fails)
        for name, counts in self.wl.mc_counts(out).items():
            self.pooled[name] = self.pooled.get(name, 0) + counts
        self.pooled_passes += 1
        if rec["ok"] and self.first is None and hasattr(self.wl,
                                                        "thread_check"):
            self.first = (rec, out)

    def pooled_check(self) -> None:
        """Check the Monte Carlo counts pooled over all passes; one more
        operation."""
        import workloads

        k = self.pooled_passes
        fails = workloads.mc_fails(self.pooled, k * self.wl.reps, self.ref,
                                   self.wl.order)
        self.record({"pass": f"{k} passes pooled", "traced": None}, fails)

    def passes(self, budget: float, least: int, traced: bool = False,
               tracer=None, probes=None) -> None:
        """Run passes until the next one would end after `budget` seconds,
        and at least `least` of them.  With `probes`, take set-up probes
        in step with the share of the budget spent, all of them by the
        end."""
        start = time.perf_counter()
        done = 0
        while True:
            spent = time.perf_counter() - start
            if probes is not None:
                probes.catch_up(spent / budget)
                spent = time.perf_counter() - start
            if done >= least and spent + spent / done > budget:
                break
            self.one_pass(traced, tracer)
            done += 1
        if probes is not None:
            probes.catch_up(1.0)

    def thread_check(self) -> float:
        """Repeat the first good pass on one thread and on the workload's
        threads (mc_mixed); one more operation.  Returns the one-thread
        over the threaded time."""
        rec, out = self.first
        check = {"pass": f"{rec['pass']} repeated", "traced": None}
        fails, speedup = self.wl.thread_check(
            self.seed_of(rec["pass"]), out)
        self.record(check, fails)
        return speedup

    def completed(self, traced: bool) -> list:
        """Passes that ran to the end, whether or not their checks held."""
        return [r for r in self.records
                if "wall_s" in r and r["traced"] == traced]


def medians(rows) -> tuple[dict, dict]:
    """Median and sample count of each key over a list of dicts."""
    vals = {}
    for row in rows:
        for name, val in row.items():
            vals.setdefault(name, []).append(val)
    return ({name: statistics.median(v) for name, v in vals.items()},
            {name: len(v) for name, v in vals.items()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gwimm" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no gwimm sources under {SRC}\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import spans
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}\n")
        return 2
    probes = SetupProbes(wl.name)
    probes.catch_up(1.0 / SETUP_PROBES)
    wl.warm()
    runner = Runner(wl, lambda i: workloads.pass_seed(args.seed, i))
    tracer = None
    speedup = 0.0
    if not args.trace:
        runner.passes(args.seconds, MIN_PASSES, probes=probes)
    else:
        runner.passes(args.seconds / 2, MIN_PASSES_TRACED, probes=probes)
        if runner.first is not None:
            speedup = runner.thread_check()
        tracer = spans.Tracer()
        tracer.install()
        try:
            runner.passes(args.seconds / 2, MIN_PASSES_TRACED, traced=True,
                          tracer=tracer)
        finally:
            tracer.uninstall()

    if runner.pooled:
        runner.pooled_check()
    plain = runner.completed(traced=False)
    traced = runner.completed(traced=True)
    if not plain or (args.trace and not traced):
        sys.stderr.write("perfbench: every pass raised\n")
        return 1
    attempted = len(runner.records)
    failed = sum(not r["ok"] for r in runner.records)

    measured, samples = medians(
        [{"wall_s": r["wall_s"], **wl.rates(r["stages"])} for r in plain]
        + [r["stats"] for r in runner.records if "stats" in r])
    if not args.trace:
        kind = "end_to_end"
        measured["setup_s"] = statistics.median(
            p["setup_s"] for p in probes.done)
        measured["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        samples.update(setup_s=len(probes.done), peak_rss_mb=1)
    else:
        kind = "per_layer"
        layers, counts = medians(
            spans.layer_metrics(spans.summarise(
                [s for s in tracer.spans if s[-1] == r["pass"]]))
            for r in traced)
        measured.update(layers)
        samples.update(counts)
        measured["cli.import_s"] = statistics.median(
            p["import_s"] for p in probes.done)
        measured["trace.overhead_s"] = statistics.median(
            r["wall_s"] for r in traced) - measured["wall_s"]
        measured["simulate.thread_speedup"] = speedup
        samples.update({"cli.import_s": len(probes.done),
                        "trace.overhead_s": len(traced),
                        "simulate.thread_speedup": 1})

    facts = machine_facts(args.seed, wl.name)
    facts["mc_false_alarm_bound_per_run"] = (
        workloads.MC_ALPHA * wl.mc_comparisons * attempted)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(measured):
        print(f"{name} = {measured[name]!r} {units.get(name, '')}"
              f"  (median of {samples.get(name, 1)})")
    print("facts " + json.dumps(facts, sort_keys=True))

    # a layer that the workload does not run reads 0
    default = 0.0 if args.trace else None
    metrics = {m["name"]: {"value": float(measured.get(m["name"], default)),
                           "unit": m["unit"]}
               for m in spec[kind]}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"facts": facts, "result": result, "measured": measured,
                   "samples": samples, "setup_probes": probes.done,
                   "passes": runner.records}, fh, indent=1, default=float)
    if tracer is not None:
        with open(RESULTS / f"{stem}-spans.jsonl", "w",
                  encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s, default=float) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
