"""The simphom benchmark: seeded CLI workloads checked against an oracle.

    python3 perfbench/run.py --workload homology-ladder --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root (the library is imported from ``src``).
Jobs call ``simphom.cli.run(argv)`` in this process, one at a time: a
closed loop with one client and no threads.  Whole passes over the
workload's jobs repeat until ``--seconds`` have gone by, and at least
``MIN_PASSES`` times.  Each job's stdout and exit status are checked
against ``oracle`` (which does not use simphom); a job that raises,
exits unexpectedly, prints a wrong line or overruns its time budget
counts as failed and the run goes on.

``--trace 0`` prints the end-to-end metrics.  Their times are wall times
scaled to a reference machine speed (see ``SpeedProbe``); the report
gives them unscaled too.  ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics per traced pass (self times
unscaled) with ``trace.overhead_frac``; the spans go to ``perfbench/out``.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import tracer as T      # noqa: E402
import workloads as W   # noqa: E402

SETUP_REPEATS = 7
# Every run makes at least this many passes.  The tail percentile is fixed
# per workload from this count (see ``tail``), so it names the same job
# class however fast the program gets and however many passes fit.
MIN_PASSES = {"homology-ladder": 3, "derived-invariants": 6, "combinatorial": 20}
# wall time above this multiple of CPU time (plus a small slack) means the
# job waited for a processor: scheduler interference, not slower code
NOISE_RATIO = 1.25
NOISE_SLACK_S = 0.005

E2E_UNITS = {"jobs_per_s": "1/s", "job_p50_s": "s", "job_tail_s": "s", "ok_frac": "frac",
             "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_COUNTS = {
    "snf": ["entries", "max_side", "subquotients", "reduce_calls"],
    "intmatrix": ["mul_calls", "mul_ops", "apply_calls", "apply_ops"],
    "homology": ["groups", "exact_checks"],
    "chains": ["boundary_nnz", "boundary_entries"],
    "io": ["bytes"],
    "sset": ["gens_built", "face_calls"],
    "kan": ["horns"],
    "pi1": ["tietze_steps"],
    "covers": ["cover_gens"],
}
TIMED_LAYERS = ["snf", "intmatrix", "homology", "chains", "io", "sset", "kan", "pi1", "covers",
                "operators", "subdivision", "abgroup", "catalog", "cli"]
NO_CALLS = {"intmatrix", "cli"}


class JobTimeout(BaseException):
    """Raised by the alarm when a job overruns its budget; not an
    Exception, so the library's own handlers cannot swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout


def import_simphom() -> dict:
    """A fresh import of the library, so every set-up repeat pays for it."""
    if not os.path.isfile(os.path.join(SRC, "simphom", "cli.py")):
        raise FileNotFoundError(f"no simphom sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "simphom" or n.startswith("simphom.")]:
        del sys.modules[name]
    importlib.import_module("simphom.cli")
    return {n.rsplit(".", 1)[-1]: m for n, m in sys.modules.items() if n.startswith("simphom.")}


def run_job(cli, job: W.Job) -> dict:
    gc.collect()
    sink = io.StringIO()
    problems, lines, status = [], [], None
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, job.budget_s)
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(sink):
            lines, status = cli.run(job.argv)
    except JobTimeout:
        problems = [f"exceeded its {job.budget_s:g} s budget"]
    except (Exception, SystemExit) as exc:
        problems = [f"raised {type(exc).__name__}: {exc}"]
    finally:
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if not problems:
        try:
            problems = job.check(lines, status)
        except Exception as exc:
            problems = [f"output not readable by the oracle: {type(exc).__name__}: {exc}"]
    return {"job": job.name, "t0": t0, "t1": t0 + wall, "wall_s": wall, "cpu_s": cpu,
            "ok": not problems, "problems": problems, "size": job.size}


def setup(workload: str, seed: int, workdir: str):
    """Import, build the input documents, and warm up on the smallest job."""
    mods = import_simphom()
    jobs = W.build(workload, seed, W.Inputs(mods, workdir))
    warm = min(jobs, key=lambda j: sum(j.size["counts"]))
    result = run_job(mods["cli"], warm)
    if not result["ok"]:
        raise RuntimeError(f"warm-up job {warm.name} failed: {result['problems']}")
    return mods, jobs


def tail_fraction(min_samples: int) -> float:
    """The highest percentile (as a fraction) with ten samples beyond it
    in a run of ``min_samples`` jobs; longer runs have more beyond it."""
    return (min_samples - 10) / min_samples


def tail(walls: list[float], fraction: float) -> float:
    """Nearest-rank quantile."""
    s = sorted(walls)
    return s[max(0, math.ceil(fraction * len(s)) - 1)]


def e2e_metrics(results, setup_times, min_samples: int):
    """End-to-end metrics on the reference scale (see SpeedProbe)."""
    def summary(key):
        walls = [r[key] for r in results]
        ok = [r[key] for r in results if r["ok"]]
        return {"jobs_per_s": len(ok) / sum(walls), "job_p50_s": statistics.median(walls),
                "job_tail_s": tail(walls, fraction),
                "setup_s": statistics.median(t[key] for t in setup_times)}

    fraction = tail_fraction(min_samples)
    n_ok = sum(r["ok"] for r in results)
    values = summary("ref_wall_s")
    values["ok_frac"] = n_ok / len(results)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {k: values[k] for k in E2E_UNITS}
    beyond = sum(r["ref_wall_s"] > values["job_tail_s"] for r in results)
    raw = summary("wall_s")
    notes = [f"job_tail_s is p{100 * fraction:.1f} of {len(results)} jobs ({beyond} beyond it)",
             f"failed_frac {1 - n_ok / len(results):.6g} ({len(results) - n_ok} of {len(results)})",
             f"setup_s is the median of {len(setup_times)} set-ups",
             "unscaled wall times: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())]
    return values, notes


def layer_metrics(tr: T.Tracer, passes: int, results: list) -> dict:
    totals = tr.layer_totals()
    counts = tr.counts
    out = {}
    for layer in TIMED_LAYERS:
        t = totals.get(layer, {"calls": 0, "self_s": 0.0})
        if layer not in NO_CALLS:
            out[f"{layer}.calls"] = t["calls"] / passes
        out[f"{layer}.self_s"] = t["self_s"] / passes
    for layer, names in LAYER_COUNTS.items():
        for name in names:
            key = f"{layer}.{name}"
            out[key] = counts[key] if name == "max_side" else counts[key] / passes
    groups = counts["homology.groups"]
    out["homology.snf_per_group"] = totals.get("snf", {"calls": 0})["calls"] / groups if groups else 0.0
    horns = counts["kan.horns"]
    out["kan.fillable_ratio"] = (horns - counts["kan.unfillable"]) / horns if horns else 0.0
    traced = sum(r["ref_wall_s"] for r in results if r["traced"])
    untraced = sum(r["ref_wall_s"] for r in results if not r["traced"])
    out["trace.overhead_frac"] = traced / untraced - 1
    return out


class SpeedProbe:
    """Tracks how fast this machine runs Python, so that times can be
    reported on a fixed scale.

    On a shared machine the speed of the same Python code drifts by 20% or
    more over tens of seconds, in CPU time as much as in wall time.  Two
    fixed kernels are timed between jobs: an integer loop and a dense
    integer mat-vec in the style of the library's own.  A job's wall time
    is scaled by REFERENCE_S over the median probe time within WINDOW_S of
    the job.  Raw times stay in the records and the report.
    """

    # a probe's time on an Intel Xeon 2.1 GHz vCPU when the host is quiet
    REFERENCE_S = 0.0025
    WINDOW_S = 2.0
    INTERVAL_S = 0.5

    def __init__(self):
        rng = random.Random(0)
        self.matrix = [[rng.choice([0] * 8 + [1, -1, 2]) * 1000003 for _ in range(200)]
                       for _ in range(200)]
        self.vector = [rng.randint(-10**6, 10**6) for _ in range(200)]
        self.samples: list[tuple[float, float]] = []   # (start time, probe seconds)

    def _time(self, kernel) -> float:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def _loop(self):
        acc = 0
        for i in range(20_000):
            acc += i * i % 7

    def _matvec(self):
        return [sum(a * b for a, b in zip(row, self.vector)) for row in self.matrix]

    def probe(self, force: bool = True) -> None:
        """One sample, the geometric mean of the two kernels' median times;
        unless forced, only if INTERVAL_S has passed since the last one."""
        t0 = time.perf_counter()
        if force or not self.samples or t0 - self.samples[-1][0] >= self.INTERVAL_S:
            self.samples.append((t0, math.sqrt(self._time(self._loop) * self._time(self._matvec))))

    def factor(self, t0: float, t1: float) -> float:
        near = [dt for t, dt in self.samples if t0 - self.WINDOW_S <= t <= t1 + self.WINDOW_S]
        return self.REFERENCE_S / statistics.median(near)

    def scale(self, r: dict) -> None:
        r["ref_wall_s"] = r["wall_s"] * self.factor(r["t0"], r["t1"])


def run_pass(mods, jobs, tr: T.Tracer | None, speed: SpeedProbe, results: list) -> None:
    for job in jobs:
        if tr is not None:
            tr.job += 1
        speed.probe(force=False)
        r = run_job(mods["cli"], job)
        r["traced"] = tr is not None
        results.append(r)
    speed.probe()


def measure(workload: str, seed: int, seconds: float, trace: bool):
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    speed = SpeedProbe()
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            speed.probe()
            t0 = time.perf_counter()
            mods, jobs = setup(workload, seed, workdir)
            t1 = time.perf_counter()
            speed.probe()
            setup_times.append({"t0": t0, "t1": t1, "wall_s": t1 - t0})
        results: list[dict] = []
        tr = T.Tracer() if trace else None
        passes = 0
        start = time.perf_counter()
        while passes < MIN_PASSES[workload] or time.perf_counter() - start < seconds:
            run_pass(mods, jobs, None, speed, results)
            if tr is not None:
                tr.install()
                try:
                    run_pass(mods, jobs, tr, speed, results)
                finally:
                    tr.uninstall()
            passes += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for r in setup_times + results:
        speed.scale(r)
    return jobs, results, setup_times, speed, tr, passes


def report(workload, seed, jobs, results, speed: SpeedProbe) -> list[str]:
    lines = []
    for job in jobs:
        mine = [r for r in results if r["job"] == job.name and not r["traced"]]
        lines.append("job " + json.dumps({
            "job": job.name, "runs": len(mine),
            "ref_wall_med_s": round(statistics.median(r["ref_wall_s"] for r in mine), 6),
            "wall_med_s": round(statistics.median(r["wall_s"] for r in mine), 6),
            "cpu_med_s": round(statistics.median(r["cpu_s"] for r in mine), 6),
            "failed": sum(not r["ok"] for r in mine), **job.size}))
    noisy = [r for r in results if r["wall_s"] > NOISE_RATIO * r["cpu_s"] + NOISE_SLACK_S]
    lines.append(f"noise: {len(noisy)} of {len(results)} jobs had wall > {NOISE_RATIO} x CPU "
                 f"+ {NOISE_SLACK_S} s (waiting for a processor)")
    for r in sorted(noisy, key=lambda r: r["cpu_s"] - r["wall_s"])[:5]:
        lines.append(f"  noisy {r['job']}: wall {r['wall_s']:.4f} s, cpu {r['cpu_s']:.4f} s")
    probes = sorted(dt for _, dt in speed.samples)
    lines.append(f"machine speed: reference loop {1000 * statistics.median(probes):.3f} ms median "
                 f"(quartiles {1000 * probes[len(probes) // 4]:.3f}-"
                 f"{1000 * probes[3 * len(probes) // 4]:.3f}) over {len(probes)} probes; "
                 f"times are scaled to {1000 * speed.REFERENCE_S:g} ms")
    for r in results:
        if not r["ok"]:
            lines.append(f"FAILED {r['job']}: {'; '.join(r['problems'])}")
    if workload == "homology-ladder":
        for rung in W.EXCLUDED_RUNGS:
            lines.append("excluded rung " + json.dumps(rung))
    with open(os.path.join(OUT, f"jobs-{workload}-seed{seed}.jsonl"), "w", encoding="utf-8") as fh:
        for r in results:
            fh.write(json.dumps(r) + "\n")
        fh.write(json.dumps({"speed_samples": speed.samples}) + "\n")
    return lines


def write_spans(tr: T.Tracer, workload: str, seed: int) -> str:
    path = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for k, rec in enumerate(tr.spans):
            fh.write(json.dumps({"id": k, "parent": rec[T.PARENT], "layer": rec[T.LAYER],
                                 "name": rec[T.NAME], "start": rec[T.START], "end": rec[T.END],
                                 "job": rec[T.JOB]}) + "\n")
    return path


def run_all(args) -> int:
    """Run every workload in a child process of its own (so that peak RSS
    is per workload) and combine their result lines."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in W.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",),
                    help="one workload, or all of them, each in its own process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        jobs, results, setup_times, speed, tr, passes = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, ImportError) as exc:
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 2
    lines = [f"workload {args.workload} seed {args.seed}: {passes} passes of {len(jobs)} jobs"]
    lines += report(args.workload, args.seed, jobs, results, speed)
    if tr is None:
        values, notes = e2e_metrics(results, setup_times, MIN_PASSES[args.workload] * len(jobs))
        units = E2E_UNITS
        lines += notes
    else:
        values = layer_metrics(tr, passes, results)
        units = {k: ("s" if k.endswith("_s") else "ratio" if k in (
            "homology.snf_per_group", "kan.fillable_ratio", "trace.overhead_frac")
            else "bytes" if k == "io.bytes" else "count") for k in values}
        lines.append(f"spans: {len(tr.spans)} written to {write_spans(tr, args.workload, args.seed)}")
    lines += [f"{k} {v:.6g} {units[k]}" for k, v in values.items()]
    failed = sum(not r["ok"] for r in results)
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
