#!/usr/bin/env python3
"""Benchmark of pinninglab: one workload per process, untraced or traced.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout; pinninglab is imported from its
`src/` and nowhere else. A pass runs every job of the workload, writes
records and CSVs under `.perfbench/` and checks the outputs; passes repeat
with the same seed until --seconds have elapsed, and their CSV digests
must match. With --trace 0 the last line carries the end-to-end metrics
(median pass time, median set-up time of fresh processes, peak RSS);
with --trace 1, half the time runs untraced and half traced, and it
carries the per-layer metrics. The traced run also writes its spans to
`.perfbench/trace-<workload>-seed<seed>.json`. The exit code is 0 only
when every check passed. README.md documents the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
WORKLOAD_NAMES = ("certify", "iid-pools", "renewal-paths")

# layers whose zero call count fails a traced run, per workload
EXPECTED_LAYERS = {
    "certify": ["hierarchy.recursion", "hierarchy.cascade", "gaussian.tilt",
                "gaussian.density_ratio", "hiermc.tilted_mean", "hiermc.certify",
                "experiments.run", "records.write"],
    "iid-pools": ["hierarchy.recursion", "hiermc.pool", "quenched.dp",
                  "numerics.logsumexp", "renewal.free_energy", "renewal.green",
                  "experiments.run", "records.write"],
    "renewal-paths": ["quenched.coarse_grain", "quenched.w_statistic",
                      "quenched.u_weight_table", "quenched.chung_erdos",
                      "quenched.dp", "numerics.logsumexp", "renewal.green",
                      "renewal.sample_path", "renewal.conditioning_ratio",
                      "experiments.run", "records.write"],
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _limit_threads() -> None:
    """Cap numpy's BLAS threads at the cores this process may use."""
    for var in BLAS_VARS:
        os.environ[var] = str(min(int(os.environ.get(var) or NPROC), NPROC))


def _setup_seconds(workload: str) -> float:
    """Seconds from spawning a fresh interpreter to the workload being ready:
    pinninglab imported and its laws and coupling specs built."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "--probe",
                           "--workload", workload], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


class Passes:
    """Runs a workload's jobs pass after pass and tallies their checks."""

    def __init__(self, jobs, work_dir: Path):
        self.jobs, self.work_dir = jobs, work_dir
        self.count = self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.values: dict[str, object] = {}
        self.reference: dict[str, str] | None = None
        self.job_s: dict[str, list[float]] = {job.name: [] for job in jobs}

    def tally(self, job: str, check: str, ok: bool, value) -> None:
        key = f"{job}.{check}"
        self.attempted += 1
        self.values[key] = value
        if not ok:
            self.failed += 1
            self.failures.append(f"pass {self.count}: {key} = {value}")

    def _run_jobs(self, out: Path) -> None:
        for job in self.jobs:
            t0 = perf_counter()
            try:
                result = job.run(out)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                for check in ("completed", *job.checks):
                    self.tally(job.name, check, False, "job raised")
                continue
            self.tally(job.name, "completed", True, True)
            for check, judge in job.checks.items():
                try:
                    ok, value = judge(result)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    ok, value = False, "check raised"
                self.tally(job.name, check, bool(ok), value)
            self.job_s[job.name].append(perf_counter() - t0)
            for name, diag in job.diagnostics.items():
                self.values[f"{job.name}.{name}"] = diag(result)

    def one(self) -> float:
        """One timed pass: the jobs, their checks and the digest comparison."""
        out = self.work_dir / f"pass-{self.count}"
        t0 = perf_counter()
        self._run_jobs(out)
        digests = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out.rglob("*.csv"))}
        if self.reference is None:
            self.reference = digests
        else:
            self.tally("determinism", "csv_digests_match", digests == self.reference,
                       len(digests))
        wall = perf_counter() - t0
        shutil.rmtree(out, ignore_errors=True)
        self.count += 1
        return wall

    def repeat(self, seconds: float, at_least: int, after=None) -> list[float]:
        walls = []
        t_end = perf_counter() + seconds
        while len(walls) < at_least or perf_counter() < t_end:
            walls.append(self.one())
            if after is not None:
                after()
        return walls


def _run_workload(args) -> int:
    try:
        import pinninglab
    except ImportError as exc:
        print(f"error: cannot import pinninglab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(pinninglab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: pinninglab imported from {pinninglab.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import tracing
    import workloads

    jobs = workloads.WORKLOADS[args.workload](args.seed)
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": NPROC,
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "pinninglab": pinninglab.__version__,
            "configs": {job.name: job.config for job in jobs if job.config}}
    metrics: dict[str, dict] = {}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        passes = Passes(jobs, Path(tmp))
        # an untimed first pass fills lazy state (the BLAS thread pool,
        # hierarchy.k_hat's cache) and sets the reference CSV digests
        info["warmup_s"] = passes.one()
        if not args.trace:
            setups = [_setup_seconds(args.workload) for _ in range(SETUP_PROBES)]
            walls = passes.repeat(args.seconds, at_least=3)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            info.update(pass_wall_s=walls, setup_s=setups)
            metrics = {"wall_s": {"value": statistics.median(walls), "unit": "s"},
                       "setup_s": {"value": statistics.median(setups), "unit": "s"},
                       "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
        else:
            walls = passes.repeat(args.seconds / 2, at_least=2)
            tracer = tracing.Tracer()
            per_pass, spans_out = [], []

            def collect():
                spans, counted = tracer.take()
                spans_out.append(spans)
                per_pass.append(tracing.layer_metrics(spans, counted))
                calls = tracing.call_counts(spans, counted)
                for layer in EXPECTED_LAYERS[args.workload]:
                    passes.tally("trace", f"{layer}.calls", calls[layer] > 0, calls[layer])

            tracer.install()
            try:
                traced = passes.repeat(args.seconds / 2, at_least=2, after=collect)
            finally:
                tracer.uninstall()
            info.update(pass_wall_s=walls, traced_pass_wall_s=traced)
            for name in per_pass[0]:
                unit = tracing.unit_of(name.rsplit(".", 1)[1])
                metrics[name] = {"value": statistics.median(p[name] for p in per_pass),
                                 "unit": unit}
            metrics["trace.overhead_s"] = {
                "value": statistics.median(traced) - statistics.median(walls), "unit": "s"}
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "span_fields": ["name", "start", "end", "parent", "work"],
                "passes": spans_out}))
            info["trace_file"] = str(trace_file.relative_to(ROOT))

    info.update(passes=passes.count, checks=passes.values, failures=passes.failures,
                job_median_s={k: statistics.median(v) for k, v in passes.job_s.items() if v})
    print(json.dumps(info, default=str))
    summary = " | ".join(f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()
                         if not args.trace or k == "trace.overhead_s")
    print(f"{args.workload}: {summary} | failed_frac "
          f"{passes.failed / max(passes.attempted, 1):.6g} "
          f"({passes.failed}/{passes.attempted})")
    print(json.dumps({"correct": passes.failed == 0, "attempted": passes.attempted,
                      "failed": passes.failed, "metrics": metrics}))
    return 0 if passes.failed == 0 else 1


def _run_all(args) -> int:
    """Each workload in its own process; prints one summary line per workload."""
    worst = 0
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print(lines[-2] if len(lines) >= 2 else f"{workload}: no result", flush=True)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    args = _parse(argv)
    _limit_threads()
    sys.path.insert(0, str(ROOT / "src"))
    if args.probe:
        import workloads
        workloads.setup(args.workload)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
