"""modalkit benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload oneshot --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; modalkit is imported from ``src/`` there.
A run sets up: it generates and writes the pass-0 inputs and runs a small
warm-up on other inputs, three times, and times a fresh interpreter's import
of the package three times; ``setup_s`` is the sum of the two medians.  It
then runs whole passes of the workload's job list while they fit in
``--seconds`` (at least one; each pass on fresh inputs), and checks every
pass's outputs against numpy after the pass.  Every end-to-end time is
scaled by the host-speed probe timed around it (``speed.py``).  The last line of stdout is
the result: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass and then the same pass again with the layer tracer installed,
and reports the per-layer metrics; the spans go to
``.perfbench/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:  # must happen before numpy is imported
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPS = 3
PROBE_WARMUP = 30  # probes run before the first timed one, so the probe's own code is warm
IMPORT_REPS = 3
IMPORT_PROBE = "import time; t = time.perf_counter(); import modalkit; print(time.perf_counter() - t)"


def fail(message: str, code: int = 2) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(code)


def import_program():
    """Import numpy and modalkit from the checkout's ``src/``; returns numpy."""
    if "numpy" in sys.modules:
        fail("numpy was imported before the thread pinning")
    src = ROOT / "src"
    if not (src / "modalkit").is_dir():
        fail(f"no modalkit sources under {src}; run from the root of a modalkit checkout")
    sys.path.insert(0, str(src))
    import numpy
    import modalkit

    if Path(modalkit.__file__).resolve().parent != (src / "modalkit").resolve():
        fail(f"imported modalkit from {modalkit.__file__}, not from {src}")
    return numpy


def import_seconds(speed) -> float:
    """Median scaled time a fresh interpreter takes to import the package (numpy included)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(IMPORT_REPS):
        before = speed.probe()
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if child.returncode != 0:
            fail(f"importing modalkit in a fresh interpreter failed: {child.stderr.strip()}")
        times.append(speed.scale(float(child.stdout), before, speed.probe()))
    return statistics.median(times)


def blas_threads(np) -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if there is none to ask."""
    libdirs = [Path(np.__file__).parent.parent / "numpy.libs", Path(np.__file__).parent / ".libs"]
    for lib_path in [p for d in libdirs for p in sorted(glob.glob(str(d / "*openblas*")))]:
        lib = ctypes.CDLL(lib_path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(np, threads) -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_job(job):
    """Run one job; returns (seconds, result).  A traceback out of the program is a failed job."""
    t0 = time.perf_counter()
    try:
        result = job.run()
    except Exception as exc:
        result = exc
    return time.perf_counter() - t0, result


def run_pass(jobs, tracer=None):
    """Run every job once, in order; returns (latencies, results, start, end)."""
    lats, results = [], []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
            root = tracer.begin("bench.job")
        lat, result = run_job(job)
        if tracer is not None:
            tracer.end(root)
        lats.append(lat)
        results.append(result)
    return lats, results, start, time.perf_counter()


def run_scaled_pass(jobs, speed):
    """Run every job once with a speed probe between jobs; returns (scaled latencies, raw latencies, results)."""
    scaled, raw, results = [], [], []
    before = speed.probe()
    for job in jobs:
        lat, result = run_job(job)
        after = speed.probe()
        scaled.append(speed.scale(lat, before, after))
        raw.append(lat)
        results.append(result)
        before = after
    return scaled, raw, results


def check_pass(jobs, results) -> list[str]:
    failures = []
    for job, result in zip(jobs, results):
        if isinstance(result, Exception):
            reason = f"raised {type(result).__name__}: {result}"
        else:
            try:
                reason = job.check(result)
            except Exception as exc:  # malformed output
                reason = f"unreadable output ({type(exc).__name__}: {exc})"
        if reason:
            failures.append(f"{job.label}: {reason}")
    return failures


def setup(build, warm, seed, work: Path, speed):
    """Generate and write the pass-0 inputs and warm up, SETUP_REPS times; returns (jobs, scaled median)."""
    for _ in range(PROBE_WARMUP):
        speed.probe()
    times, jobs = [], None
    for rep in range(SETUP_REPS):
        before = speed.probe()
        t0 = time.perf_counter()
        rep_dir = work / f"setup{rep}"
        (rep_dir / "warm").mkdir(parents=True)
        jobs = build(seed, 0, rep_dir)
        run_pass(warm(seed, rep_dir / "warm"))  # its outputs are not checked; the measured passes' are
        times.append(speed.scale(time.perf_counter() - t0, before, speed.probe()))
    return jobs, statistics.median(times)


def quantile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    np = import_program()
    threads = blas_threads(np)
    if threads is not None and threads != 1:
        fail(f"BLAS runs {threads} threads, not 1; refusing to report", 3)
    env = environment(np, threads)

    import speed
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", 1)
    build, warm = workloads.WORKLOADS[args.workload]
    work = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        jobs, setup_s = setup(build, warm, args.seed, work, speed)
        if args.trace:
            result = traced_run(args, jobs, env, tracer)
        else:
            result = untraced_run(args, build, jobs, work, setup_s + import_seconds(speed), env, speed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


def end_to_end_metrics(setup_s: float, walls, lats, peak_rss_mb: float) -> dict:
    """The end-to-end metrics as {name: (value, unit)}; walls are pass sums of lats, in seconds."""
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "job_p50_ms": (quantile(lats, 50) * 1000.0, "ms"),
        "job_p90_ms": (quantile(lats, 90) * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def untraced_run(args, build, jobs, work: Path, setup_s: float, env: dict, speed) -> dict:
    """Whole passes while they fit in --seconds; each pass is checked after it ends."""
    walls, raw_walls, lats, failures, trials, peak_rss_mb = [], [], [], [], 0, None
    by_label: dict[str, list[float]] = {}
    while True:
        pass_lats, pass_raw, results = run_scaled_pass(jobs, speed)
        if peak_rss_mb is None:  # after one whole pass, before the checker allocates
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls.append(sum(pass_lats))
        raw_walls.append(sum(pass_raw))
        lats += pass_lats
        failures += check_pass(jobs, results)
        trials += sum(job.trials for job in jobs)
        for job, lat in zip(jobs, pass_lats):
            by_label.setdefault(job.label, []).append(lat * 1000.0)
        # Scaled times decide, so the pass count does not flip with the host's speed.
        if sum(walls) + walls[-1] > args.seconds:
            break
        pass_dir = work / f"pass{len(walls)}"
        pass_dir.mkdir()
        jobs = build(args.seed, len(walls), pass_dir)
    attempted = len(lats)
    metrics = end_to_end_metrics(setup_s, walls, lats, peak_rss_mb)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(walls),
        "pass_walls_s": walls,
        "pass_raw_walls_s": raw_walls,
        "job_ms_by_label": {label: statistics.median(v) for label, v in sorted(by_label.items())},
        "jobs": attempted,
        "failed_frac": len(failures) / attempted,
        "trials_per_s": trials / sum(walls) if trials else None,
        "probe_reference_s": speed.REFERENCE_S,
        "env": env,
        "failures": failures[:20],
    }
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16s} {name:14s} {value:14.6g} {unit}")
    print(f"{args.workload:16s} {'failed_frac':14s} {report['failed_frac']:14.6g} ratio  ({len(failures)} of {attempted} jobs)")
    print(f"{args.workload:16s} percentiles over {attempted} jobs in {len(walls)} passes")
    if trials:
        print(f"{args.workload:16s} {'trials_per_s':14s} {report['trials_per_s']:14.6g} 1/s  ({trials} trials)")
    print(json.dumps({"report": report}))
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def traced_run(args, jobs, env: dict, tracer_mod) -> dict:
    _, plain_results, plain_start, plain_end = run_pass(jobs)
    tracer = tracer_mod.Tracer()
    missing = tracer.install()
    try:
        lats, results, start, end = run_pass(jobs, tracer)
    finally:
        tracer.uninstall()
    failures = check_pass(jobs, plain_results) + check_pass(jobs, results)
    consistency = tracer_mod.consistency(tracer.spans, start, end)
    emit_bytes = sum(len(r[1]) for r in results if isinstance(r, tuple))
    extra = {
        "trials": sum(job.trials for job in jobs),
        "emit_bytes": emit_bytes,
        "trace_overhead_frac": (end - start) / (plain_end - plain_start) - 1.0,
    }
    inputs = sum(job.inputs for job in jobs) + extra["trials"]
    metrics = tracer_mod.layer_metrics(tracer, inputs, extra)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "jobs": [job.label for job in jobs],
                "spans": [[s.name, s.start - start, s.end - start, s.parent, s.job] for s in tracer.spans],
            }
        ),
        encoding="utf-8",
    )
    for name, value in metrics.items():
        print(f"{args.workload:16s} {name:30s} {value:14.6g} {tracer_mod.unit_of(name)}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "jobs": len(jobs),
        "consistency": consistency,
        "missing_targets": missing,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "env": env,
        "failures": failures[:20],
    }
    print(json.dumps({"report": report}))
    if not consistency["ok"]:
        failures.append(f"trace consistency check failed: {consistency}")
    return {
        "correct": not failures,
        "attempted": 2 * len(jobs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": tracer_mod.unit_of(name)} for name, value in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
