"""End-to-end and per-layer benchmark of ncresidue.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload canonical-table --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout; nothing is built or
installed.  The seed fixes every input (see ``inputs.py``).  One process
carries the whole load: library workloads call with default arguments (one
thread), and the CLI workload uses the CLI's default thread count.

With ``--trace 0`` the run times repeated solves with tracing off for
``--seconds`` seconds (at least two solves) and reports the end-to-end
metrics:

* ``solve_s``      median seconds per verified solve;
* ``setup_s``      median, over fresh interpreters, of importing the package
                   plus the workload's constructors and config parsing;
* ``peak_rss_mb``  peak resident memory of this process after two solves;
* ``max_rel_err``  largest |value - reference| / scale over the results;
* ``max_rel_bar``  largest reported error bar / scale over the results.

With ``--trace 1`` half of the time goes to untraced solves and half to
traced set-up plus solve iterations; the run reports the per-layer metrics
of ``tracer.LAYER_METRICS`` (medians over the traced iterations), checks the
workload's predicted layer shares and writes the spans to
``.bench_out/trace-<workload>.jsonl``.

Every solve is checked against closed-form references, and repeated solves
must agree bit for bit; a solve that misses a check counts as failed.  The
last line of standard output is the JSON result; the lines before it record
the run environment, the solve times and, when tracing, the predictions.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import inputs
import tracer as tr
import workloads

SETUP_PROBES = 9
MIN_SOLVES = 2
PROBE_TIMEOUT_S = 120
HERE = Path(__file__).resolve().parent


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _openblas_threads():
    """Thread count of the OpenBLAS library numpy loaded, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(nc) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    try:
        cli_threads = nc.cli.threads_from_environment()
    except AttributeError as exc:
        cli_threads = f"absent: {exc}"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                      "MKL_NUM_THREADS", "RESIDUE_THREADS")},
        "cli_threads": cli_threads,
    }


def probe_setup(workload: str, seed: int, workdir: str, root: Path) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), workdir],
            cwd=root, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def _fits(start: float, times: list[float], budget: float) -> bool:
    """Whether one more solve of median length ends within the budget."""
    return bool(times) and time.perf_counter() - start + statistics.median(times) <= budget


class Solves:
    """Runs, times and checks solves; keeps what the result line needs."""

    def __init__(self, nc, wl, inp, prepared, workdir):
        self.nc, self.wl, self.inp, self.prepared, self.workdir = nc, wl, inp, prepared, workdir
        self.times: list[float] = []  # verified solves
        self.all_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.results: list = []
        self.fingerprint = None

    def run(self, state, tracer=None):
        """One timed and checked solve; returns the "bench.solve" span when tracing.

        Returns None when the solve failed.
        """
        self.attempted += 1
        span = tracer.begin("bench.solve") if tracer else None
        t0 = time.perf_counter()
        try:
            try:
                out = self.wl.solve(self.nc, state, self.workdir)
            finally:
                dt = time.perf_counter() - t0
                self.all_times.append(dt)
                if span:
                    tracer.end(span)
            results, problems, fingerprint = self.wl.check(self.inp, self.prepared, state, out, self.workdir)
        except Exception:  # a failing solve is counted, and the run goes on
            self.failed += 1
            self.problems.append(traceback.format_exc(limit=3))
            print(self.problems[-1], file=sys.stderr)
            return None
        self.results.extend(results)
        problems = list(problems)
        problems += [f"{r.label}: {r.value!r} vs reference {r.reference!r} (allow {r.allow:.3g})"
                     for r in results if not r.ok]
        if self.fingerprint is None:
            self.fingerprint = fingerprint
        elif fingerprint != self.fingerprint:
            problems.append("result differs bit-wise from the first solve of this run")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
            return None
        self.times.append(dt)
        return span


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ncresidue" / "__init__.py").is_file():
        return _fail(f"no program source at {root / 'src' / 'ncresidue'}; run from the root of a checkout")
    # the CLI workload runs with the CLI's own default thread count
    os.environ.pop("RESIDUE_THREADS", None)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    inp = inputs.generate(args.workload, args.seed)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        inputs.write_configs(inp, workdir)
        setup_times = probe_setup(args.workload, args.seed, workdir, root) if args.trace == 0 else []

        sys.path.insert(0, str(root / "src"))
        import ncresidue as nc
        import ncresidue.cli  # noqa: F401

        if not Path(nc.__file__).resolve().is_relative_to((root / "src").resolve()):
            return _fail(f"ncresidue was imported from {nc.__file__}, not from this checkout")
        wl = workloads.WORKLOADS[args.workload]
        prepared = wl.prepare(nc, inp, workdir)
        solves = Solves(nc, wl, inp, prepared, workdir)
        state = wl.setup(nc, inp, workdir)

        budget = args.seconds if args.trace == 0 else args.seconds / 2.0
        min_solves = MIN_SOLVES if args.trace == 0 else 1
        start = time.perf_counter()
        while solves.attempted < min_solves or _fits(start, solves.times, budget):
            solves.run(state)
            if solves.attempted == min_solves:
                # after a fixed number of solves, so that runs with more
                # solves do not get more chances at a higher peak
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        untraced_attempts = solves.attempted

        layers = None
        if args.trace == 1:
            layers = traced_iterations(nc, wl, inp, workdir, solves, budget, out_dir, args.workload)

        print(json.dumps({"env": environment(nc)}))
        print(json.dumps({"solves": {
            "attempted": solves.attempted, "untraced": untraced_attempts, "failed": solves.failed,
            "verified_seconds": solves.times, "problems": solves.problems[:10],
        }}))
        if args.trace == 0:
            metrics = end_to_end(solves, setup_times, peak_rss_mb)
        else:
            print(json.dumps({"layers": layers["report"]}))
            metrics = layers["metrics"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": solves.failed == 0,
        "attempted": solves.attempted,
        "failed": solves.failed,
        "metrics": metrics,
    }))
    return 0


def end_to_end(solves: Solves, setup_times: list[float], peak_rss_mb: float) -> dict:
    """The end-to-end metrics.  Without a verified solve (the run is then
    incorrect) solve_s falls back to all solves and the errors to 1, so the
    result line stays valid JSON."""
    results = solves.results
    return {
        "solve_s": {"value": statistics.median(solves.times or solves.all_times), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "max_rel_err": {"value": _finite(max((r.rel_err for r in results), default=1.0)), "unit": "ratio"},
        "max_rel_bar": {"value": _finite(max((r.rel_bar for r in results), default=1.0)), "unit": "ratio"},
    }


def _finite(x: float) -> float:
    return x if math.isfinite(x) else 1.0


def traced_iterations(nc, wl, inp, workdir, solves: Solves, budget, out_dir: Path, workload: str) -> dict:
    """Traced set-up plus solve, repeated for ``budget`` seconds (at least once)."""
    tracer = tr.Tracer()
    untraced = statistics.median(solves.times or solves.all_times)
    per_iteration = []
    tracer.install(nc)
    try:
        start = time.perf_counter()
        iterations = 0
        while iterations < 1 or _fits(start, [m["trace.solve_s"] for m in per_iteration], budget):
            iterations += 1
            setup_span = tracer.begin("bench.setup")
            state = wl.setup(nc, inp, workdir)
            tracer.end(setup_span)
            solve_span = solves.run(state, tracer)
            if solve_span is None:
                continue
            metrics = tr.window_metrics(tracer.spans, tracer.enumerations,
                                        setup_span[tr.START], solve_span[tr.END])
            metrics["trace.solve_s"] = solve_span[tr.END] - solve_span[tr.START]
            metrics["trace.overhead_frac"] = metrics["trace.solve_s"] / untraced - 1.0
            per_iteration.append(metrics)
    finally:
        tracer.uninstall()
    tracer.write(out_dir / f"trace-{workload}.jsonl")

    absent = tr.absent_metrics(tracer.absent)
    if per_iteration:
        values = tr.median_metrics(per_iteration)
        predictions = workloads.check_predictions(workload, values)
    else:
        values = {name: 0.0 for name in tr.LAYER_METRICS}
        predictions = []
    metrics = {}
    for name, unit in tr.LAYER_METRICS.items():
        entry = {"value": values[name], "unit": unit}
        if name in absent:
            entry["absent"] = absent[name]
        metrics[name] = entry
    report = {
        "traced_iterations": len(per_iteration),
        "predictions": predictions,
        "absent": absent,
        "spans": len(tracer.spans),
        "trace_file": str((out_dir / f"trace-{workload}.jsonl").relative_to(out_dir.parent)),
    }
    return {"metrics": metrics, "report": report}


if __name__ == "__main__":
    sys.exit(main())
