"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 35 --trace 0

Run from the repository root.  The package is imported from ``src/``.
BLAS is pinned to one thread before numpy loads; a run whose thread
variables ask for more refuses to measure.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  Import time is measured in seven fresh interpreters.
A traced run first runs the same workload untraced in a child process and
reports the difference as the tracing overhead.
``--record`` stores this seed's check values in ``references.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKLOADS = ("corpus", "train-lrcn", "train-cnn")
END_TO_END = {  # name -> unit
    "setup_s": "s",
    "corpus_traj_per_s": "1/s",
    "train_samples_per_s": "1/s",
    "predict_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}
OVERHEAD = tuple(n for n in END_TO_END if n != "peak_rss_mb")
IMPORT_REPEATS = 7
IMPORT_PROBE = ("import time; t = time.perf_counter(); import inertialab.experiments; "
                "print(time.perf_counter() - t)")


def pin_threads():
    """Pin BLAS to one thread, or return why the run must not measure."""
    if "numpy" in sys.modules:
        return "numpy was imported before the thread variables were set"
    for var in THREAD_VARS:
        if os.environ.setdefault(var, "1") != "1":
            return f"{var}={os.environ[var]}: BLAS threads are not pinned to 1"
    return None


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def summary(values):
    """Median, count and the highest percentile with >= 10 samples beyond it."""
    values = sorted(values)
    text = f"median of {len(values)}"
    for pct in (99.9, 99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            rank = min(len(values) - 1, int(len(values) * pct / 100))
            return text + f", p{pct:g} {values[rank]:.6g}"
    return text


def import_seconds():
    """Package import time in fresh interpreters, one sample per repeat."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return [
        float(subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=60).stdout)
        for _ in range(IMPORT_REPEATS)
    ]


def untraced_values(args):
    """End-to-end values of the same workload and seed without tracing."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=3 * args.seconds + 60)
    except subprocess.TimeoutExpired:
        raise SystemExit("untraced reference run failed: timed out") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("untraced reference run failed")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's check values as references")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "inertialab").is_dir():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    refusal = pin_threads()
    if refusal:
        print(f"error: {refusal}", file=sys.stderr)
        return 2
    baseline = untraced_values(args) if args.trace else None
    imports = import_seconds()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads  # noqa: E402  (after the thread variables are set)

    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics, unit_of

        tracer = Tracer()
        tracer.install()
    run = workloads.Run(args.workload, args.seed, args.seconds, tracer)
    try:
        workloads.run_workload(run, ROOT)
    finally:
        if tracer:
            tracer.uninstall()

    samples = run.samples
    body = samples.pop("setup_body_s", [])
    if body:
        samples["setup_s"] = [statistics.median(imports) + statistics.median(body)]
    values = {n: statistics.median(v) for n, v in samples.items() if v}

    print("environment " + json.dumps(environment(), sort_keys=True))
    for name, unit in END_TO_END.items():
        if name == "setup_s" and body:
            note = (f"imports {statistics.median(imports):.4f} s ({summary(imports)}) "
                    f"+ set-up {statistics.median(body):.4f} s ({summary(body)})")
        else:
            note = summary(samples.get(name, []))
        print(f"{name:24s} {values.get(name, float('nan')):14.6f} {unit:4s} {note}")

    if tracer:
        errors = tracer.completeness_errors()
        for err in errors:
            print(f"span completeness: {err}", file=sys.stderr)
        run.check("span completeness", not errors)
        metrics = {n: (v, unit_of(n)) for n, v in layer_metrics(tracer).items()}
        for name in OVERHEAD:
            traced, plain = values.get(name), baseline.get(name)
            if traced and plain:
                ratio = traced / plain if name == "setup_s" else plain / traced
                metrics[f"trace.overhead.{name}"] = (100.0 * (ratio - 1.0), "%")
        _, calls = tracer.self_times()
        for name in sorted(calls):
            print(f"span {name:34s} {calls[name]:7d} calls  "
                  f"{summary(tracer.durations(name))}")
        for name, (value, _) in metrics.items():
            print(f"{name:34s} {value}")
    else:
        metrics = {n: (values.get(n), unit) for n, unit in END_TO_END.items()}

    if args.record:
        workloads.record_references(run)
    for problem in run.problems:
        print(problem, file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
