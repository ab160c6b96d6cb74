"""idleclimb benchmark: one command per workload, from the repository root.

    python3 bench/run.py --workload worker_steady --seed 1 --seconds 30 --trace 0

Runs one workload against the sources in ``src/``, checks that every
result is correct, prints the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``), and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  Exits 1 when a
correctness check fails (a traced run also fails when a tracing hook was
never called) and 2 when the sources or a tracing hook cannot be found.  See
``bench/README.md`` for the workloads, the metrics and their predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
OUT = os.path.join(ROOT, ".bench_out")


def machine_record(job_dir: str) -> dict:
    """nproc, CPU model, Python and numpy versions, and the file system the
    job directories live on, read from /proc."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fs_type, best = "unknown", ""
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                mount = parts[1]
                inside = job_dir == mount or job_dir.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fs_type = mount, parts[2]
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "job_dir_fs": fs_type,
    }


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def end_to_end(p) -> dict:
    return {
        "setup_s": (_median(p.setup_s), "s"),
        "evals_per_s": (p.evals_per_s, "1/s"),
        "peak_rss_mb": (p.peak_rss_kb / 1024, "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["worker_steady", "fleet_climb", "sim_p50"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "idleclimb", "__init__.py")):
        print(f"error: idleclimb sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import idleclimb

    if os.path.dirname(os.path.abspath(idleclimb.__file__)) != os.path.join(SRC, "idleclimb"):
        print(f"error: imported idleclimb from {idleclimb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    missing = tracing.missing_hooks() if args.trace else []
    if missing:
        print("error: tracing hooks missing: " + ", ".join(missing), file=sys.stderr)
        return 2
    run = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(OUT, exist_ok=True)
    print("machine " + json.dumps(machine_record(os.path.abspath(WORK))))
    passes = []
    try:
        for trace in ([False, True] if args.trace else [False]):
            sub = os.path.join(workdir, "traced" if trace else "plain")
            os.makedirs(sub)
            passes.append(run(args.seed, args.seconds, trace, sub, OUT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    errors = [e for p in passes for e in p.errors]
    if args.trace and args.workload == "sim_p50":
        plain_lines, traced_lines = passes[0].sim_lines, passes[1].sim_lines
        common = plain_lines.keys() & traced_lines.keys()
        if not common or any(plain_lines[s] != traced_lines[s] for s in common):
            errors.append("traced simulator reports differ from untraced ones")
    if args.trace:
        agg = tracing.merge_summaries(passes[1].trace_parts)
        errors += [f"traced run never called {name}"
                   for name in tracing.unrecorded(agg, args.workload == "sim_p50")]
    for error in errors:
        print(f"correctness: {error}", file=sys.stderr)

    plain = passes[0]
    print("unscaled " + json.dumps({
        "evals_per_s": _median(plain.raw_rates),
        "setup_s": _median(plain.raw_setup_s),
        "speed": _median(plain.speeds),
    }))
    if args.trace:
        traced = passes[1]
        overhead = 1.0 - traced.evals_per_s / plain.evals_per_s if plain.evals_per_s else 0.0
        metrics = tracing.per_layer(
            agg,
            {
                "lock_breaks": traced.lock_breaks,
                "changes_log_bytes": _mean(traced.changes_log_bytes),
                "final_exact": _mean(traced.final_exact),
                "final_drift": _mean(traced.final_drift),
                "sim_efficiency": _mean(traced.sim_efficiency),
                "sim_quiesce": _mean(traced.sim_quiesce),
                "jobs": traced.jobs,
                "overhead_share": overhead,
                "report_ms": _median(traced.report_ms),
            },
        )
    else:
        metrics = end_to_end(plain)
    result = {
        "correct": not errors,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
