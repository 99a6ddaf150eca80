"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload sr_regular --seed 1 --seconds 35 --trace 0

Run it from the root of a checkout of the repository. It makes the seeded
inputs, times set-up in several fresh interpreters, runs the workload in its
own process, prints every metric with its unit, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are BENCHMARK.json's end-to-end metrics, with
``--trace 1`` its per-layer metrics. The full record of a run, with the
environment, goes to ``.bench_work/results/``; the spans of a traced run to
``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import BLAS_THREADS, CONFIGS, ROOT, SRC, WORKLOADS

# Interpreter starts timed per run for setup_s; the last one is the worker.
SETUP_SAMPLES = 5
# One process must finish within this; a whole run stays under 180 s.
CHILD_TIMEOUT_S = 150.0
# Printed with the end-to-end metrics but not declared in BENCHMARK.json:
# on a host whose speed switches between two levels, the median step of a run
# jumps between them and its 95th percentile follows how often the host
# preempts it, so neither holds a bound (see README.md).
PRINTED_ONLY = {"step_p50_ms": "ms", "step_p95_ms": "ms"}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def make_inputs(workload, seed: int, work: str) -> dict:
    """Seeded inputs, written before any process is timed."""
    sys.path.insert(0, str(SRC))
    import inputs

    manifest = {"workload": workload.name, "seed": seed, "config": workload.config}
    if workload.kind == "sr":
        manifest.update(inputs.write_sr_inputs(work, str(CONFIGS / workload.config), seed, workload.pool, workload.lr_side))
    return manifest


def spawn(manifest_path: str, result_path: str, probe: bool) -> tuple[float, dict]:
    """Run one worker process; returns (seconds from spawn to ready, result)."""
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "worker.py"),
           "--manifest", manifest_path, "--result", result_path]
    if probe:
        cmd.append("--probe")
    t0 = time.monotonic()
    subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=CHILD_TIMEOUT_S)
    with open(result_path) as f:
        result = json.load(f)
    return result["ready"] - t0, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="crossagg benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "crossagg" / "__init__.py").is_file():
        print(f"perfbench: no crossagg sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]

    workload = WORKLOADS[args.workload]
    blas_threads = max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)  # read when numpy loads, here and in the workers
    bench_dir = ROOT / ".bench_work"
    work = bench_dir / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    for sub in ("results", "traces"):
        (bench_dir / sub).mkdir(exist_ok=True)
    try:
        manifest = make_inputs(workload, args.seed, str(work))
        manifest.update(seconds=args.seconds, trace=args.trace,
                        trace_path=str(bench_dir / "traces" / f"{workload.name}.npz"))
        manifest_path = str(work / "manifest.json")
        with open(manifest_path, "w") as f:
            json.dump(manifest, f)
        setups = []
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                setups.append(spawn(manifest_path, str(work / f"probe{k}.json"), probe=True)[0])
        ready, result = spawn(manifest_path, str(work / "result.json"), probe=False)
        setups.append(ready)
    except (subprocess.SubprocessError, OSError, KeyError, ValueError) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    try:
        out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    except KeyError as e:
        print(f"perfbench: the worker did not report metric {e}", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    env = dict(result["env"], nproc=os.cpu_count(), cpus_usable=len(os.sched_getaffinity(0)),
               cpu_model=cpu_model(), python=sys.version.split()[0], blas_threads_requested=blas_threads)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "env": env, "attempted": attempted, "failed": failed, "metrics": out,
              "setup_samples_s": setups,
              "requests_s": result["requests_s"], "steps_s": result["steps_s"]}
    with open(bench_dir / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)

    print(f"{workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in out.items():
        print(f"  {name:44s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        for name, unit in PRINTED_ONLY.items():
            print(f"  {name:44s} {metrics[name]:>16.6g} {unit} (printed only)")
    print(f"  {'failed_frac':44s} {failed / attempted:>16.6g} failed/attempted ({failed}/{attempted})")
    print(f"  samples: {len(result['requests_s'])} requests, {len(result['steps_s'])} steps, {len(setups)} set-ups")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
