"""One benchmark workload in its own process.

Started by run.py, never by hand:

    python3 perfbench/worker.py --manifest M --result R [--probe]

The process sets up exactly as a user's would (imports, config parse, and
``load_weights`` or ``init_params``), stamps the time it became ready, and
with ``--probe`` stops there. Otherwise it checks the reference case, which
also warms the process up, runs the closed loop for the manifest's seconds,
checks every output, and writes its figures to the result file.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback

from workloads import (
    CONFIGS,
    DEFAULT_SEED,
    MAX_LEVEL_DIFF,
    OVERFIT_MIN_REDUCTION,
    OVERFIT_STEPS,
    REF_LOSS_RTOL,
    REF_STEPS,
    REPEAT_LOSS_RTOL,
    SRC,
    WORKLOADS,
    reference_paths,
)

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from crossagg import harness, imaging, model  # noqa: E402


def log(msg: str) -> None:
    print(f"[worker] {msg}", file=sys.stderr, flush=True)


def blas_record() -> dict:
    """numpy and OpenBLAS versions and the thread count OpenBLAS runs with."""
    import ctypes

    info = {"numpy": np.__version__}
    try:
        info["openblas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        info["openblas"] = "unknown"
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    info["blas_threads"] = "unknown"
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["blas_threads"] = getter()
    return info


class Loop:
    """Closed loop with one client: the next operation starts when the
    previous one has finished and been checked."""

    def __init__(self):
        # Seconds per request (an image, or a run_overfit call) and per model
        # step (the forward pass of an image request, or one training step).
        self.requests: list[float] = []
        self.steps: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.output_px = 0
        self.elapsed = 0.0

    def run(self, op, seconds: float, min_ops: int = 1) -> None:
        """Runs operations until the next one, at the mean duration of those
        done, would end past ``seconds``; at least ``min_ops`` run. A run so
        stays within its measuring time however long one operation takes."""
        start = time.perf_counter()
        i = 0
        while i < min_ops or (time.perf_counter() - start) * (i + 1) / i <= seconds:
            try:
                ok = op(i, self)
            except Exception:  # noqa: BLE001 - a failed operation is counted, the loop goes on
                traceback.print_exc()
                ok = False
            self.count(ok)
            i += 1
        self.elapsed += time.perf_counter() - start

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


class SrWorkload:
    def __init__(self, manifest: dict):
        self.config = model.parse_config(str(CONFIGS / manifest["config"]))
        expected = [name for name, _, _ in model.parameter_schema(self.config)]
        self.store = model.load_weights(manifest["weights"], expected_names=expected)
        self.requests = manifest["requests"]
        self.ref = reference_paths(manifest["workload"])

    def check_reference(self) -> bool:
        out = harness.restore_image(self.store, self.config, imaging.load_image(str(self.ref["lr"])))
        want = imaging.load_image(str(self.ref["out"]))
        if out.data.shape != want.data.shape:
            log(f"reference output shape {out.data.shape} != recorded {want.data.shape}")
            return False
        diff = int(np.abs(out.data.astype(np.int16) - want.data.astype(np.int16)).max())
        if diff > MAX_LEVEL_DIFF:
            log(f"reference output differs by {diff} levels (allowed {MAX_LEVEL_DIFF})")
        return diff <= MAX_LEVEL_DIFF

    def op(self, i: int, loop: Loop) -> bool:
        """One request: `crossagg infer` then `crossagg metrics`."""
        paths = self.requests[i % len(self.requests)]
        t0 = time.perf_counter()
        lr = imaging.load_image(paths["lr"])
        out = harness.restore_image(self.store, self.config, lr)
        imaging.save_image(out, paths["out"])
        ref = imaging.load_image(paths["hr"])
        test = imaging.load_image(paths["out"])
        p = imaging.psnr(ref, test)
        s = imaging.ssim(ref, test)
        loop.requests.append(time.perf_counter() - t0)
        loop.steps.append(loop.requests[-1])
        scale = self.config.scale
        ok = (
            out.data.shape == (scale * lr.height, scale * lr.width, self.config.out_channels)
            and np.array_equal(test.data, out.data)
            and math.isfinite(p)
            and 0.0 < p <= 100.0
            and -1.0 <= s <= 1.0
        )
        if ok:
            loop.output_px += out.height * out.width
        return ok


class TrainWorkload:
    def __init__(self, manifest: dict):
        self.seed = manifest["seed"]
        self.config = model.parse_config(str(CONFIGS / manifest["config"]))
        model.init_params(self.config, self.seed, dtype=np.float64)  # set-up as before `crossagg overfit`'s first step
        self.ref = reference_paths(manifest["workload"])
        self.first_losses: np.ndarray | None = None
        # Output pixels of one step: those of run_overfit's own target.
        self.step_px = int(np.prod(harness.overfit_target().shape[:2]))

    def check_reference(self) -> bool:
        want = np.array(json.loads(self.ref["losses"].read_text())["losses"][:REF_STEPS])
        got = np.array(harness.run_overfit(steps=REF_STEPS, seed=DEFAULT_SEED).losses)
        ok = got.shape == want.shape and bool(np.allclose(got, want, rtol=REF_LOSS_RTOL, atol=0.0))
        if not ok:
            log(f"reference loss curve deviates; max relative error {np.max(np.abs(got - want) / want):.3e}")
        return ok

    def op(self, i: int, loop: Loop, tracer=None) -> bool:
        """One `crossagg overfit` run; it and every step are timed."""
        start = last = time.perf_counter()

        def on_step(step, loss):
            nonlocal last
            now = time.perf_counter()
            loop.steps.append(now - last)
            last = now
            if tracer is not None:
                tracer.request += 1

        result = harness.run_overfit(steps=OVERFIT_STEPS, seed=self.seed, on_step=on_step)
        loop.requests.append(time.perf_counter() - start)
        losses = np.array(result.losses)
        if self.first_losses is None:
            self.first_losses = losses
        repeats = bool(np.allclose(losses, self.first_losses, rtol=REPEAT_LOSS_RTOL, atol=0.0))
        ok = (
            len(losses) == OVERFIT_STEPS
            and bool(np.all(np.isfinite(losses)))
            and result.reduction >= OVERFIT_MIN_REDUCTION
            and repeats
        )
        if not ok:
            log(f"overfit call {i}: reduction {result.reduction:.4f}, repeats the first call's curve: {repeats}")
        if ok:
            loop.output_px += self.step_px * OVERFIT_STEPS
        return ok


def end_to_end(loop: Loop) -> dict[str, float]:
    """The loop's end-to-end figures; on sr workloads a request is one step."""
    steps = np.array(loop.steps)
    return {
        "infer_px_per_s": loop.output_px / loop.elapsed,
        "request_p50_s": float(np.median(loop.requests)),
        "train_steps_per_s": len(steps) / loop.elapsed,
        "step_p50_ms": float(np.median(steps)) * 1e3,
        "step_p90_ms": float(np.percentile(steps, 90)) * 1e3,
        "step_p95_ms": float(np.percentile(steps, 95)) * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--probe", action="store_true", help="stop once set up")
    args = parser.parse_args(argv)
    with open(args.manifest) as f:
        manifest = json.load(f)
    trace = bool(manifest["trace"]) and not args.probe
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    kind = WORKLOADS[manifest["workload"]].kind
    work = SrWorkload(manifest) if kind == "sr" else TrainWorkload(manifest)
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if args.probe:
        with open(args.result, "w") as f:
            json.dump(result, f)
        return 0
    if tracer is not None:
        tracer.uninstall()

    loop = Loop()
    loop.count(work.check_reference())
    seconds = manifest["seconds"]
    if tracer is None:
        loop.run(work.op, seconds)
        result["metrics"] = end_to_end(loop)
    else:
        # Untraced and traced operations alternate, so that drift of the
        # machine's speed does not bias the tracing overhead.
        untraced: list[float] = []
        traced: list[float] = []
        tracer.request = 0

        def alternate(i: int, lp: Loop) -> bool:
            first = len(lp.steps)
            if i % 2 == 0:
                ok = work.op(i, lp)
                untraced.extend(lp.steps[first:])
                return ok
            tracer.install()
            try:
                if kind == "train":
                    ok = work.op(i, lp, tracer)  # on_step advances tracer.request per step
                else:
                    tracer.request = i
                    ok = work.op(i, lp)
            finally:
                tracer.uninstall()
            traced.extend(lp.steps[first:])
            return ok

        loop.run(alternate, seconds, min_ops=2)
        metrics, problems = tracer.per_layer(work.config)
        for problem in problems:
            log(f"trace join check failed: {problem}")
        loop.count(not problems)
        metrics["tracing.overhead_frac"] = float(np.median(traced) / np.median(untraced) - 1.0)
        result["metrics"] = metrics
        tracer.save(manifest["trace_path"])
    result.update(attempted=loop.attempted, failed=loop.failed, requests_s=loop.requests, steps_s=loop.steps, env=blas_record())
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
