"""Workload table and correctness tolerances shared by the benchmark scripts."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"
REFERENCE = HERE / "reference"


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sr": image requests through restore_image; "train": run_overfit calls
    config: str  # file under configs/
    lr_side: int = 0  # low-resolution request side (sr only)
    pool: int = 0  # distinct request inputs made per run; the loop cycles through them


WORKLOADS = {
    w.name: w
    for w in (
        # Regular 4x16 windows at 64x64: the MLP and convolutions dominate.
        Workload("sr_regular", "sr", "cat_r_x2.cfg", lr_side=64, pool=24),
        # Axial windows at 96x96: attention, softmax and windowing dominate and
        # attention memory grows with the image side.
        Workload("sr_axial", "sr", "cat_a_x2.cfg", lr_side=96, pool=6),
        # Tape forward, backward and Adam on tiny tensors: per-op overhead.
        Workload("train_tiny", "train", "tiny_sr_x2.cfg"),
    )
}

# BLAS threads of every workload. On a 2-vCPU VM two threads made sr requests
# no faster (17.0/16.5 s against 17.2/15.0 s at 96x96) and back-to-back
# 500-step train calls less steady (median steps of 12-19 ms against 11-14 ms
# with one), and one thread leaves the other CPU to the kernel.
BLAS_THREADS = 1

# The seed the reference outputs were recorded with.
DEFAULT_SEED = 0
# Side of the low-resolution reference image checked in every sr run.
REF_LR_SIDE = 32
# Steps of the recorded loss curve replayed in every train run.
REF_STEPS = 100
# Steps per run_overfit call, as in `crossagg overfit`, and its success bar.
OVERFIT_STEPS = 500
OVERFIT_MIN_REDUCTION = 0.9

# Allowed deviation from the reference image: one 8-bit intensity level (a
# float32 reassociation can flip a rounding).
MAX_LEVEL_DIFF = 1
# Allowed relative deviation of the first REF_STEPS float64 losses from the
# recorded curve. A random one-ulp error on every op output moves them by
# under 1e-14; replacing the exact GELU by its tanh approximation moves them
# by 2e-7.
REF_LOSS_RTOL = 1e-9
# Allowed relative deviation between the 500-step curves of one run's
# run_overfit calls, which run identical code on identical inputs; one-ulp
# op errors grow to about 3e-8 by step 500.
REPEAT_LOSS_RTOL = 1e-6


def reference_paths(workload: str) -> dict[str, Path]:
    return {
        "lr": REFERENCE / f"{workload}_lr.png",
        "out": REFERENCE / f"{workload}_out.png",
        "losses": REFERENCE / f"{workload}_losses.json",
    }
