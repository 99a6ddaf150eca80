"""Time one forward's ``window_attention`` calls for a stock config and side.

    PYTHONPATH=src python scripts/time_attention.py --config cat_a_x2 --side 96 --reps 5

Replays the calls a ``cat_forward`` on one side x side image makes: one per
block of every group, over both head orientations, with the window geometries
the model resolves (odd blocks shifted) and their ``window_maps``. The input
map x, the V map and each orientation's bias are seeded normal float32 arrays
of the model's shapes, and the [C, 2C] Q|K weight is seeded normal over
sqrt(C), so that Q and K have unit scale; the biases are made once per pair of
geometries before timing. Prints one JSON object: the
seconds of each replay of the whole forward's calls and their median. BLAS is
pinned to one thread before numpy loads, as in ``time_restore.py``. A replay
takes a few seconds, so an A/B of the kernel between two checkouts fits well
inside one benchmark run.
"""

import argparse
import json
import math
import os
import time

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # read when numpy loads

import numpy as np  # noqa: E402

from crossagg import autodiff as ad  # noqa: E402
from crossagg.autodiff import Tensor  # noqa: E402
from crossagg.model import PRESET_NAMES, preset_config  # noqa: E402
from crossagg.windowing import HORIZONTAL, VERTICAL, resolve_geometry, window_maps  # noqa: E402


def forward_calls(config, side, seed):
    """(x, w_qk, b_qk, v, windows) of every window_attention call in one forward."""
    heads, c = config.num_heads // 2, config.channels
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((1, side, side, c)), dtype=np.float32)
    w_qk = Tensor(rng.standard_normal((c, 2 * c)) / math.sqrt(c), dtype=np.float32)
    b_qk = Tensor(np.zeros(2 * c), dtype=np.float32)
    v = Tensor(rng.standard_normal((1, side, side, c)), dtype=np.float32)
    windows, calls = {}, []
    for group in range(config.num_groups):
        spec = config.spec_for_group(group)
        for block in range(config.blocks_per_group):
            pair = tuple(resolve_geometry(spec, o, side, side, shifted=block % 2 == 1) for o in (HORIZONTAL, VERTICAL))
            if pair not in windows:
                windows[pair] = []
                for g in pair:
                    n = g.window_pixels
                    bias = Tensor(rng.standard_normal((n, heads, n)), dtype=np.float32)  # keys-major
                    windows[pair].append(window_maps(g) + (bias,))
            calls.append((x, w_qk, b_qk, v, windows[pair]))
    return calls


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", default="cat_a_x2", choices=PRESET_NAMES, help="stock configuration name")
    parser.add_argument("--side", type=int, default=96, help="input height and width")
    parser.add_argument("--reps", type=int, default=5, help="replays of the forward's calls")
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    args = parser.parse_args()

    config = preset_config(args.config)
    calls = forward_calls(config, args.side, args.seed)
    scale = 1.0 / math.sqrt(config.channels // config.num_heads)
    seconds = []
    for _ in range(args.reps):
        t0 = time.perf_counter()
        for *arrays, windows in calls:
            ad.window_attention(*arrays, windows, scale)
        seconds.append(time.perf_counter() - t0)
    report = {
        "config": args.config,
        "side": args.side,
        "calls": len(calls),
        "seconds": seconds,
        "median_s": float(np.median(seconds)),
        "blas_threads": BLAS_THREADS,
    }
    print(json.dumps(report))


if __name__ == "__main__":
    main()
