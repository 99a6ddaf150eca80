"""Time one float32 training step of a stock model and report its memory.

    PYTHONPATH=src python scripts/time_train_step.py --config cat_r_x2 --side 32

Uses the stock weights ``init_params(config, 0)``, every one of them watched,
a seeded random side x side input and a seeded random target at the model's
output size. One step is a taped forward, the L1 loss and ``backward``. Prints
one JSON object: the forward and backward seconds, the numpy heap peak of the
taped forward and of the whole step (``tracemalloc``, traced through both, so
the seconds include its cost), and the SHA-256 of every gradient in name
order, so that two checkouts can be compared for bit-identical gradients. The
script pins BLAS to one thread before numpy loads, as ``time_restore.py``
does, because the hash depends on the thread count.
"""

import argparse
import hashlib
import json
import os
import time
import tracemalloc

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # read when numpy loads

import numpy as np  # noqa: E402

from crossagg import autodiff as ad  # noqa: E402
from crossagg.autodiff import GradientTape, Tensor, backward  # noqa: E402
from crossagg.model import PRESET_NAMES, cat_forward, init_params, preset_config  # noqa: E402

MIB = 2.0**20


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", default="cat_r_x2", choices=PRESET_NAMES, help="stock configuration name")
    parser.add_argument("--side", type=int, default=32, help="input height and width")
    parser.add_argument("--seed", type=int, default=0, help="input and target seed")
    args = parser.parse_args()

    config = preset_config(args.config)
    store = init_params(config, 0)
    rng = np.random.default_rng(args.seed)
    x = Tensor(rng.random((1, args.side, args.side, config.in_channels), dtype=np.float32))
    out_side = args.side * config.scale
    target = Tensor(rng.random((1, out_side, out_side, config.in_channels), dtype=np.float32))

    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        tape = GradientTape()
        tape.watch(store.values())
        with tape:
            loss = ad.mean_all(ad.abs_val(ad.sub(cat_forward(x, store, config), target)))
        t1 = time.perf_counter()
        forward_peak = tracemalloc.get_traced_memory()[1]
        grads = backward(tape, loss)
        t2 = time.perf_counter()
        step_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    digest = hashlib.sha256()
    for name in sorted(store):
        digest.update(grads[store[name]].data.tobytes())
    print(
        json.dumps(
            {
                "config": args.config,
                "side": args.side,
                "forward_s": t1 - t0,
                "backward_s": t2 - t1,
                "forward_peak_mib": forward_peak / MIB,
                "step_peak_mib": step_peak / MIB,
                "loss": loss.item(),
                "grads_sha256": digest.hexdigest(),
                "blas_threads": BLAS_THREADS,
            }
        )
    )


if __name__ == "__main__":
    main()
