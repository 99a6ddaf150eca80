"""Time ``restore_image`` on one synthetic image and report peak memory.

    PYTHONPATH=src python scripts/time_restore.py --config cat_a_x2 --side 96

Uses the stock weights ``init_params(config, 0)`` and a seeded random RGB
image. Prints one JSON object: the seconds and the minor page faults of each
repetition, the peak resident memory of the process in MiB, the BLAS thread
count, and with ``--hash`` the SHA-256 of the raw float model output, so that
two checkouts can be compared for bit-identical outputs. With ``--heap`` it
also prints the ``tracemalloc`` peak of one extra untimed forward, so that
the live numpy bytes and the allocator's share of ``peak_rss_mib`` can be
told apart; that forward runs after ``peak_rss_mib`` is read. The script pins
BLAS to one thread before numpy loads: a GEMM split over more threads sums
in another order, so hashes compare only at equal thread counts. Peak memory
is process-wide: run each measurement in a fresh process.
"""

import argparse
import hashlib
import json
import os
import resource
import time
import tracemalloc

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # read when numpy loads

import numpy as np  # noqa: E402

from crossagg.autodiff import Tensor  # noqa: E402
from crossagg.harness import restore_image  # noqa: E402
from crossagg.imaging import ImageU8  # noqa: E402
from crossagg.model import PRESET_NAMES, cat_forward, init_params, preset_config  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", default="cat_a_x2", choices=PRESET_NAMES, help="stock configuration name")
    parser.add_argument("--side", type=int, default=96, help="input height and width")
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0, help="input image seed")
    parser.add_argument("--hash", action="store_true", help="also hash one untimed float forward pass")
    parser.add_argument("--heap", action="store_true", help="also trace the heap peak of one untimed forward")
    args = parser.parse_args()

    config = preset_config(args.config)
    store = init_params(config, 0)
    rng = np.random.default_rng(args.seed)
    img = ImageU8.from_array(rng.integers(0, 256, (args.side, args.side, config.in_channels), dtype=np.uint8))
    seconds = []
    minflt = []
    for _ in range(args.reps):
        faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        restore_image(store, config, img)
        seconds.append(time.perf_counter() - t0)
        minflt.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0)
    report = {
        "config": args.config,
        "side": args.side,
        "seconds": seconds,
        "minflt": minflt,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": BLAS_THREADS,
    }
    if args.heap:
        tracemalloc.start()
        restore_image(store, config, img)
        report["heap_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    if args.hash:
        x = Tensor(img.data[None].astype(np.float64) / 255.0, dtype=next(iter(store.values())).dtype)
        report["output_sha256"] = hashlib.sha256(cat_forward(x, store, config).data.tobytes()).hexdigest()
    print(json.dumps(report))


if __name__ == "__main__":
    main()
