"""Float32 drift of a stock model forward against float64 from the same weights.

    PYTHONPATH=src python scripts/drift.py --config cat_r_x2 --side 32 [--jitter 0.02]

Runs ``forward_drift`` from ``tests/helpers.py`` and prints one JSON object:
the max and median relative drift |y32 - y64| / max|y64| over the output, and
the SHA-256 of the float64 output, so that two checkouts can be compared (the
float64 path is the oracle precision and should not move). BLAS is pinned to
one thread before numpy loads, as in ``time_restore.py``, because the hash
depends on the thread count. Exits 1 when a drift is not finite.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # read when numpy loads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from crossagg.model import PRESET_NAMES  # noqa: E402
from helpers import forward_drift  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", default="cat_r_x2", choices=PRESET_NAMES, help="stock configuration name")
    parser.add_argument("--side", type=int, default=32, help="input height and width")
    parser.add_argument("--jitter", type=float, default=0.0, help="std of the N(0, jitter) noise added to every weight")
    args = parser.parse_args()
    report = forward_drift(args.config, args.side, args.jitter)
    report["blas_threads"] = BLAS_THREADS
    print(json.dumps(report))
    if not (math.isfinite(report["max_drift"]) and math.isfinite(report["median_drift"])):
        print("drift: non-finite drift", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
