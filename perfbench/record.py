"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record.py

Writes ``perfbench/reference/``: for each sr workload, the default seed's
low-resolution reference image and the model's uint8 output for it; for
train_tiny, the default seed's ``run_overfit`` loss curve. Re-record only
when a change is meant to alter the outputs, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys

from workloads import BLAS_THREADS, CONFIGS, DEFAULT_SEED, OVERFIT_STEPS, REF_LR_SIDE, REFERENCE, SRC, WORKLOADS, reference_paths

os.environ.setdefault("OPENBLAS_NUM_THREADS", str(BLAS_THREADS))
sys.path.insert(0, str(SRC))

from crossagg import harness, imaging, model  # noqa: E402

import inputs  # noqa: E402


def main() -> int:
    REFERENCE.mkdir(exist_ok=True)
    for w in WORKLOADS.values():
        paths = reference_paths(w.name)
        config = model.parse_config(str(CONFIGS / w.config))
        if w.kind == "sr":
            store = model.init_params(config, inputs.WEIGHT_SEED)
            lr, _ = inputs.sr_pair(DEFAULT_SEED, 0, REF_LR_SIDE, config.scale)
            imaging.save_image(lr, str(paths["lr"]))
            imaging.save_image(harness.restore_image(store, config, lr), str(paths["out"]))
        else:
            losses = harness.run_overfit(steps=OVERFIT_STEPS, seed=DEFAULT_SEED).losses
            paths["losses"].write_text(json.dumps({"seed": DEFAULT_SEED, "losses": losses}, indent=0) + "\n")
        print(f"recorded {w.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
