"""Seeded inputs for the benchmark, made before any timing starts.

Super-resolution inputs are synthetic high-resolution textures (gradients,
gratings, hard-edged shapes and a little noise), reduced with
``imaging.bicubic_resize`` and written as PNG, as a user would feed
``crossagg infer``. Weights come from ``model.init_params`` and are written as
CATW with ``model.save_weights``.
"""

from __future__ import annotations

import os

import numpy as np

from crossagg import harness, imaging, model

# The stock weights are fixed so that every run, whatever its input seed, can
# check its outputs against the recorded reference outputs.
WEIGHT_SEED = 0


def texture(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    """Float [H, W, 3] image in [0, 1] with smooth and sharp structure."""
    ys, xs = np.meshgrid(np.linspace(0.0, 1.0, height), np.linspace(0.0, 1.0, width), indexing="ij")
    img = rng.uniform(0.25, 0.75, 3) + rng.uniform(-0.25, 0.25, 3) * ys[..., None]
    for _ in range(3):
        theta = rng.uniform(0.0, np.pi)
        freq = rng.uniform(2.0, 12.0)
        wave = np.sin(2.0 * np.pi * freq * (xs * np.cos(theta) + ys * np.sin(theta)) + rng.uniform(0.0, 2.0 * np.pi))
        img = img + rng.uniform(0.03, 0.15, 3) * wave[..., None]
    for _ in range(4):
        cy, cx = rng.uniform(0.0, 1.0, 2)
        ry, rx = rng.uniform(0.05, 0.3, 2)
        if rng.uniform() < 0.5:
            inside = ((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 < 1.0
        else:
            inside = (np.abs(ys - cy) < ry) & (np.abs(xs - cx) < rx)
        img = np.where(inside[..., None], 0.4 * img + 0.6 * rng.uniform(0.0, 1.0, 3), img)
    img = img + rng.normal(0.0, 0.02, img.shape)
    return np.clip(img, 0.0, 1.0)


def sr_pair(seed: int, index: int, lr_side: int, scale: int) -> tuple[imaging.ImageU8, imaging.ImageU8]:
    """(low-resolution input, high-resolution reference) for one request."""
    rng = np.random.default_rng([seed, index])
    hr = harness.quantize(texture(rng, lr_side * scale, lr_side * scale))
    lr = harness.quantize(np.clip(imaging.bicubic_resize(hr.astype(np.float64) / 255.0, scale, "down"), 0.0, 1.0))
    return imaging.ImageU8.from_array(lr), imaging.ImageU8.from_array(hr)


def write_sr_inputs(workdir: str, config_path: str, seed: int, count: int, lr_side: int) -> dict:
    """Write the weights and ``count`` distinct requests; returns their paths."""
    config = model.parse_config(config_path)
    weights = os.path.join(workdir, "weights.catw")
    model.save_weights(model.init_params(config, WEIGHT_SEED), weights)
    requests = []
    for i in range(count):
        lr, hr = sr_pair(seed, i, lr_side, config.scale)
        paths = {name: os.path.join(workdir, f"req{i:03d}_{name}.png") for name in ("lr", "hr", "out")}
        imaging.save_image(lr, paths["lr"])
        imaging.save_image(hr, paths["hr"])
        requests.append(paths)
    return {"weights": weights, "requests": requests}
