"""Inference and evaluation glue: dihedral self-ensemble, the image
restoration path around the model, and a self-contained overfit demo that
drives the full forward/backward stack on one small patch.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import GradientTape, OptimizerHyper, Tensor, adam_step, backward, init_adam_state
from .imaging import ImageU8, bicubic_resize, rgb_to_y
from .model import ModelConfig, cat_forward, init_params, preset_config

__all__ = [
    "dihedral_transform",
    "dihedral_inverse",
    "self_ensemble_infer",
    "restore_image",
    "quantize",
    "OverfitResult",
    "overfit_target",
    "run_overfit",
]

NUM_DIHEDRAL = 8
OVERFIT_SIZE = 32  # side of the overfit demo's target patch
OVERFIT_LEARNING_RATE = 1e-3


def dihedral_transform(a: np.ndarray, k: int) -> np.ndarray:
    """k in 0..7: optional vertical flip (k >= 4) followed by k%4 rotations."""
    if not 0 <= k < NUM_DIHEDRAL:
        raise ValueError(f"dihedral index {k} out of range")
    out = a[::-1] if k >= 4 else a
    return np.ascontiguousarray(np.rot90(out, k % 4, axes=(0, 1)))


def dihedral_inverse(a: np.ndarray, k: int) -> np.ndarray:
    if not 0 <= k < NUM_DIHEDRAL:
        raise ValueError(f"dihedral index {k} out of range")
    out = np.rot90(a, -(k % 4), axes=(0, 1))
    if k >= 4:
        out = out[::-1]
    return np.ascontiguousarray(out)


def quantize(a: np.ndarray) -> np.ndarray:
    """[0, 1] float image to uint8 with round-half-away behavior via +0.5.
    A NaN or infinite value has no 8-bit value and raises ValueError."""
    bad = a.size - np.count_nonzero(np.isfinite(a))
    if bad:
        raise ValueError(f"{bad} of {a.size} image values are NaN or infinite; no 8-bit image can be written")
    return np.clip(np.floor(a * 255.0 + 0.5), 0, 255).astype(np.uint8)


def self_ensemble_infer(forward, img: ImageU8) -> ImageU8:
    """Average the model output over the 8 dihedral transforms of the input.

    ``forward`` maps a float [H, W, C] array in [0, 1] to the restored float
    image; the average is taken in real precision before quantization.
    """
    x = img.data.astype(np.float64) / 255.0
    acc = None
    for k in range(NUM_DIHEDRAL):
        y = forward(dihedral_transform(x, k))
        y = dihedral_inverse(np.asarray(y, dtype=np.float64), k)
        acc = y if acc is None else acc + y
    return ImageU8.from_array(quantize(acc / NUM_DIHEDRAL))


def _model_forward(store: Mapping[str, Tensor], config: ModelConfig):
    dtype = next(iter(store.values())).dtype

    def forward(x: np.ndarray) -> np.ndarray:
        t = Tensor(x[None], dtype=dtype)
        return cat_forward(t, store, config).numpy()[0]

    return forward


def restore_image(store: Mapping[str, Tensor], config: ModelConfig, img: ImageU8, ensemble: bool = False) -> ImageU8:
    """Run the model on one image; 3-channel inputs to a single-channel model
    are converted to luma first."""
    if config.in_channels == 1 and img.channels == 3:
        img = ImageU8.from_array(np.clip(np.round(rgb_to_y(img)), 0, 255)[:, :, None])
    if img.channels != config.in_channels:
        raise ValueError(
            f"model expects {config.in_channels} input channels, image has {img.channels}"
        )
    forward = _model_forward(store, config)
    if ensemble:
        return self_ensemble_infer(forward, img)
    out = forward(img.data.astype(np.float64) / 255.0)
    return ImageU8.from_array(quantize(np.asarray(out, dtype=np.float64)))


# ---------------------------------------------------------------------------
# Overfit demo
# ---------------------------------------------------------------------------


@dataclass
class OverfitResult:
    losses: list[float] = field(default_factory=list)

    @property
    def initial_loss(self) -> float:
        return self.losses[0]

    @property
    def final_loss(self) -> float:
        return self.losses[-1]

    @property
    def reduction(self) -> float:
        return 1.0 - self.final_loss / self.initial_loss


def overfit_target() -> np.ndarray:
    """Fixed smooth test pattern in [0.08, 0.92], [OVERFIT_SIZE, OVERFIT_SIZE, 3]."""
    ramp = np.arange(OVERFIT_SIZE) / OVERFIT_SIZE
    ys, xs = np.meshgrid(ramp, ramp, indexing="ij")
    r = 0.5 + 0.35 * np.sin(2.0 * np.pi * (xs + 0.5 * ys))
    g = 0.5 + 0.35 * np.cos(2.0 * np.pi * (ys - 0.25 * xs))
    b = 0.5 + 0.3 * np.sin(2.0 * np.pi * (xs * xs + ys))
    return np.stack([r, g, b], axis=2)


def run_overfit(steps: int = 500, seed: int = 0, on_step=None) -> OverfitResult:
    """Overfit the tiny model to one fixed patch with Adam on an L1 loss.

    Deterministic for a fixed seed; exercises the complete forward and
    backward path including shift masks being absent (single unshifted block)
    and the staged sub-pixel head.
    """
    if steps < 1:
        raise ValueError(f"overfit needs at least one step, got {steps}")
    config = preset_config("tiny_sr_x2")
    store = init_params(config, seed, dtype=np.float64)
    hr = overfit_target()
    lr_img = np.clip(bicubic_resize(hr, config.scale, "down"), 0.0, 1.0)
    x = Tensor(lr_img[None], dtype=np.float64)
    target = Tensor(hr[None], dtype=np.float64)

    hyper = OptimizerHyper(learning_rate=OVERFIT_LEARNING_RATE)
    state = init_adam_state(store)
    result = OverfitResult()
    for step in range(steps):
        tape = GradientTape()
        tape.watch(store.values())
        with tape:
            out = cat_forward(x, store, config)
            loss = ad.mean_all(ad.abs_val(ad.sub(out, target)))
        grads_by_tensor = backward(tape, loss)
        grads = {name: grads_by_tensor[t] for name, t in store.items()}
        store, state = adam_step(store, grads, state, hyper)
        result.losses.append(loss.item())
        if on_step is not None:
            on_step(step, result.losses[-1])
    return result
