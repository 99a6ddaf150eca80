"""Slow reference computations used to cross-check the fast paths.

Everything here recomputes results from first principles on plain numpy
arrays: attention is evaluated as one dense (H*W) x (H*W) problem per head
with an additive penalty on cross-window pairs, window membership is derived
directly from pixel coordinates, and the depthwise convolution walks its taps
pixel by pixel. None of the window partition / shift machinery is reused,
except by the window-layout oracles at the end, which take the gather maps of
:func:`windowing.window_maps` as given and restate what the fused attention
op does with them one plain numpy step at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .windowing import HORIZONTAL, MASK_VALUE, VERTICAL, WindowSpec

__all__ = [
    "oriented_window_dims",
    "position_bias_table",
    "naive_depthwise_conv3x3",
    "full_attention_oracle",
    "window_gather",
    "window_merge",
    "window_attention_oracle",
]


def oriented_window_dims(spec: WindowSpec, orientation: str, height: int, width: int) -> tuple[int, int]:
    """Window extents for one orientation, restated independently of the
    geometry resolver: horizontal windows are wide, vertical tall, axial
    windows span the full image on one axis."""
    if spec.kind == "regular":
        lo, hi = sorted((spec.sh, spec.sw))
        return (lo, hi) if orientation == HORIZONTAL else (hi, lo)
    if orientation == HORIZONTAL:
        return (min(spec.sl, height), width)
    return (height, min(spec.sl, width))


def _pos_net(weights: dict[str, np.ndarray], offsets: np.ndarray) -> np.ndarray:
    """The offset network ``posbias.fc{1,2,3}`` on [K, 2] normalized offsets:
    [K, M] biases."""

    def fc(i, h):
        return h @ weights[f"posbias.fc{i}.weight"] + weights[f"posbias.fc{i}.bias"]

    h = np.maximum(fc(1, offsets), 0.0)
    h = np.maximum(fc(2, h), 0.0)
    return fc(3, h)


def position_bias_table(weights: dict[str, np.ndarray], sh: int, sw: int) -> np.ndarray:
    """Bias [M, n, n] by evaluating the offset network on every pixel pair."""
    ys, xs = np.meshgrid(np.arange(sh), np.arange(sw), indexing="ij")
    pos = np.stack([ys.ravel(), xs.ravel()], axis=1).astype(np.float64)
    delta = pos[:, None, :] - pos[None, :, :]
    delta[..., 0] /= max(sh - 1, 1)
    delta[..., 1] /= max(sw - 1, 1)
    n = sh * sw
    return _pos_net(weights, delta.reshape(-1, 2)).reshape(n, n, -1).transpose(2, 0, 1)


def naive_depthwise_conv3x3(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Per-pixel 3x3 depthwise cross-correlation with zero borders."""
    h, w, c = x.shape
    out = np.zeros_like(x)
    for yy in range(h):
        for xx in range(w):
            acc = np.zeros(c, dtype=x.dtype)
            for u in range(3):
                for v in range(3):
                    sy, sx = yy + u - 1, xx + v - 1
                    if 0 <= sy < h and 0 <= sx < w:
                        acc += x[sy, sx] * kernel[u, v, :, 0]
            out[yy, xx] = acc + bias
    return out


def full_attention_oracle(x: np.ndarray, weights: dict[str, np.ndarray], prefix: str, spec: WindowSpec) -> np.ndarray:
    """Unshifted rectangle-window attention computed as dense full-image
    attention with MASK_VALUE added to every cross-window pixel pair.

    ``x`` is [H, W, C]; ``weights`` holds numpy copies of the model's
    tensors under its names: the block's ``{prefix}.attn.qkv``, ``.proj``
    and, if present, ``.lcm`` weight and bias, and the position-bias network
    ``posbias.fc{1,2,3}``, whose output width is the head count. Window
    extents must divide the resolution.
    """
    h, w, c = x.shape
    a = f"{prefix}.attn"
    heads = weights["posbias.fc3.weight"].shape[1]
    d = c // heads
    qkv = x.reshape(-1, c) @ weights[f"{a}.qkv.weight"] + weights[f"{a}.qkv.bias"]
    q, k, v = qkv[:, :c], qkv[:, c : 2 * c], qkv[:, 2 * c :]

    coords_y, coords_x = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    coords_y, coords_x = coords_y.ravel(), coords_x.ravel()

    heads_out = []
    for m in range(heads):
        orientation = HORIZONTAL if m < heads // 2 else VERTICAL
        sh, sw = oriented_window_dims(spec, orientation, h, w)
        assert h % sh == 0 and w % sw == 0, "oracle requires divisible extents"
        window_id = (coords_y // sh) * (w // sw) + (coords_x // sw)

        # Pixels sharing a window also share its internal offset pattern, so
        # the global-offset bias agrees with the in-window bias on every
        # unmasked pair.
        dy = (coords_y[:, None] - coords_y[None, :]) / max(sh - 1, 1)
        dx = (coords_x[:, None] - coords_x[None, :]) / max(sw - 1, 1)
        bias_full = _pos_net(weights, np.stack([dy.ravel(), dx.ravel()], axis=1))[:, m].reshape(h * w, h * w)

        qm = q[:, m * d : (m + 1) * d].astype(np.float64)
        km = k[:, m * d : (m + 1) * d].astype(np.float64)
        vm = v[:, m * d : (m + 1) * d].astype(np.float64)
        logits = qm @ km.T / math.sqrt(d) + bias_full
        logits = np.where(window_id[:, None] == window_id[None, :], logits, logits + MASK_VALUE)
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        heads_out.append(probs @ vm)
    y = np.concatenate(heads_out, axis=1).reshape(h, w, c)
    if f"{a}.lcm.weight" in weights:
        y = y + naive_depthwise_conv3x3(
            v.reshape(h, w, c).astype(np.float64), weights[f"{a}.lcm.weight"], weights[f"{a}.lcm.bias"]
        )
    out = y.reshape(-1, c) @ weights[f"{a}.proj.weight"] + weights[f"{a}.proj.bias"]
    return out.reshape(h, w, c)


def window_gather(x: np.ndarray, index: np.ndarray, start: int, heads: int, d: int) -> np.ndarray:
    """Channels [start, start + heads * d) of an [N, H, W, C] map in windows
    split into heads, [N * nw, heads, n, d]: slot j of window b reads pixel
    ``index[b % nw, j]`` of image b // nw."""
    nb, c = x.shape[0], x.shape[-1]
    nw, n = index.shape
    windows = x.reshape(nb, -1, c)[:, index, start : start + heads * d]  # [N, nw, n, heads * d]
    return windows.reshape(nb * nw, n, heads, d).transpose(0, 2, 1, 3)


def window_merge(y: np.ndarray, index: np.ndarray, own: np.ndarray, height: int, width: int) -> np.ndarray:
    """Inverse of :func:`window_gather`: [N * nw, heads, n, d] windows to an
    [N, H, W, heads * d] map in which each own slot (``own``) is written at
    the pixel it reads (``index``); a pixel that no own slot reads stays
    NaN."""
    _, heads, _, d = y.shape
    slots = y.transpose(0, 2, 1, 3).reshape(-1, own.size, heads * d)  # [N, slots, heads * d]
    out = np.full((slots.shape[0], height * width, heads * d), np.nan, dtype=y.dtype)
    out[:, index[own]] = slots[:, own.ravel()]
    return out.reshape(-1, height, width, heads * d)


def window_attention_oracle(qk: np.ndarray, v: np.ndarray, windows, scale: float) -> np.ndarray:
    """What ``autodiff.window_attention`` computes, one orientation at a time
    in float64: gather Q, K and V by ``index``, attention per window with the
    bias (keys-major [n_k, heads, n_q]) and MASK_VALUE on every pair of
    different region ids, softmax over keys, then merge by ``own``. The
    orientations' heads follow each other along the channels."""
    c = v.shape[-1]
    d = c // sum(bias.shape[1] for *_, bias in windows)
    qk, v = qk.astype(np.float64), v.astype(np.float64)
    outs, first = [], 0
    for index, own, regions, bias in windows:
        heads = bias.shape[1]
        q = window_gather(qk, index, first * d, heads, d)
        k = window_gather(qk, index, c + first * d, heads, d)
        vw = window_gather(v, index, first * d, heads, d)
        logits = q @ k.transpose(0, 1, 3, 2) * scale + np.asarray(bias, np.float64).transpose(1, 2, 0)
        r = np.tile(regions, (q.shape[0] // regions.shape[0], 1))
        logits += np.where(r[:, :, None] == r[:, None, :], 0.0, MASK_VALUE)[:, None]
        logits -= logits.max(axis=-1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=-1, keepdims=True)
        outs.append(window_merge(p @ vw, index, own, v.shape[1], v.shape[2]))
        first += heads
    return np.concatenate(outs, axis=-1)
