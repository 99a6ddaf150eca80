"""Rectangle-window self-attention with a dynamic position bias and a
locality complement.

The head axis is split in half: the first M/2 heads attend inside horizontal
(wide) windows, the remaining heads inside vertical (tall) windows, both
resolved from the same spec. Per window, attention is
``softmax(Q K^T / sqrt(d) + B + mask) V`` where B comes from a small network
evaluated on the relative offset between the two pixels, normalized to
[-1, 1] by the window extents. When the weights carry a locality-complement
kernel, a 3x3 depthwise convolution of the full-resolution value map is added
to the merged head outputs before the final projection.

Values are projected into a V map by one GEMM against a column slice of the
stored fused qkv weight; queries and keys are projected inside the per-window
primitive, :func:`autodiff.window_attention`, from the block input and the
Q|K column slices of that weight. For both orientations, a chunk of windows
at a time, it gathers the chunk's input rows through one cached map per
geometry (pad, shift and partition in one) and projects them into Q and K by
one GEMM, gathers the chunk's V, holds the logits keys-major, divides by the
softmax normaliser after the PV GEMM, which matches the composed ops within
float rounding, and writes the chunk's output straight into the merged [N, H,
W, C] map. The full [windows, heads, n, n] probabilities exist only when a
tape records the op or a probe asks for the weights.

What one call holds, untaped: the per-forward cache keeps the gather maps of
each geometry and, per orientation, the position bias of that orientation's
heads, built keys-major ([n_k, heads/2, n_q], the layout the op adds) by one
call of :func:`relative_position_bias`. Both are filled before the V
projection, so the long-lived arrays sit below the block's large transients
in the heap. The input, V and the merged output are the only full-size maps:
no Q|K map exists, the input is released once attention returns, and V once
the locality complement, which pads it one band of rows at a time, has
convolved it; no map exists in the window layout at full size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .windowing import (
    HORIZONTAL,
    VERTICAL,
    WindowGeometry,
    WindowSpec,
    resolve_geometry,
    window_maps,
)

__all__ = [
    "POS_HIDDEN",
    "PositionBiasParams",
    "AttentionParams",
    "relative_position_bias",
    "locality_complement",
    "rwin_self_attention",
]

POS_HIDDEN = 96


@dataclass(frozen=True)
class PositionBiasParams:
    """Three affine layers (Delta y, Delta x) -> hidden -> hidden -> per-head bias."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    w3: Tensor
    b3: Tensor

    def __post_init__(self):
        if self.w1.shape[0] != 2:
            raise ValueError(f"position bias net expects 2 offset inputs, got {self.w1.shape}")
        if self.w1.shape[1] != self.w2.shape[0] or self.w2.shape[1] != self.w3.shape[0]:
            raise ValueError("position bias net layer widths do not chain")

    @property
    def heads(self) -> int:
        return self.w3.shape[1]


@dataclass(frozen=True)
class AttentionParams:
    """Weights for one attention block.

    The query/key/value projections are stored fused as one [C, 3C] map; the
    position-bias network may be shared between blocks (it is a function of
    normalized offsets only, so one network serves every window geometry).
    """

    qkv_weight: Tensor
    qkv_bias: Tensor
    proj_weight: Tensor
    proj_bias: Tensor
    lcm_weight: Tensor | None
    lcm_bias: Tensor | None
    pos_net: PositionBiasParams
    heads: int

    def __post_init__(self):
        c = self.channels
        if self.heads < 2 or self.heads % 2 != 0:
            raise ValueError(f"head count must be even and >= 2, got {self.heads}")
        if c % self.heads != 0:
            raise ValueError(f"channels {c} not divisible by {self.heads} heads")
        if self.qkv_weight.shape != (c, 3 * c):
            raise ValueError(f"fused qkv weight must be [C, 3C], got {self.qkv_weight.shape}")
        if self.proj_weight.shape != (c, c):
            raise ValueError(f"output projection must be [C, C], got {self.proj_weight.shape}")
        if self.pos_net.heads != self.heads:
            raise ValueError(
                f"position bias net emits {self.pos_net.heads} biases for {self.heads} heads"
            )

    @property
    def channels(self) -> int:
        return self.qkv_weight.shape[0]

    @property
    def head_dim(self) -> int:
        return self.channels // self.heads


def _offset_table(sh: int, sw: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """All distinct relative offsets of an sh x sw window, normalized to
    [-1, 1], plus the flat [n*n] index mapping query-major pixel pair (i, j)
    to the row of the offset of i from j."""
    dys = np.arange(-(sh - 1), sh)
    dxs = np.arange(-(sw - 1), sw)
    grid_y, grid_x = np.meshgrid(dys, dxs, indexing="ij")
    offsets = np.stack(
        [grid_y.ravel() / max(sh - 1, 1), grid_x.ravel() / max(sw - 1, 1)], axis=1
    ).astype(dtype)
    # Offset rows are numbered (dy + sh - 1) * (2sw - 1) + dx + sw - 1, which is
    # a_i - a_j plus a constant for a = y * (2sw - 1) + x.
    a = (np.arange(sh)[:, None] * (2 * sw - 1) + np.arange(sw)).ravel()
    index = a[:, None] - a[None, :]
    index += (sh - 1) * (2 * sw - 1) + sw - 1
    return offsets, index.ravel()


def relative_position_bias(g: WindowGeometry, net: PositionBiasParams, first: int, heads: int) -> Tensor:
    """Heads [first, first + heads) of the additive bias, keys-major
    [n_k, heads, n_q], the layout window_attention adds; entry (j, m, i)
    depends only on the relative offset of query pixel i from key pixel j."""
    offsets, index = _offset_table(g.sh, g.sw, net.w1.dtype)
    h = ad.relu(ad.linear(Tensor(offsets, dtype=net.w1.dtype), net.w1, net.b1))
    h = ad.relu(ad.linear(h, net.w2, net.b2))
    out = ad.narrow(ad.linear(h, net.w3, net.b3), 1, first, heads)
    n = g.window_pixels
    table = ad.reshape(ad.gather(out, index, axis=0), (n, n, heads))  # query-major
    return ad.transpose(table, (1, 2, 0))


def locality_complement(v: Tensor, params: AttentionParams) -> Tensor:
    """Depthwise 3x3 convolution of the full-resolution value map."""
    if params.lcm_weight is None:
        raise ValueError("attention params carry no locality-complement kernel")
    return ad.conv2d_3x3(v, params.lcm_weight, params.lcm_bias, depthwise=True)


def rwin_self_attention(
    x: Tensor,
    params: AttentionParams,
    spec: WindowSpec,
    shifted: bool = False,
    cache: dict | None = None,
    probe: dict | None = None,
) -> Tensor:
    """Rectangle-window self-attention over [N, H, W, C].

    The locality complement is applied iff ``params.lcm_weight`` is set.
    ``cache`` memoizes the gather maps per window geometry and, per
    orientation and window extent, that orientation's heads of the position
    bias, keys-major [n_k, heads/2, n_q]. A bias is keyed on the ``uid`` of
    every pos-net tensor and of the active tape as well, so a cache reused
    after the weights change (e.g. across an Adam step) or under a new tape
    rebuilds it instead of returning stale values or a bias the tape cannot
    differentiate. Both orientations' cache entries are filled before the
    V projection, so that these long-lived arrays are allocated before the
    block's largest transients; ``x`` is released once window attention,
    which projects Q and K from it a chunk at a time, returns. ``probe``, if
    given, receives the attention weights and the geometry of each
    orientation.
    """
    if x.ndim != 4:
        raise ValueError(f"attention expects rank 4 input, got {x.shape}")
    c = params.channels
    if x.shape[-1] != c:
        raise ValueError(f"input channels {x.shape[-1]} do not match parameters ({c})")
    if cache is None:
        cache = {}
    _, height, width, _ = x.shape
    heads = params.heads // 2  # per orientation
    d = params.head_dim
    scale = 1.0 / math.sqrt(d)

    # A cached bias is valid only for the pos-net tensors it was built from
    # and the tape it was recorded on.
    tape = ad._tape()
    owner = (tape.uid if tape is not None else 0,) + tuple(
        getattr(params.pos_net, f.name).uid for f in fields(params.pos_net)
    )
    geometries, biases = [], []
    for oi, orientation in enumerate((HORIZONTAL, VERTICAL)):
        g = resolve_geometry(spec, orientation, height, width, shifted)
        if ("maps", g) not in cache:
            cache[("maps", g)] = window_maps(g)
        bias_key = ("bias", orientation, g.sh, g.sw, str(x.dtype))
        held = cache.get(bias_key)
        if held is None or held[0] != owner:
            held = cache[bias_key] = (owner, relative_position_bias(g, params.pos_net, oi * heads, heads))
        geometries.append(g)
        biases.append(held[1])

    # V is one map from a column slice of the fused weight, which the op
    # reads its windows from and the locality complement convolves; the op
    # projects Q and K itself, a chunk of windows at a time, from x and the
    # Q|K columns.
    w, b = params.qkv_weight, params.qkv_bias
    v = ad.linear(x, ad.narrow(w, 1, 2 * c, c), ad.narrow(b, 0, 2 * c, c))
    qk = (ad.narrow(w, 1, 0, 2 * c), ad.narrow(b, 0, 0, 2 * c))
    windows = [cache[("maps", g)] + (bias,) for g, bias in zip(geometries, biases)]
    if probe is None:
        y = ad.window_attention(x, *qk, v, windows, scale)
    else:
        y, *weights = ad.window_attention(x, *qk, v, windows, scale, weights=True)
        for g, p in zip(geometries, weights):
            probe.setdefault("weights", {})[g.orientation] = p
            probe.setdefault("geometries", {})[g.orientation] = g
    del x
    if params.lcm_weight is not None:
        lcm = locality_complement(v, params)
        del v
        y = ad.add(y, lcm)
        del lcm
    return ad.linear(y, params.proj_weight, params.proj_bias)
