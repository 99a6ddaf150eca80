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

The functions read their tensors from the model's name -> Tensor dict under
the names of :func:`model.parameter_schema`: a block's ``{prefix}.attn.qkv``,
``.proj`` and, if present, ``.lcm`` weight and bias, and the position-bias
network ``posbias.fc{1,2,3}`` that every block shares. The head count is the
output width of ``posbias.fc3``.

V is projected a band of pixels at a time against a column slice of the
stored fused qkv weight; :func:`autodiff.window_attention` projects Q and K
itself, a chunk of windows at a time, from rows it gathers through one cached
map per geometry (pad, shift and partition in one), and writes each chunk's
output into the merged [N, H, W, C] map. The tail, ``residual + proj(y +
lcm)`` when the block passes its input as ``residual``, is one banded pass
that writes each band straight into its rows of the result.

Untaped, the input, V, the merged output, the locality complement and the
result are the only full-size maps: no Q|K map and no window-layout map
exists, ``y + lcm`` and its projection exist a band at a time, and the input
is released once window attention returns and V once it is convolved. The
per-forward cache (the gather maps of each geometry and, per orientation, its
heads' position bias, keys-major [n_k, heads/2, n_q]) is filled before the V
projection, so these long-lived arrays sit below the block's transients in
the heap. The [windows, heads, n, n] probabilities exist only when a tape
records the op or a probe asks for the weights.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

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
    "POS_NAMES",
    "relative_position_bias",
    "locality_complement",
    "rwin_self_attention",
]

POS_HIDDEN = 96
# The shared position-bias network: (Delta y, Delta x) -> hidden -> hidden -> per-head bias.
POS_NAMES = tuple(f"posbias.fc{i}.{kind}" for i in (1, 2, 3) for kind in ("weight", "bias"))


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


def relative_position_bias(g: WindowGeometry, store: Mapping[str, Tensor], first: int, heads: int) -> Tensor:
    """Heads [first, first + heads) of the additive bias of the shared
    ``posbias.fc{1,2,3}`` network, keys-major [n_k, heads, n_q], the layout
    window_attention adds; entry (j, m, i) depends only on the relative
    offset of query pixel i from key pixel j."""
    w1, b1, w2, b2, w3, b3 = (store[name] for name in POS_NAMES)
    offsets, index = _offset_table(g.sh, g.sw, w1.dtype)
    h = ad.relu(ad.linear(Tensor(offsets, dtype=w1.dtype), w1, b1))
    h = ad.relu(ad.linear(h, w2, b2))
    out = ad.narrow(ad.linear(h, w3, b3), 1, first, heads)
    n = g.window_pixels
    table = ad.reshape(ad.gather(out, index, axis=0), (n, n, heads))  # query-major
    return ad.transpose(table, (1, 2, 0))


def locality_complement(v: Tensor, store: Mapping[str, Tensor], prefix: str) -> Tensor:
    """Depthwise 3x3 convolution of the full-resolution value map by the
    ``{prefix}.attn.lcm`` kernel."""
    return ad.conv2d_3x3(v, store[f"{prefix}.attn.lcm.weight"], store[f"{prefix}.attn.lcm.bias"], depthwise=True)


def rwin_self_attention(
    x: Tensor,
    store: Mapping[str, Tensor],
    prefix: str,
    spec: WindowSpec,
    shifted: bool = False,
    cache: dict | None = None,
    probe: dict | None = None,
    residual: Tensor | None = None,
) -> Tensor:
    """Rectangle-window self-attention over [N, H, W, C] with the weights
    ``{prefix}.attn.{qkv,proj}.*`` of ``store`` (e.g. ``body.group0.block1``)
    and its shared position-bias network ``posbias.fc{1,2,3}.*``, whose
    output width is the head count.

    The locality complement is applied iff ``store`` holds
    ``{prefix}.attn.lcm.weight``. ``cache`` memoizes the gather maps per
    window geometry and, per orientation and window extent, that
    orientation's heads of the position bias, keys-major [n_k, heads/2,
    n_q]. A bias is keyed on the ``uid`` of every ``posbias`` tensor and of
    the active tape as well, so a cache reused after the weights change (e.g.
    across an Adam step) or under a new tape rebuilds it instead of returning
    stale values or a bias the tape cannot differentiate. Both orientations'
    cache entries are filled before the V projection, so that these
    long-lived arrays are allocated before the block's largest transients;
    ``x`` is released once window attention, which projects Q and K from it
    a chunk at a time, returns. ``probe``, if given, receives the attention
    weights and the geometry of each orientation. ``residual``, if given
    (the block input), is added to the output inside the projection's bands.
    """
    if x.ndim != 4:
        raise ValueError(f"attention expects rank 4 input, got {x.shape}")
    c = x.shape[-1]
    w, b = store[f"{prefix}.attn.qkv.weight"], store[f"{prefix}.attn.qkv.bias"]
    proj_w, proj_b = store[f"{prefix}.attn.proj.weight"], store[f"{prefix}.attn.proj.bias"]
    if w.shape != (c, 3 * c) or b.shape != (3 * c,) or proj_w.shape != (c, c):
        raise ValueError(
            f"{prefix}.attn: qkv {w.shape}, {b.shape} and proj {proj_w.shape} do not fit {c} input channels"
        )
    heads = store["posbias.fc3.weight"].shape[1]
    if heads < 2 or heads % 2 or c % heads:
        raise ValueError(f"head count must be even, >= 2 and divide {c} channels, got {heads}")
    if cache is None:
        cache = {}
    _, height, width, _ = x.shape
    scale = 1.0 / math.sqrt(c // heads)
    heads //= 2  # per orientation

    # A cached bias is valid only for the posbias tensors it was built from
    # and the tape it was recorded on.
    tape = ad._tape()
    owner = (tape.uid if tape is not None else 0,) + tuple(store[name].uid for name in POS_NAMES)
    geometries, biases = [], []
    for oi, orientation in enumerate((HORIZONTAL, VERTICAL)):
        g = resolve_geometry(spec, orientation, height, width, shifted)
        if ("maps", g) not in cache:
            cache[("maps", g)] = window_maps(g)
        bias_key = ("bias", orientation, g.sh, g.sw, str(x.dtype))
        held = cache.get(bias_key)
        if held is None or held[0] != owner:
            held = cache[bias_key] = (owner, relative_position_bias(g, store, oi * heads, heads))
        geometries.append(g)
        biases.append(held[1])

    # V and the output projection run in bands of pixels, 2C elements a
    # pixel; the op projects Q and K itself from x and the Q|K columns.
    wv = (ad.narrow(w, 1, 2 * c, c), ad.narrow(b, 0, 2 * c, c))
    v = ad._bands((x,), wv, 2 * c, lambda ops, rows: ops.linear(rows, *wv))
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
    lcm = (locality_complement(v, store, prefix),) if f"{prefix}.attn.lcm.weight" in store else ()
    del v

    def chain(ops, y, *lcm):
        return ops.linear(ops.add(y, *lcm) if lcm else y, proj_w, proj_b)

    return ad._bands((y, *lcm), (proj_w, proj_b), 2 * c, chain, residual)
