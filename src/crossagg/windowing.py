"""Rectangle and axial window geometry.

A feature map is split into non-overlapping sh x sw windows. Horizontal
windows are wide (sh <= sw) and vertical windows are tall; axial windows span
the full padded height or width, with a finite side of length sl. Between
consecutive attention blocks the partition is moved down-left by half a
window per finite axis ("axial shift"), realized as a cyclic roll of the
feature map plus a mask that forbids attention between pixels that were not
neighbors before the wrap. The mask is stored as per-pixel region ids and
applied inside :func:`autodiff.window_attention`.

Window extents never exceed the padded feature extent: a window side larger
than the image degrades to a full span. Non-divisible resolutions are
reflect-padded on the right/bottom, which also keeps every pad strictly
smaller than the original extent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import MASK_VALUE, ShapeError, Tensor, _reflect_index, gather, reshape, transpose

__all__ = [
    "HORIZONTAL",
    "VERTICAL",
    "MASK_VALUE",
    "WindowSpec",
    "WindowGeometry",
    "resolve_geometry",
    "partition",
    "merge",
    "cyclic_shift",
    "build_shift_mask",
    "window_maps",
]

HORIZONTAL = "horizontal"
VERTICAL = "vertical"


@dataclass(frozen=True)
class WindowSpec:
    """Requested window family, before resolving against a resolution."""

    kind: str  # "regular" | "axial"
    sh: int = 0
    sw: int = 0
    sl: int = 0

    def __post_init__(self):
        if self.kind == "regular":
            if self.sh < 1 or self.sw < 1:
                raise ValueError(f"regular window extents must be >= 1, got ({self.sh},{self.sw})")
        elif self.kind == "axial":
            if self.sl < 1:
                raise ValueError(f"axial side length must be >= 1, got {self.sl}")
        else:
            raise ValueError(f"unknown window kind {self.kind!r}")

    @staticmethod
    def regular(sh: int, sw: int) -> "WindowSpec":
        return WindowSpec(kind="regular", sh=sh, sw=sw)

    @staticmethod
    def axial(sl: int) -> "WindowSpec":
        return WindowSpec(kind="axial", sl=sl)


@dataclass(frozen=True)
class WindowGeometry:
    """Window layout resolved for one orientation at one resolution.

    ``height``/``width`` are the unpadded feature extents; windows tile the
    padded map of size (height + pad_h) x (width + pad_w). ``shift_down`` and
    ``shift_left`` are the cyclic-shift offsets (zero along any full-span
    axis, where a shift would only relabel the single window).
    """

    orientation: str
    sh: int
    sw: int
    shift_down: int
    shift_left: int
    pad_h: int
    pad_w: int
    height: int
    width: int

    @property
    def padded_h(self) -> int:
        return self.height + self.pad_h

    @property
    def padded_w(self) -> int:
        return self.width + self.pad_w

    @property
    def window_pixels(self) -> int:
        return self.sh * self.sw

    @property
    def num_windows(self) -> int:
        return (self.padded_h // self.sh) * (self.padded_w // self.sw)

    @property
    def shifted(self) -> bool:
        return self.shift_down != 0 or self.shift_left != 0


def resolve_geometry(
    spec: WindowSpec, orientation: str, height: int, width: int, shifted: bool = False
) -> WindowGeometry:
    """Resolve a window spec for one head orientation against a resolution."""
    if orientation not in (HORIZONTAL, VERTICAL):
        raise ValueError(f"unknown orientation {orientation!r}")
    if height < 1 or width < 1:
        raise ValueError(f"resolution must be positive, got {height}x{width}")

    if spec.kind == "regular":
        lo, hi = sorted((spec.sh, spec.sw))
        sh, sw = (lo, hi) if orientation == HORIZONTAL else (hi, lo)
        sh = min(sh, height)
        sw = min(sw, width)
        pad_h = (-height) % sh
        pad_w = (-width) % sw
    else:
        if orientation == HORIZONTAL:
            sh = min(spec.sl, height)
            pad_h = (-height) % sh
            sw, pad_w = width, 0
        else:
            sw = min(spec.sl, width)
            pad_w = (-width) % sw
            sh, pad_h = height, 0

    shift_down = shift_left = 0
    if shifted:
        if sh < height + pad_h:
            shift_down = sh // 2
        if sw < width + pad_w:
            shift_left = sw // 2
    return WindowGeometry(
        orientation=orientation,
        sh=sh,
        sw=sw,
        shift_down=shift_down,
        shift_left=shift_left,
        pad_h=pad_h,
        pad_w=pad_w,
        height=height,
        width=width,
    )


def partition(x: Tensor, g: WindowGeometry) -> Tensor:
    """Split [N, H, W, C] into windows: [N*nw, sh*sw, C].

    Windows are enumerated row-major over the window grid and pixels row-major
    within each window. The input must already be padded to divisibility.
    """
    if x.ndim != 4:
        raise ValueError(f"partition expects rank 4, got {x.shape}")
    n, h, w, c = x.shape
    if h % g.sh != 0 or w % g.sw != 0:
        raise ValueError(f"partition: {h}x{w} not divisible by window {g.sh}x{g.sw}")
    grid_h, grid_w = h // g.sh, w // g.sw
    x = reshape(x, (n, grid_h, g.sh, grid_w, g.sw, c))
    x = transpose(x, (0, 1, 3, 2, 4, 5))
    return reshape(x, (n * grid_h * grid_w, g.sh * g.sw, c))


def merge(windows: Tensor, g: WindowGeometry, n: int, h: int, w: int) -> Tensor:
    """Inverse of :func:`partition`: [N*nw, sh*sw, C] -> [N, H, W, C]."""
    if windows.ndim != 3:
        raise ValueError(f"merge expects rank 3, got {windows.shape}")
    if h % g.sh != 0 or w % g.sw != 0:
        raise ValueError(f"merge: {h}x{w} not divisible by window {g.sh}x{g.sw}")
    grid_h, grid_w = h // g.sh, w // g.sw
    c = windows.shape[-1]
    if windows.shape[0] != n * grid_h * grid_w or windows.shape[1] != g.sh * g.sw:
        raise ValueError(
            f"merge: window tensor {windows.shape} inconsistent with grid "
            f"{n}x{grid_h}x{grid_w} of {g.sh}x{g.sw} windows"
        )
    x = reshape(windows, (n, grid_h, grid_w, g.sh, g.sw, c))
    x = transpose(x, (0, 1, 3, 2, 4, 5))
    return reshape(x, (n, h, w, c))


def cyclic_shift(x: Tensor, down: int, left: int) -> Tensor:
    """Roll rows down and columns left; row h of the result comes from
    (h - down) mod H, column w from (w + left) mod W."""
    if x.ndim != 4:
        raise ShapeError(f"cyclic_shift expects rank 4, got {x.shape}")
    if down == 0 and left == 0:
        return x
    _, h, w, _ = x.shape
    x = gather(x, (np.arange(h) - down) % h, axis=1)
    return gather(x, (np.arange(w) + left) % w, axis=2)


def _partition_np(a: np.ndarray, sh: int, sw: int) -> np.ndarray:
    h, w = a.shape
    return (
        a.reshape(h // sh, sh, w // sw, sw).transpose(0, 2, 1, 3).reshape(-1, sh * sw)
    )


def build_shift_mask(g: WindowGeometry) -> np.ndarray:
    """Region ids of a geometry's windows, [nw, n] ints: pixels i and j of
    window w may attend to each other iff their ids are equal. Every id is 0
    when the geometry is unshifted."""
    return window_maps(g)[2]


def window_maps(g: WindowGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only gather maps composing the reflect pad, the cyclic shift and
    the partition, each [nw, n]: ``index``, the pixel each window slot reads;
    ``own`` bool, True where the slot holds its pixel's own copy rather than
    a reflected one (one slot per pixel); and ``regions`` int8, the
    shift-mask region id of each slot (see :func:`build_shift_mask`): 2 if
    its content wrapped across the bottom edge, plus 1 if across the left
    edge."""
    hp, wp = g.padded_h, g.padded_w
    rows = (np.arange(hp) - g.shift_down) % hp
    cols = (np.arange(wp) + g.shift_left) % wp
    padded = _partition_np(rows[:, None] * wp + cols, g.sh, g.sw)
    source = _reflect_index(g.height, g.pad_h)[:, None] * g.width + _reflect_index(g.width, g.pad_w)
    own = (padded // wp < g.height) & (padded % wp < g.width)
    regions = ((padded // wp >= hp - g.shift_down) * 2 + (padded % wp < g.shift_left)).astype(np.int8)
    maps = source.ravel()[padded], own, regions
    for a in maps:
        a.setflags(write=False)
    return maps
