"""Image I/O, bicubic resampling, and restoration quality metrics.

Supported formats are 8-bit non-interlaced PNG (gray and RGB) and binary
PPM/PGM with maxval 255; everything else is rejected with a reason. Metrics
operate on the 8-bit [0, 255] value range; the luma conversion follows the
BT.601 full-to-limited mapping, so Y always lies in [16, 235].
"""

from __future__ import annotations

import struct
import sys
import zlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ImageU8",
    "ImageFormatError",
    "MetricError",
    "load_image",
    "save_image",
    "rgb_to_y",
    "bicubic_weights",
    "bicubic_resize",
    "psnr",
    "ssim",
    "PSNR_CAP",
]

PSNR_CAP = 100.0


class ImageFormatError(ValueError):
    """Unsupported or malformed image file."""


class MetricError(ValueError):
    """Metric precondition violated (shape mismatch, too-small crop, ...)."""


@dataclass(frozen=True)
class ImageU8:
    """8-bit image, row-major [H, W, C] with C in {1, 3}, RGB channel order."""

    data: np.ndarray

    def __post_init__(self):
        a = self.data
        if a.dtype != np.uint8 or a.ndim != 3 or a.shape[2] not in (1, 3):
            raise ImageFormatError(f"ImageU8 needs uint8 [H, W, 1|3], got {a.dtype} {a.shape}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ImageFormatError("image extents must be >= 1")

    @staticmethod
    def from_array(a: np.ndarray) -> "ImageU8":
        a = np.asarray(a)
        if a.ndim == 2:
            a = a[:, :, None]
        return ImageU8(np.ascontiguousarray(a, dtype=np.uint8))

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def channels(self) -> int:
        return self.data.shape[2]


# ---------------------------------------------------------------------------
# PNG
# ---------------------------------------------------------------------------

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _png_chunk(kind: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + kind
        + payload
        + struct.pack(">I", zlib.crc32(kind + payload) & 0xFFFFFFFF)
    )


def _save_png(img: ImageU8, path: str) -> None:
    color_type = 0 if img.channels == 1 else 2
    ihdr = struct.pack(">IIBBBBB", img.width, img.height, 8, color_type, 0, 0, 0)
    raw = b"".join(b"\x00" + img.data[r].tobytes() for r in range(img.height))
    payload = zlib.compress(raw, 6)
    with open(path, "wb") as f:
        f.write(_PNG_SIG)
        f.write(_png_chunk(b"IHDR", ihdr))
        f.write(_png_chunk(b"IDAT", payload))
        f.write(_png_chunk(b"IEND", b""))


def _unfilter_serial(ftype: int, row: list[int], up: list[int], channels: int) -> list[int]:
    """Average (3) or Paeth (4) unfiltering of one row of bytes, given the
    unfiltered row above, on Python ints: each byte is predicted from the
    byte one pixel to its left, already unfiltered, so the row is stepped
    in order. Paeth's distances from p = a + b - c are taken directly:
    |p - a| = |b - c|, |p - b| = |a - c|."""
    cur, up = [0] * channels + row, [0] * channels + up
    for i in range(channels, len(cur)):
        a, b = cur[i - channels], up[i]
        if ftype == 3:
            pred = (a + b) >> 1
        else:
            c = up[i - channels]
            pa, pb, pc = abs(b - c), abs(a - c), abs(a + b - 2 * c)
            pred = a if pa <= pb and pa <= pc else b if pb <= pc else c
        cur[i] = (cur[i] + pred) & 0xFF
    return cur[channels:]


def _unfilter(raw: bytes, height: int, width: int, channels: int) -> np.ndarray:
    stride = width * channels
    if len(raw) != height * (stride + 1):
        raise ImageFormatError("PNG pixel payload has the wrong length")
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    out = np.zeros((height, stride), dtype=np.uint8)
    prev = np.zeros(stride, dtype=np.int64)
    for r in range(height):
        ftype, row = int(rows[r, 0]), rows[r, 1:].astype(np.int64)
        if ftype == 0:
            cur = row
        elif ftype == 1:  # Sub: a running sum along each channel
            cur = np.cumsum(row.reshape(width, channels), axis=0).reshape(stride) & 0xFF
        elif ftype == 2:
            cur = (row + prev) & 0xFF
        elif ftype in (3, 4):
            cur = np.array(_unfilter_serial(ftype, row.tolist(), prev.tolist(), channels), dtype=np.int64)
        else:
            raise ImageFormatError(f"unknown PNG filter type {ftype}")
        out[r] = cur
        prev = cur
    return out.reshape(height, width, channels)


def _load_png(buf: bytes) -> ImageU8:
    if buf[:8] != _PNG_SIG:
        raise ImageFormatError("malformed header: bad PNG signature")
    pos = 8
    ihdr = None
    idat = []
    seen_end = False
    while pos < len(buf):
        if pos + 8 > len(buf):
            raise ImageFormatError("truncated PNG chunk header")
        (length,) = struct.unpack(">I", buf[pos : pos + 4])
        kind = buf[pos + 4 : pos + 8]
        data_end = pos + 8 + length
        if data_end + 4 > len(buf):
            raise ImageFormatError(f"truncated PNG chunk {kind!r}")
        payload = buf[pos + 8 : data_end]
        (crc,) = struct.unpack(">I", buf[data_end : data_end + 4])
        if crc != (zlib.crc32(kind + payload) & 0xFFFFFFFF):
            raise ImageFormatError(f"CRC mismatch in PNG chunk {kind!r}")
        pos = data_end + 4
        if kind == b"IHDR":
            ihdr = payload
        elif kind == b"IDAT":
            idat.append(payload)
        elif kind == b"PLTE":
            raise ImageFormatError("palette PNG not supported")
        elif kind == b"IEND":
            seen_end = True
            break
    if ihdr is None or not seen_end:
        raise ImageFormatError("malformed header: missing IHDR or IEND")
    if len(ihdr) != 13:
        raise ImageFormatError(f"malformed header: IHDR holds {len(ihdr)} bytes, not 13")
    width, height, depth, color, comp, filt, interlace = struct.unpack(">IIBBBBB", ihdr)
    if interlace != 0:
        raise ImageFormatError("interlaced PNG not supported")
    if depth != 8:
        raise ImageFormatError(f"{depth}-bit PNG not supported (8-bit only)")
    if color == 3:
        raise ImageFormatError("palette PNG not supported")
    if color not in (0, 2):
        raise ImageFormatError(f"unsupported PNG color type {color}")
    if comp != 0 or filt != 0:
        raise ImageFormatError("unsupported PNG compression/filter method")
    channels = 1 if color == 0 else 3
    # Inflate at most one byte past the expected payload: a small file whose
    # stream inflates far beyond it is rejected without buffering the rest.
    # (IHDR extents near 2**31 can ask for more than sys.maxsize bytes.)
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(b"".join(idat), min(height * (width * channels + 1) + 1, sys.maxsize))
    except zlib.error as e:
        raise ImageFormatError(f"corrupt PNG pixel data: {e}") from None
    if inflater.unconsumed_tail or inflater.unused_data:
        raise ImageFormatError("PNG pixel payload has the wrong length")
    if not inflater.eof:
        raise ImageFormatError("corrupt PNG pixel data: incomplete or truncated stream")
    return ImageU8(_unfilter(raw, height, width, channels))


# ---------------------------------------------------------------------------
# PPM / PGM (binary, maxval 255)
# ---------------------------------------------------------------------------


def _pnm_tokens(buf: bytes, count: int) -> tuple[list[int], int]:
    tokens: list[int] = []
    pos = 2  # past the magic
    while len(tokens) < count:
        while pos < len(buf) and buf[pos : pos + 1].isspace():
            pos += 1
        if pos < len(buf) and buf[pos : pos + 1] == b"#":
            while pos < len(buf) and buf[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(buf) and not buf[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ImageFormatError("malformed header: truncated PNM header")
        try:
            tokens.append(int(buf[start:pos]))
        except ValueError:
            raise ImageFormatError(f"malformed header: bad PNM token {buf[start:pos]!r}") from None
    return tokens, pos + 1  # single whitespace separates header from data


def _load_pnm(buf: bytes) -> ImageU8:
    magic = buf[:2]
    channels = {b"P5": 1, b"P6": 3}.get(magic)
    if channels is None:
        raise ImageFormatError(f"unsupported PNM magic {magic!r}")
    (width, height, maxval), data_at = _pnm_tokens(buf, 3)
    if maxval != 255:
        raise ImageFormatError(f"unsupported PNM maxval {maxval} (only 8-bit, maxval 255)")
    if width < 1 or height < 1:
        raise ImageFormatError(f"malformed header: PNM extents {width}x{height} must be >= 1")
    need = width * height * channels
    data = buf[data_at : data_at + need]
    if len(data) != need:
        raise ImageFormatError("truncated PNM pixel data")
    return ImageU8(np.frombuffer(data, dtype=np.uint8).reshape(height, width, channels).copy())


def _save_pnm(img: ImageU8, path: str) -> None:
    magic = b"P5" if img.channels == 1 else b"P6"
    with open(path, "wb") as f:
        f.write(magic + b"\n" + f"{img.width} {img.height}\n255\n".encode())
        f.write(img.data.tobytes())


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def load_image(path: str) -> ImageU8:
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:8] == _PNG_SIG:
        return _load_png(buf)
    if buf[:2] in (b"P5", b"P6"):
        return _load_pnm(buf)
    raise ImageFormatError(f"unrecognized image format in {path!r}")


def save_image(img: ImageU8, path: str) -> None:
    lower = path.lower()
    if lower.endswith(".png"):
        _save_png(img, path)
    elif lower.endswith(".pgm"):
        if img.channels != 1:
            raise ImageFormatError("PGM holds single-channel images only")
        _save_pnm(img, path)
    elif lower.endswith(".ppm"):
        if img.channels != 3:
            raise ImageFormatError("PPM holds three-channel images only")
        _save_pnm(img, path)
    else:
        raise ImageFormatError(f"unsupported output extension for {path!r}")


# ---------------------------------------------------------------------------
# Color
# ---------------------------------------------------------------------------


def rgb_to_y(img) -> np.ndarray:
    """BT.601 luma, full-range RGB to limited-range Y in [16, 235] (float)."""
    a = img.data if isinstance(img, ImageU8) else np.asarray(img)
    if a.ndim != 3 or a.shape[2] != 3:
        raise MetricError(f"rgb_to_y expects [H, W, 3], got {a.shape}")
    a = a.astype(np.float64)
    return 16.0 + (65.481 * a[:, :, 0] + 128.553 * a[:, :, 1] + 24.966 * a[:, :, 2]) / 255.0


# ---------------------------------------------------------------------------
# Bicubic resampling
# ---------------------------------------------------------------------------

_CUBIC_A = -0.5


def _cubic(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    ax2, ax3 = ax * ax, ax * ax * ax
    a = _CUBIC_A
    inner = (a + 2.0) * ax3 - (a + 3.0) * ax2 + 1.0
    outer = a * ax3 - 5.0 * a * ax2 + 8.0 * a * ax - 4.0 * a
    return np.where(ax <= 1.0, inner, np.where(ax < 2.0, outer, 0.0))


def bicubic_weights(in_len: int, out_len: int) -> np.ndarray:
    """Dense [out_len, in_len] resampling matrix.

    Output sample j reads input coordinate j * in_len / out_len (corner
    aligned); when shrinking, the kernel is widened by the scale factor for
    antialiasing. Indices clamp at the borders and each row is normalized to
    sum exactly 1.
    """
    ratio = in_len / out_len
    kscale = max(ratio, 1.0)
    support = 2.0 * kscale
    w = np.zeros((out_len, in_len), dtype=np.float64)
    for j in range(out_len):
        center = j * ratio
        lo = int(np.floor(center - support)) + 1
        hi = int(np.ceil(center + support))
        taps = np.arange(lo, hi + 1)
        vals = _cubic((center - taps) / kscale)
        idx = np.clip(taps, 0, in_len - 1)
        np.add.at(w[j], idx, vals)
        w[j] /= w[j].sum()
    return w


def bicubic_resize(img, scale: int, mode: str) -> np.ndarray:
    """Separable bicubic (a = -0.5) up- or downscaling by an integer factor.

    Returns a float64 array; inputs may be :class:`ImageU8` or a float array.
    Downscaling requires the extents to divide by the factor.
    """
    if isinstance(scale, bool) or not isinstance(scale, int) or scale not in (2, 3, 4):
        raise ValueError(f"scale must be an integer in {{2, 3, 4}}, got {scale!r}")
    if mode not in ("up", "down"):
        raise ValueError(f"mode must be 'up' or 'down', got {mode!r}")
    a = img.data if isinstance(img, ImageU8) else np.asarray(img)
    squeeze = a.ndim == 2
    if squeeze:
        a = a[:, :, None]
    a = a.astype(np.float64)
    h, w, _ = a.shape
    if mode == "up":
        out_h, out_w = h * scale, w * scale
    else:
        if h % scale or w % scale:
            raise ValueError(f"downscaling {h}x{w} by {scale} needs divisible extents")
        out_h, out_w = h // scale, w // scale
    a = np.einsum("oi,iwc->owc", bicubic_weights(h, out_h), a)
    a = np.einsum("oj,hjc->hoc", bicubic_weights(w, out_w), a)
    return a[:, :, 0] if squeeze else a


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _prep(img, channel_mode: str, crop: int) -> np.ndarray:
    a = img.data if isinstance(img, ImageU8) else np.asarray(img)
    if a.ndim == 2:
        a = a[:, :, None]
    if a.ndim != 3:
        raise MetricError(f"metric input must be [H, W, C], got {a.shape}")
    a = a.astype(np.float64)
    if channel_mode == "y":
        if a.shape[2] == 3:
            a = rgb_to_y(a)[:, :, None]
        elif a.shape[2] != 1:
            raise MetricError(f"cannot take Y of a {a.shape[2]}-channel image")
    elif channel_mode != "rgb":
        raise MetricError(f"channel_mode must be 'y' or 'rgb', got {channel_mode!r}")
    if crop < 0:
        raise MetricError("crop must be nonnegative")
    if crop > 0:
        if a.shape[0] <= 2 * crop or a.shape[1] <= 2 * crop:
            raise MetricError(f"crop {crop} leaves no pixels of {a.shape[:2]}")
        a = a[crop:-crop, crop:-crop]
    return a


def psnr(a, b, channel_mode: str = "rgb", crop: int = 0) -> float:
    """Peak signal-to-noise ratio in dB on the 8-bit range; identical images
    return the documented cap of 100 dB."""
    x = _prep(a, channel_mode, crop)
    y = _prep(b, channel_mode, crop)
    if x.shape != y.shape:
        raise MetricError(f"shape mismatch: {x.shape} vs {y.shape}")
    mse = float(np.mean((x - y) ** 2))
    if mse == 0.0:
        return PSNR_CAP
    return float(min(PSNR_CAP, 10.0 * np.log10(255.0**2 / mse)))


_SSIM_WINDOW = 11
_SSIM_SIGMA = 1.5
_SSIM_K1 = 0.01
_SSIM_K2 = 0.03


def _gaussian_window() -> np.ndarray:
    """The normalized 1-D Gaussian g; the 2-D window is its outer product."""
    half = (_SSIM_WINDOW - 1) / 2.0
    g = np.exp(-((np.arange(_SSIM_WINDOW) - half) ** 2) / (2.0 * _SSIM_SIGMA**2))
    return g / g.sum()


def _filter_valid(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Valid correlation of ``a`` with the window g g^T, separably: down
    the columns, then along the rows, so that no [H, W, k, k] copy of the
    windows is made."""
    rows = np.lib.stride_tricks.sliding_window_view(a, g.size, axis=0) @ g
    return np.lib.stride_tricks.sliding_window_view(rows, g.size, axis=1) @ g


def ssim(a, b, channel_mode: str = "rgb", crop: int = 0) -> float:
    """Structural similarity with an 11x11 Gaussian window (sigma 1.5),
    averaged over valid positions (and channels in RGB mode)."""
    x = _prep(a, channel_mode, crop)
    y = _prep(b, channel_mode, crop)
    if x.shape != y.shape:
        raise MetricError(f"shape mismatch: {x.shape} vs {y.shape}")
    if x.shape[0] < _SSIM_WINDOW or x.shape[1] < _SSIM_WINDOW:
        raise MetricError(f"image {x.shape[:2]} smaller than the {_SSIM_WINDOW}x{_SSIM_WINDOW} window")
    window = _gaussian_window()
    c1 = (_SSIM_K1 * 255.0) ** 2
    c2 = (_SSIM_K2 * 255.0) ** 2
    scores = []
    for ch in range(x.shape[2]):
        xc, yc = x[:, :, ch], y[:, :, ch]
        mu_x = _filter_valid(xc, window)
        mu_y = _filter_valid(yc, window)
        var_x = _filter_valid(xc * xc, window) - mu_x * mu_x
        var_y = _filter_valid(yc * yc, window) - mu_y * mu_y
        cov = _filter_valid(xc * yc, window) - mu_x * mu_y
        num = (2.0 * mu_x * mu_y + c1) * (2.0 * cov + c2)
        den = (mu_x * mu_x + mu_y * mu_y + c1) * (var_x + var_y + c2)
        scores.append(float(np.mean(num / den)))
    return float(np.mean(scores))
