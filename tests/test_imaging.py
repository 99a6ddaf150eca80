import math
import struct
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crossagg.imaging import (
    ImageFormatError,
    ImageU8,
    MetricError,
    PSNR_CAP,
    bicubic_resize,
    bicubic_weights,
    load_image,
    psnr,
    rgb_to_y,
    save_image,
    ssim,
)


# ---------------------------------------------------------------------------
# PNM
# ---------------------------------------------------------------------------


def test_ppm_hand_built_bytes(tmp_path):
    payload = bytes([10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120])
    path = tmp_path / "two.ppm"
    path.write_bytes(b"P6\n# comment\n2 2\n255\n" + payload)
    img = load_image(str(path))
    assert img.data.shape == (2, 2, 3)
    assert np.array_equal(img.data.ravel(), np.frombuffer(payload, dtype=np.uint8))


def test_pgm_roundtrip(tmp_path):
    img = ImageU8.from_array(np.random.default_rng(0).integers(0, 256, (5, 7), dtype=np.uint8))
    path = str(tmp_path / "g.pgm")
    save_image(img, path)
    assert np.array_equal(load_image(path).data, img.data)


def test_pnm_16bit_rejected(tmp_path):
    path = tmp_path / "deep.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(ImageFormatError, match="maxval"):
        load_image(str(path))


def test_pnm_truncated_rejected(tmp_path):
    path = tmp_path / "cut.ppm"
    path.write_bytes(b"P6\n4 4\n255\n" + b"\x00" * 5)
    with pytest.raises(ImageFormatError, match="truncated"):
        load_image(str(path))


def test_pnm_negative_extents_rejected(tmp_path):
    path = tmp_path / "neg.ppm"
    path.write_bytes(b"P6\n-2 -2\n255\n" + b"\x00" * 12)
    with pytest.raises(ImageFormatError, match="malformed header"):
        load_image(str(path))


def test_save_channel_extension_mismatch(tmp_path):
    rgb = ImageU8.from_array(np.zeros((2, 2, 3), dtype=np.uint8))
    with pytest.raises(ImageFormatError):
        save_image(rgb, str(tmp_path / "x.pgm"))


# ---------------------------------------------------------------------------
# PNG
# ---------------------------------------------------------------------------


@given(
    st.integers(1, 9),
    st.integers(1, 9),
    st.sampled_from([1, 3]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=25)
def test_png_roundtrip_bit_exact(tmp_path_factory, h, w, c, seed):
    img = ImageU8.from_array(
        np.random.default_rng(seed).integers(0, 256, (h, w, c), dtype=np.uint8)
    )
    path = str(tmp_path_factory.mktemp("png") / "img.png")
    save_image(img, path)
    assert np.array_equal(load_image(path).data, img.data)


def _png_chunk(kind, payload):
    return struct.pack(">I", len(payload)) + kind + payload + struct.pack(
        ">I", zlib.crc32(kind + payload) & 0xFFFFFFFF
    )


def _minimal_png(depth=8, color=2, interlace=0):
    sig = b"\x89PNG\r\n\x1a\n"
    ihdr = struct.pack(">IIBBBBB", 1, 1, depth, color, 0, 0, interlace)
    bpp = {0: 1, 2: 3}.get(color, 1) * (2 if depth == 16 else 1)
    idat = zlib.compress(b"\x00" + b"\x7f" * bpp)
    return sig + _png_chunk(b"IHDR", ihdr) + _png_chunk(b"IDAT", idat) + _png_chunk(b"IEND", b"")


def test_png_16bit_rejected(tmp_path):
    path = tmp_path / "deep.png"
    path.write_bytes(_minimal_png(depth=16))
    with pytest.raises(ImageFormatError, match="16-bit"):
        load_image(str(path))


def test_png_interlaced_rejected(tmp_path):
    path = tmp_path / "adam7.png"
    path.write_bytes(_minimal_png(interlace=1))
    with pytest.raises(ImageFormatError, match="interlaced"):
        load_image(str(path))


def test_png_palette_rejected(tmp_path):
    path = tmp_path / "pal.png"
    path.write_bytes(_minimal_png(color=3))
    with pytest.raises(ImageFormatError, match="palette"):
        load_image(str(path))


def test_png_bad_crc_rejected(tmp_path):
    blob = bytearray(_minimal_png())
    blob[-5] ^= 0xFF  # flip a CRC byte of IEND
    path = tmp_path / "crc.png"
    path.write_bytes(bytes(blob))
    with pytest.raises(ImageFormatError, match="CRC"):
        load_image(str(path))


def test_png_short_ihdr_rejected(tmp_path):
    # CRC-valid IHDR chunk of 8 bytes instead of 13
    blob = b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", struct.pack(">II", 1, 1)) + _png_chunk(b"IEND", b"")
    path = tmp_path / "short.png"
    path.write_bytes(blob)
    with pytest.raises(ImageFormatError, match="malformed header"):
        load_image(str(path))


def _filtered_png(img, types):
    """A PNG of ``img`` [H, W, C] (C = 1 or 3) whose row r is filtered with
    type ``types[r]``, encoded a byte at a time as the PNG specification
    states each filter."""
    height, width, channels = img.shape
    rows, prev = [], [0] * (width * channels)
    for ftype, line in zip(types, img.reshape(height, -1).tolist()):
        enc = []
        for i, x in enumerate(line):
            left = line[i - channels] if i >= channels else 0
            up = prev[i]
            ul = prev[i - channels] if i >= channels else 0
            p = left + up - ul
            pa, pb, pc = abs(p - left), abs(p - up), abs(p - ul)
            paeth = left if pa <= pb and pa <= pc else (up if pb <= pc else ul)
            enc.append((x - (0, left, up, (left + up) // 2, paeth)[ftype]) % 256)
        rows.append(bytes([ftype] + enc))
        prev = line
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 0 if channels == 1 else 2, 0, 0, 0)
    return b"\x89PNG\r\n\x1a\n" + b"".join(
        _png_chunk(kind, payload)
        for kind, payload in ((b"IHDR", ihdr), (b"IDAT", zlib.compress(b"".join(rows))), (b"IEND", b""))
    )


def test_png_filtered_rows_decode(tmp_path):
    # exercise Sub/Up/Average/Paeth unfiltering against a reference encoding
    img = np.random.default_rng(3).integers(0, 256, (4, 5, 3), dtype=np.uint8)
    path = tmp_path / "f.png"
    path.write_bytes(_filtered_png(img, [1, 2, 3, 4]))
    assert np.array_equal(load_image(str(path)).data, img)


@pytest.mark.parametrize("channels", [1, 3])
def test_png_random_rows_of_every_filter_type_decode_exactly(tmp_path, channels):
    # Random bytes, each row under a random filter type: every type four
    # times, and some twice in a row.
    rng = np.random.default_rng(11 + channels)
    types = rng.permutation(np.repeat(np.arange(5), 4)).tolist() + [4, 4, 3, 3, 1, 1]
    img = rng.integers(0, 256, (len(types), 9, channels), dtype=np.uint8)
    path = tmp_path / "f.png"
    path.write_bytes(_filtered_png(img, types))
    assert np.array_equal(load_image(str(path)).data, img)


def _gray_png(height, width, idat):
    ihdr = struct.pack(">IIBBBBB", width, height, 8, 0, 0, 0, 0)
    return b"\x89PNG\r\n\x1a\n" + _png_chunk(b"IHDR", ihdr) + _png_chunk(b"IDAT", idat) + _png_chunk(b"IEND", b"")


def test_png_inflating_past_its_payload_rejected_before_inflating_it(tmp_path):
    # A 4x4 gray image holds 4 * (1 + 4) = 20 payload bytes; its 65 KB IDAT
    # inflates to 64 MiB, which inflating the whole stream would buffer first.
    packer = zlib.compressobj(9)
    idat = b"".join(packer.compress(bytes(2**20)) for _ in range(64)) + packer.flush()
    path = tmp_path / "bomb.png"
    path.write_bytes(_gray_png(4, 4, idat))
    tracemalloc.start()
    try:
        with pytest.raises(ImageFormatError, match="wrong length"):
            load_image(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak / 2**20


@pytest.mark.parametrize(
    "stream, message",
    [
        (zlib.compress(bytes(19)), "wrong length"),
        (zlib.compress(bytes(21)), "wrong length"),
        (zlib.compress(bytes(20)) + b"\x00", "wrong length"),  # bytes after the end of the stream
        (zlib.compress(bytes(20))[:-3], "corrupt"),  # the stream stops before its end
    ],
    ids=["short", "one_byte_long", "trailing_bytes", "truncated"],
)
def test_png_payload_of_the_wrong_length_rejected(tmp_path, stream, message):
    path = tmp_path / "bad.png"
    path.write_bytes(_gray_png(4, 4, stream))
    with pytest.raises(ImageFormatError, match=message):
        load_image(str(path))
    path.write_bytes(_gray_png(4, 4, zlib.compress(bytes(20))))
    assert np.array_equal(load_image(str(path)).data, np.zeros((4, 4, 1), dtype=np.uint8))


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "mystery.bin"
    path.write_bytes(b"GIF89a....")
    with pytest.raises(ImageFormatError, match="unrecognized"):
        load_image(str(path))


# ---------------------------------------------------------------------------
# luma
# ---------------------------------------------------------------------------


def test_rgb_to_y_reference_points():
    white = np.full((1, 1, 3), 255.0)
    black = np.zeros((1, 1, 3))
    gray = np.full((1, 1, 3), 128.0)
    assert abs(rgb_to_y(white)[0, 0] - 235.0) < 1e-3
    assert abs(rgb_to_y(black)[0, 0] - 16.0) < 1e-12
    assert abs(rgb_to_y(gray)[0, 0] - (16.0 + 219.0 * 128.0 / 255.0)) < 1e-9


@given(arrays(np.uint8, (4, 5, 3), elements=st.integers(0, 255)))
@settings(max_examples=50)
def test_rgb_to_y_range(rgb):
    y = rgb_to_y(ImageU8.from_array(rgb))
    assert np.all(y >= 16.0 - 1e-9) and np.all(y <= 235.0 + 1e-9)


def test_rgb_to_y_needs_three_channels():
    with pytest.raises(MetricError):
        rgb_to_y(np.zeros((2, 2, 1)))


# ---------------------------------------------------------------------------
# bicubic
# ---------------------------------------------------------------------------


def test_bicubic_constant_image_preserved():
    img = np.full((8, 8, 3), 0.37)
    up = bicubic_resize(img, 2, "up")
    down = bicubic_resize(img, 2, "down")
    assert np.allclose(up, 0.37, atol=1e-12)
    assert np.allclose(down, 0.37, atol=1e-12)


def test_bicubic_upscale_shape_law():
    out = bicubic_resize(np.zeros((6, 10, 3)), 3, "up")
    assert out.shape == (18, 30, 3)


def test_bicubic_impulse_reproduces_kernel_taps():
    sig = np.zeros((16, 1))
    sig[8, 0] = 1.0
    up = bicubic_resize(sig, 2, "up")[:, 0]
    assert abs(up[16] - 1.0) < 1e-12  # on-grid sample
    assert abs(up[17] - 0.5625) < 1e-12  # cubic kernel at x = 0.5, a = -0.5
    assert abs(up[19] + 0.0625) < 1e-12  # cubic kernel at x = 1.5
    assert abs(up[15] - 0.5625) < 1e-12


@given(st.integers(4, 40), st.integers(2, 4), st.booleans())
@settings(max_examples=40)
def test_bicubic_weights_partition_of_unity(n, s, up):
    in_len, out_len = (n, n * s) if up else (n * s, n)
    w = bicubic_weights(in_len, out_len)
    assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-6)


def test_bicubic_scale_validation():
    with pytest.raises(ValueError):
        bicubic_resize(np.zeros((4, 4, 1)), 1.5, "up")
    with pytest.raises(ValueError):
        bicubic_resize(np.zeros((4, 4, 1)), 5, "up")
    with pytest.raises(ValueError):
        bicubic_resize(np.zeros((5, 5, 1)), 2, "down")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_psnr_identical_images_capped():
    img = np.random.default_rng(4).uniform(0, 255, (12, 12, 3))
    assert psnr(img, img) == PSNR_CAP


def test_psnr_constant_offset_closed_form():
    a = np.full((16, 16, 3), 100.0)
    assert abs(psnr(a, a + 1.0) - 20.0 * math.log10(255.0)) <= 1e-3
    assert abs(psnr(a, a + 1.0) - 48.1308) <= 1e-3


def test_psnr_shape_mismatch():
    with pytest.raises(MetricError):
        psnr(np.zeros((4, 4, 3)), np.zeros((5, 4, 3)))


def test_psnr_crop_changes_region():
    a = np.zeros((12, 12, 1))
    b = np.zeros((12, 12, 1))
    b[0, 0, 0] = 255.0  # corner error only
    assert psnr(a, b) < PSNR_CAP
    assert psnr(a, b, crop=2) == PSNR_CAP


def test_psnr_y_mode_uses_luma():
    rng = np.random.default_rng(5)
    a = rng.uniform(0, 255, (16, 16, 3))
    b = a.copy()
    assert psnr(a, b, "y") == PSNR_CAP
    b[:, :, 0] += 4.0
    assert psnr(a, b, "y") > psnr(a, b, "rgb")


def test_ssim_identical_is_exactly_one():
    img = np.random.default_rng(6).uniform(0, 255, (24, 24, 3))
    assert ssim(img, img) == 1.0


def test_ssim_symmetry():
    rng = np.random.default_rng(7)
    a = rng.uniform(0, 255, (20, 20, 3))
    b = np.clip(a + rng.normal(0, 12, a.shape), 0, 255)
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)
    assert ssim(a, b) < 1.0


def test_ssim_value_in_range():
    rng = np.random.default_rng(8)
    a = rng.uniform(0, 255, (16, 16, 1))
    b = rng.uniform(0, 255, (16, 16, 1))
    assert -1.0 <= ssim(a, b) <= 1.0


def _ssim_2d_window(a, b):
    """SSIM with the 11x11 window applied as one 2-D correlation over every
    window position, the form the separable filter restates."""
    half = 5.0
    g = np.exp(-((np.arange(11) - half) ** 2) / (2.0 * 1.5**2))
    window = np.outer(g / g.sum(), g / g.sum())

    def filt(c):
        return np.tensordot(np.lib.stride_tricks.sliding_window_view(c, (11, 11)), window, axes=([2, 3], [0, 1]))

    c1, c2 = (0.01 * 255.0) ** 2, (0.03 * 255.0) ** 2
    scores = []
    for x, y in zip(np.moveaxis(a, 2, 0), np.moveaxis(b, 2, 0)):
        mx, my = filt(x), filt(y)
        vx, vy, cov = filt(x * x) - mx * mx, filt(y * y) - my * my, filt(x * y) - mx * my
        scores.append(np.mean((2 * mx * my + c1) * (2 * cov + c2) / ((mx * mx + my * my + c1) * (vx + vy + c2))))
    return float(np.mean(scores))


@pytest.mark.parametrize("shape", [(11, 14, 3), (37, 40, 3), (64, 64, 1)])
def test_ssim_separable_window_matches_the_2d_window(shape):
    # Separating the Gaussian window reassociates each local mean: the SSIM
    # moves by a few ulp of 1.
    rng = np.random.default_rng(9)
    a = rng.uniform(0, 255, shape)
    b = np.clip(a + rng.normal(0, 20, shape), 0, 255)
    assert abs(ssim(a, b) - _ssim_2d_window(a, b)) <= 1e-14


def test_ssim_holds_no_copy_of_its_windows():
    # At 192x192 the 2-D form copied every 11x11 window: 30.6 MiB of float64
    # per filtered map.
    rng = np.random.default_rng(10)
    a, b = rng.uniform(0, 255, (192, 192, 3)), rng.uniform(0, 255, (192, 192, 3))
    tracemalloc.start()
    ssim(a, b)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 8 * 2**20, peak / 2**20


def test_ssim_small_image_rejected():
    with pytest.raises(MetricError):
        ssim(np.zeros((8, 8, 1)), np.zeros((8, 8, 1)))


def test_metrics_reject_bad_crop():
    with pytest.raises(MetricError):
        psnr(np.zeros((6, 6, 1)), np.zeros((6, 6, 1)), crop=3)
