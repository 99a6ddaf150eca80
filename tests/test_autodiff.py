import ctypes
import dataclasses
import hashlib
import math
import os
import select
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crossagg import autodiff as ad
from crossagg.autodiff import (
    GradientTape,
    GraphError,
    OptimizerHyper,
    ShapeError,
    Tensor,
    adam_step,
    backward,
    init_adam_state,
)
from crossagg.model import cat_forward, init_params, preset_config
from crossagg.windowing import cyclic_shift

from scipy.special import erf

from helpers import assert_grads_match_fd, rand, repo_root, taped_output_and_grads


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    assert np.array_equal(ad.matmul(eye, eye).data, np.eye(2, dtype=np.float32))


def test_matmul_hand_case():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[0.0], [1.0]])
    assert np.array_equal(ad.matmul(a, b).data, np.array([[2.0], [4.0]], dtype=np.float32))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as e:
        ad.matmul(Tensor(np.zeros((3, 5))), Tensor(np.zeros((4, 2))))
    assert "(3, 5)" in str(e.value) and "(4, 2)" in str(e.value)


def test_matmul_batched_matches_numpy():
    a, b = rand((3, 2, 4, 5), 0), rand((3, 2, 5, 6), 1)
    got = ad.matmul(Tensor(a), Tensor(b)).numpy()
    assert np.allclose(got, a @ b)


# ---------------------------------------------------------------------------
# softmax
# ---------------------------------------------------------------------------


def test_softmax_symmetric_pair():
    assert np.allclose(ad.softmax_lastdim(Tensor([0.0, 0.0])).numpy(), [0.5, 0.5])


def test_softmax_closed_form():
    got = ad.softmax_lastdim(Tensor([0.0, math.log(3.0)], dtype=np.float64)).numpy()
    assert np.allclose(got, [0.25, 0.75], atol=1e-12)


def test_softmax_mask_saturation():
    got = ad.softmax_lastdim(Tensor([0.0, -1e9])).numpy()
    assert got[1] < 1e-9 and abs(got[0] - 1.0) < 1e-6


@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 9)), elements=st.floats(-50, 50)))
def test_softmax_rows_sum_to_one(x):
    s = ad.softmax_lastdim(Tensor(x, dtype=np.float64)).numpy()
    assert np.all(np.abs(s.sum(axis=-1) - 1.0) <= 1e-6)
    assert np.all(s >= 0.0)


# ---------------------------------------------------------------------------
# layer norm
# ---------------------------------------------------------------------------


def test_layer_norm_constant_vector_is_zero():
    x = Tensor(np.full((2, 5), 3.7))
    out = ad.layer_norm(x, Tensor(np.ones(5)), Tensor(np.zeros(5)))
    assert np.allclose(out.numpy(), 0.0)


def test_layer_norm_hand_case():
    out = ad.layer_norm(
        Tensor([[1.0, 3.0]], dtype=np.float64),
        Tensor(np.ones(2), dtype=np.float64),
        Tensor(np.zeros(2), dtype=np.float64),
        eps=1e-12,
    )
    assert np.allclose(out.numpy(), [[-1.0, 1.0]], atol=1e-5)


def test_layer_norm_affine_override():
    x = Tensor(rand((3, 4), 2))
    out = ad.layer_norm(x, Tensor(np.zeros(4)), Tensor(np.full(4, 5.0)))
    assert np.allclose(out.numpy(), 5.0)


def test_layer_norm_channel_mismatch():
    with pytest.raises(ShapeError):
        ad.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(3)))


# ---------------------------------------------------------------------------
# gelu
# ---------------------------------------------------------------------------


def test_gelu_values():
    xs = Tensor([0.0, 1.0, -10.0], dtype=np.float64)
    out = ad.gelu(xs).numpy()
    assert out[0] == 0.0
    assert abs(out[1] - 0.841345) < 1e-5
    assert abs(out[2]) < 1e-6
    want = 0.5 * 1.0 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
    assert abs(out[1] - want) < 1e-12


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------


def test_linear_identity():
    x = Tensor(rand((3, 4), 3))
    out = ad.linear(x, Tensor(np.eye(4)), Tensor(np.zeros(4)))
    assert np.allclose(out.numpy(), x.numpy())


def test_linear_hand_case():
    out = ad.linear(Tensor([[1.0, 1.0]]), Tensor([[1.0], [2.0]]), Tensor([3.0]))
    assert np.allclose(out.numpy(), [[6.0]])


def test_linear_zero_weight_broadcasts_bias():
    x = Tensor(rand((2, 3, 4), 4))
    out = ad.linear(x, Tensor(np.zeros((4, 2))), Tensor([1.5, -2.5]))
    assert np.allclose(out.numpy(), np.broadcast_to([1.5, -2.5], (2, 3, 2)))


def test_linear_shape_error():
    with pytest.raises(ShapeError):
        ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))


# ---------------------------------------------------------------------------
# linear, gelu and layer_norm against the compositions they replace
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(5,), (2, 3, 5)])
def test_linear_is_bit_identical_to_composed_ops(dtype, lead):
    def composed(t):
        x, w = t["x"], t["w"]
        y = ad.reshape(ad.matmul(ad.reshape(x, (-1, x.shape[-1])), w), x.shape[:-1] + (w.shape[1],))
        return ad.add(y, t["b"])

    arrays = {
        "x": rand(lead + (7,), 60, 1.0, dtype),
        "w": rand((7, 6), 61, 1.0, dtype),
        "b": rand((6,), 62, 1.0, dtype),
    }
    out, grads = taped_output_and_grads(lambda t: ad.linear(t["x"], t["w"], t["b"]), arrays)
    want_out, want_grads = taped_output_and_grads(composed, arrays)
    assert out.dtype == dtype and np.array_equal(out, want_out)
    for k in arrays:
        assert np.array_equal(grads[k], want_grads[k]), k


def test_linear_records_one_tape_node():
    x, w, b = (Tensor(rand(s, 63)) for s in ((2, 3, 4), (4, 5), (5,)))
    tape = GradientTape()
    tape.watch(x)
    with tape:
        ad.linear(x, w, b)
    assert len(tape._nodes) == 1


def test_gelu_records_one_tape_node():
    x = Tensor(rand((2, 3, 4), 63))
    tape = GradientTape()
    tape.watch(x)
    with tape:
        ad.gelu(x)
    assert len(tape._nodes) == 1


def _old_gelu(xd):
    return xd * (0.5 * (1.0 + erf(xd / np.sqrt(xd.dtype.type(2.0)))))


def _rational_half_erf(x):
    """erf(x / sqrt(2)) / 2 by the float32 rational of ``ad._half_erf_f32``,
    written out of place over the whole array."""
    u = np.clip(x, -ad._ERF_CLIP, ad._ERF_CLIP)
    s = u * u
    p = s + ad._ERF_NUM[-1]
    for a in ad._ERF_NUM[-2::-1]:
        p = p * s + a
    q = s + ad._ERF_DEN[-1]
    for b in ad._ERF_DEN[-2::-1]:
        q = q * s + b
    return (p * u) / q * ad._ERF_HALF_K


def _whole_array_cdf(xd):
    """The cdf gelu computes, over the whole array: scipy's erf in float64, the
    float32 rational in float32."""
    if xd.dtype == np.float32:
        return np.float32(0.5) + _rational_half_erf(xd)
    return 0.5 * (1.0 + erf(xd / np.sqrt(xd.dtype.type(2.0))))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("taped", [False, True])
def test_gelu_chunked_is_bit_identical(monkeypatch, dtype, taped):
    monkeypatch.setattr(ad, "WINDOW_CHUNK_BYTES", 7 * np.dtype(dtype).itemsize)  # chunk boundaries mid-array
    xd = rand((3, 5, 4), 64, 3.0, dtype)
    want = _old_gelu(xd) if dtype == np.float64 else xd * _whole_array_cdf(xd)
    if not taped:
        out = ad.gelu(Tensor(xd))
        assert out.dtype == dtype and np.array_equal(out.data, want)
        return
    out, grads = taped_output_and_grads(lambda t: ad.gelu(t["x"]), {"x": xd})
    assert np.array_equal(out, want)
    cdf = _whole_array_cdf(xd)
    pdf = np.exp(-0.5 * xd * xd) * xd.dtype.type(1.0 / math.sqrt(2.0 * math.pi))
    probe = np.random.default_rng(7).normal(size=xd.shape).astype(dtype)
    assert np.array_equal(grads["x"], probe * (cdf + xd * pdf))


def _erf_f32(x):
    """erf(x / sqrt(2)) of float32 ``x`` by ``ad._half_erf_f32``, in float64."""
    half = np.empty_like(x)
    ad._half_erf_f32(x, half, np.empty_like(x), np.empty_like(x))
    return 2.0 * half.astype(np.float64)


def test_float32_erf_accuracy_on_a_dense_grid():
    x = (np.linspace(-6.0, 6.0, 4_000_001) * math.sqrt(2.0)).astype(np.float32)
    exact = erf(x.astype(np.float64) / math.sqrt(2.0))
    err = np.abs(_erf_f32(x) - exact)
    ulp = np.spacing(np.abs(exact).astype(np.float32)).astype(np.float64)
    assert err.max() <= 4.5e-7, err.max()
    assert (err / ulp).max() <= 7.0, (err / ulp).max()


def test_float32_erf_special_values():
    tiny = np.float32(np.finfo(np.float32).smallest_subnormal)
    clip = ad._ERF_CLIP
    zeros = _erf_f32(np.array([0.0, -0.0], dtype=np.float32))
    assert np.array_equal(zeros, [0.0, 0.0]) and np.array_equal(np.signbit(zeros), [False, True])
    assert np.isnan(_erf_f32(np.array([np.nan], dtype=np.float32))).all()
    subnormal = np.array([tiny, 7 * tiny, 1e-39, -tiny, -1e-39], dtype=np.float32)
    got = _erf_f32(subnormal)
    assert np.array_equal(np.signbit(got), np.signbit(subnormal))
    assert np.abs(got - erf(subnormal.astype(np.float64) / math.sqrt(2.0))).max() <= 2 * float(tiny)
    # At and beyond the clip erf is exactly +-1, so gelu is exactly x or -0 there.
    beyond = np.array(
        [clip, np.nextafter(clip, np.float32(np.inf)), 1e30, np.finfo(np.float32).max, np.inf], dtype=np.float32
    )
    assert np.array_equal(_erf_f32(beyond), np.ones(beyond.size))
    assert np.array_equal(_erf_f32(-beyond), -np.ones(beyond.size))
    assert np.array_equal(ad.gelu(Tensor(beyond)).data, beyond)
    neg = ad.gelu(Tensor(-beyond[:-1])).data
    assert np.array_equal(neg, np.zeros(neg.size)) and np.signbit(neg).all()
    inside = np.nextafter(clip, np.float32(0))
    assert abs(_erf_f32(np.array([inside]))[0] - erf(float(inside) / math.sqrt(2.0))) <= 4.5e-7


def _float64_erf_samples():
    """Dense grids, normal draws, random bit patterns and the edges of
    ``ad._erf_f64``'s three ranges, NaN included."""
    rng = np.random.default_rng(66)
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = [np.nextafter(e, d) for e in (1.0, 6.0) for d in (0.0, e, np.inf)]
    special = np.array(
        edges + [0.0, tiny, 7 * tiny, 1e-310, np.finfo(np.float64).tiny, 8.0, 1e300, np.inf, np.nan],
        dtype=np.float64,
    )
    bits = rng.integers(0, 1 << 64, size=200_000, dtype=np.uint64).view(np.float64)
    return np.concatenate([
        np.linspace(-7.0, 7.0, 400_001),
        rng.uniform(1.0, 6.0, 200_000),
        rng.normal(size=200_000) * 3.0,
        rng.uniform(26.6, 27.3, 20_000),
        np.where(np.isnan(bits), np.nan, bits),  # quiet NaNs: a signalling one raises "invalid"
        special,
        -special,
    ])


def test_float64_erf_matches_scipy_bit_for_bit():
    u = _float64_erf_samples()
    want = erf(u)
    got = np.empty_like(u)
    ad._erf_f64(u, got, np.empty_like(u), np.empty_like(u))
    in_place = u.copy()
    ad._erf_f64(in_place, in_place, np.empty_like(u), np.empty_like(u))
    nan = np.isnan(want)
    for out in (got, in_place):
        assert np.array_equal(np.isnan(out), nan)
        assert np.array_equal(out.view(np.int64)[~nan], want.view(np.int64)[~nan])  # values and sign bits


def test_gelu_untaped_allocates_its_output_and_one_chunk():
    x = Tensor(rand((512, 720), 65, 1.0, np.float32))
    tracemalloc.start()
    out = ad.gelu(x)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < out.data.nbytes + ad.WINDOW_CHUNK_BYTES + (64 << 10), peak


def test_gelu_taped_keeps_only_its_input():
    # The node's closure holds the input and no other float array: the
    # backward rebuilds the cdf, so no second [rows, hidden] array stays alive.
    x = Tensor(rand((512, 720), 95, 1.0, np.float32))
    tape = GradientTape()
    tape.watch(x)
    tracemalloc.start()
    with tape:
        out = ad.gelu(x)
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    assert held < out.data.nbytes + (64 << 10), held
    (node,) = tape._nodes
    fn = node.backward_fn
    saved = list(fn.__defaults__ or ()) + [cell.cell_contents for cell in fn.__closure__ or ()]
    arrays = [v for v in saved if isinstance(v, np.ndarray)]
    assert len(arrays) == 1 and arrays[0] is x.data


def test_gelu_backward_allocates_its_gradient_and_two_chunks():
    x = Tensor(rand((512, 720), 97, 1.0, np.float32))
    tape = GradientTape()
    tape.watch(x)
    with tape:
        ad.gelu(x)
    (node,) = tape._nodes
    g = rand((512, 720), 98, 1.0, np.float32)
    tracemalloc.start()
    (grad,) = node.backward_fn(g)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < grad.nbytes + 2 * ad.WINDOW_CHUNK_BYTES, peak


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_at_infinities(dtype):
    # gelu(-inf) is -0 and gelu(inf) inf; the slope is 0 at -inf and 1 at inf,
    # on its own and after a linear map. The bias -0.0 adds nothing to any
    # value, the sign of a zero included, so linear's output is exactly x.
    x = np.array([-np.inf, np.inf, -1.0, 2.0], dtype=dtype)
    one, neg_zero = Tensor(np.ones((1, 1), dtype)), Tensor(np.full(1, -0.0, dtype))
    entry_points = {
        "gelu": lambda t: ad.gelu(t["x"]),
        "gelu of linear": lambda t: ad.reshape(ad.gelu(ad.linear(ad.reshape(t["x"], (4, 1)), one, neg_zero)), (4,)),
    }
    probe = np.random.default_rng(7).normal(size=4).astype(dtype)
    for name, build in entry_points.items():
        with np.errstate(invalid="ignore"):  # the weight's gradient sums -inf * 0
            out, grads = taped_output_and_grads(build, {"x": x})
        assert out[0] == 0 and np.signbit(out[0]) and out[1] == np.inf, name
        assert np.array_equal(ad.gelu(Tensor(x)).data, out), name
        assert np.isfinite(grads["x"]).all() and grads["x"][0] == 0 and grads["x"][1] == probe[1], name
    untaped = ad.gelu(ad.linear(Tensor(x.reshape(4, 1)), one, neg_zero)).data.ravel()
    assert np.array_equal(untaped, out) and np.signbit(untaped[0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_is_bit_identical_to_old_expression(dtype):
    xd, gd, bd = rand((2, 3, 8), 66, 2.0, dtype), rand((8,), 67, 1.0, dtype), rand((8,), 68, 1.0, dtype)
    build = lambda t: ad.layer_norm(t["x"], t["g"], t["b"])  # noqa: E731
    out, grads = taped_output_and_grads(build, {"x": xd, "g": gd, "b": bd})
    centered = xd - xd.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + dtype(1e-5))
    xhat = centered * inv
    assert out.dtype == dtype and np.array_equal(out, xhat * gd + bd)
    g = np.random.default_rng(7).normal(size=xd.shape).astype(dtype)
    dxhat = g * gd
    dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    assert np.array_equal(grads["x"], dx)
    assert np.array_equal(grads["g"], (g * xhat).sum(axis=(0, 1)))


# ---------------------------------------------------------------------------
# conv2d_3x3
# ---------------------------------------------------------------------------


def _identity_kernel(c):
    k = np.zeros((3, 3, c, c))
    for i in range(c):
        k[1, 1, i, i] = 1.0
    return k


def test_conv_identity_kernel_interior():
    x = rand((1, 6, 7, 3), 5)
    out = ad.conv2d_3x3(Tensor(x, dtype=np.float64), Tensor(_identity_kernel(3), dtype=np.float64), Tensor(np.zeros(3)))
    assert np.allclose(out.numpy(), x)


def test_conv_identity_kernel_exact_with_zero_borders():
    x = rand((1, 6, 7, 3), 6)
    x[:, 0, :, :] = x[:, -1, :, :] = x[:, :, 0, :] = x[:, :, -1, :] = 0.0
    xt = Tensor(x, dtype=np.float64)
    out = ad.conv2d_3x3(xt, Tensor(_identity_kernel(3), dtype=np.float64), Tensor(np.zeros(3)))
    assert np.array_equal(out.data, xt.data)


def test_conv_depthwise_ones_on_single_pixel():
    v = 2.75
    x = Tensor(np.full((1, 1, 1, 1), v))
    k = Tensor(np.ones((3, 3, 1, 1)))
    out = ad.conv2d_3x3(x, k, Tensor(np.zeros(1)), depthwise=True)
    assert np.allclose(out.numpy(), v)


def test_conv_zero_kernel_gives_bias():
    x = Tensor(rand((2, 4, 4, 3), 7))
    out = ad.conv2d_3x3(x, Tensor(np.zeros((3, 3, 3, 2))), Tensor([4.0, -1.0]))
    assert np.allclose(out.numpy(), np.broadcast_to([4.0, -1.0], (2, 4, 4, 2)))


def test_conv_depthwise_channel_mismatch():
    with pytest.raises(ShapeError):
        ad.conv2d_3x3(Tensor(np.zeros((1, 2, 2, 3))), Tensor(np.zeros((3, 3, 2, 1))), Tensor(np.zeros(3)), depthwise=True)


def test_conv_kernel_shape_error():
    with pytest.raises(ShapeError):
        ad.conv2d_3x3(Tensor(np.zeros((1, 2, 2, 3))), Tensor(np.zeros((5, 5, 3, 1))), Tensor(np.zeros(1)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_depthwise_conv_in_bands_is_bit_identical_to_a_sum_of_taps(monkeypatch, dtype):
    n, h, w, c = 2, 7, 5, 3
    # Bands of 3, 3 and 1 rows: a band row and its product row per row.
    monkeypatch.setattr(ad, "WINDOW_CHUNK_BYTES", 3 * n * (2 * w + 2) * c * np.dtype(dtype).itemsize)
    x, k, b = rand((n, h, w, c), 46, 1.0, dtype), rand((3, 3, c, 1), 47, 1.0, dtype), rand((c,), 48, 1.0, dtype)
    xp = np.zeros((n, h + 2, w + 2, c), dtype=dtype)
    xp[:, 1:-1, 1:-1] = x
    want = np.zeros_like(x)
    for u in range(3):
        for v in range(3):
            want += xp[:, u : u + h, v : v + w] * k[u, v, :, 0]
    want += b
    out = ad.conv2d_3x3(Tensor(x), Tensor(k), Tensor(b), depthwise=True).data
    assert out.dtype == dtype and np.array_equal(out, want) and np.array_equal(np.signbit(out), np.signbit(want))


def _conv_full_padded(x, k, b, g, depthwise):
    """The convolution over one zero-padded copy of the whole input, with a
    full-size product per tap, and its per-tap GEMM backward for the output
    gradient ``g``: (out, gx, gk, gb)."""
    n, h, w, cin = x.shape
    xp = np.zeros((n, h + 2, w + 2, cin), dtype=x.dtype)
    xp[:, 1 : h + 1, 1 : w + 1] = x
    out = np.zeros(g.shape, dtype=x.dtype)
    for u in range(3):
        for v in range(3):
            patch = xp[:, u : u + h, v : v + w]
            out += patch * k[u, v, :, 0] if depthwise else patch @ k[u, v]
    out += b
    gxp, gk = np.zeros_like(xp), np.zeros_like(k)
    g2 = g.reshape(n * h * w, -1)
    for u in range(3):
        for v in range(3):
            patch = xp[:, u : u + h, v : v + w]
            if depthwise:
                gk[u, v, :, 0] = (patch * g).sum(axis=(0, 1, 2))
                gxp[:, u : u + h, v : v + w] += g * k[u, v, :, 0]
            else:
                cols = np.ascontiguousarray(patch).reshape(n * h * w, cin)
                gk[u, v] = cols.T @ g2
                gxp[:, u : u + h, v : v + w] += (g2 @ k[u, v].T).reshape(n, h, w, cin)
    return out, gxp[:, 1 : h + 1, 1 : w + 1], gk, g.sum(axis=(0, 1, 2))


# (x shape, Cout, depthwise): 7 rows in bands of 3, 3 and 1; one row; one
# column; Cin = 3 as shallow.conv; Cout = 3 as head.post.
BAND_CASES = [
    ((2, 7, 5, 4), 6, False),
    ((2, 7, 5, 4), 4, True),
    ((2, 1, 6, 4), 5, False),
    ((1, 1, 6, 4), 4, True),
    ((2, 5, 1, 4), 5, False),
    ((2, 5, 1, 4), 4, True),
    ((1, 6, 9, 3), 8, False),
    ((1, 6, 9, 8), 3, False),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_shape, cout, depthwise", BAND_CASES)
def test_conv_in_bands_is_bit_identical_to_a_full_padded_copy(monkeypatch, dtype, x_shape, cout, depthwise):
    n, h, w, cin = x_shape
    k = rand((3, 3, cin, 1 if depthwise else cout), 101, 1.0, dtype)
    arrays = {"x": rand(x_shape, 100, 1.0, dtype), "k": k, "b": rand((cout,), 102, 1.0, dtype)}
    g = np.random.default_rng(7).normal(size=(n, h, w, cout)).astype(dtype)  # taped_output_and_grads' probe
    want = _conv_full_padded(arrays["x"], k, arrays["b"], g, depthwise)
    row = n * ((w + 2) * cin + w * cout) * np.dtype(dtype).itemsize  # a band row and its product row
    for rows in (1, 3, h):
        monkeypatch.setattr(ad, "WINDOW_CHUNK_BYTES", rows * row)
        conv = lambda t: ad.conv2d_3x3(t["x"], t["k"], t["b"], depthwise=depthwise)  # noqa: E731
        untaped = conv({name: Tensor(a) for name, a in arrays.items()}).data
        out, grads = taped_output_and_grads(conv, arrays)
        assert untaped.dtype == dtype and np.array_equal(untaped, want[0]) and np.array_equal(out, want[0]), rows
        for name, expected in zip(("x", "k", "b"), want[1:]):
            assert np.array_equal(grads[name], expected), (rows, name)


@pytest.mark.parametrize("depthwise", [False, True])
def test_conv_untaped_holds_its_output_and_one_band(monkeypatch, depthwise):
    # No zero-padded copy of the whole input and no full-size product: the
    # op allocates its output, a band of rows with its halo and a band's
    # product scratch (and, depthwise, the taps tiled along a row), plus
    # numpy's ufunc buffers.
    n, h, w, c, rows = 1, 64, 64, 16, 4
    monkeypatch.setattr(ad, "WINDOW_CHUNK_BYTES", rows * n * (2 * w + 2) * c * 4)
    x = Tensor(rand((n, h, w, c), 103, 1.0, np.float32))
    k = Tensor(rand((3, 3, c, 1 if depthwise else c), 104, 1.0, np.float32))
    b = Tensor(np.zeros(c, np.float32))
    tracemalloc.start()
    out = ad.conv2d_3x3(x, k, b, depthwise=depthwise)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    band = n * (rows + 2) * (w + 2) * c * 4 + n * rows * w * c * 4 + 9 * w * c * 4
    assert peak < out.data.nbytes + band + (64 << 10), (peak, out.data.nbytes, band)


def _conv_backward_einsum(x, k, g):
    """The per-tap einsum conv backward that the 2-D GEMM backward replaced."""
    n, h, w, cin = x.shape
    xp = np.zeros((n, h + 2, w + 2, cin), dtype=x.dtype)
    xp[:, 1 : h + 1, 1 : w + 1, :] = x
    gxp = np.zeros_like(xp)
    gk = np.zeros_like(k)
    for u in range(3):
        for v in range(3):
            gk[u, v] = np.einsum("nhwc,nhwo->co", xp[:, u : u + h, v : v + w, :], g)
            gxp[:, u : u + h, v : v + w, :] += g @ k[u, v].T
    return gxp[:, 1 : h + 1, 1 : w + 1, :], gk, g.sum(axis=(0, 1, 2))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("x_shape, cout", [((2, 3, 5, 2), 4), ((2, 4, 3, 5), 3), ((2, 1, 1, 3), 2)])
def test_conv_backward_matches_einsum_reference(dtype, x_shape, cout):
    n, h, w, cin = x_shape
    x = rand(x_shape, 42, scale=1.0, dtype=dtype)
    k = rand((3, 3, cin, cout), 43, scale=1.0, dtype=dtype)
    b = rand((cout,), 44, scale=1.0, dtype=dtype)
    g = rand((n, h, w, cout), 45, scale=1.0, dtype=dtype)
    # Both sides sum the same products in different orders. A sum of K
    # products is within K*eps*sum|products| of exact, so the two differ by
    # at most twice that; sum|products| is the reference run on |x|, |k|, |g|.
    terms = max(n * h * w, 9 * cout)
    bounds = [2 * terms * np.finfo(dtype).eps * m for m in _conv_backward_einsum(abs(x), abs(k), abs(g))]

    xt, kt, bt = Tensor(x, dtype=dtype), Tensor(k, dtype=dtype), Tensor(b, dtype=dtype)
    inputs = [xt, kt, bt]
    tape = GradientTape()
    tape.watch(inputs)
    with tape:
        out = ad.conv2d_3x3(xt, kt, bt)
        loss = ad.sum_all(ad.mul(out, Tensor(g, dtype=dtype)))
    grads = backward(tape, loss)

    for t, want, bound in zip(inputs, _conv_backward_einsum(x, k, g), bounds):
        got = grads[t].numpy()
        assert got.dtype == dtype and got.shape == want.shape
        assert np.all(np.abs(got - want) <= bound)
    if h == w == 1:
        # Every off-centre tap of a 1x1 input reads only zero padding.
        gk = grads[kt].numpy().copy()
        gk[1, 1] = 0.0
        assert not gk.any()


# ---------------------------------------------------------------------------
# pixel shuffle
# ---------------------------------------------------------------------------


def test_pixel_shuffle_r1_is_identity():
    x = Tensor(rand((1, 2, 3, 4), 8))
    assert ad.pixel_shuffle(x, 1) is x


def test_pixel_shuffle_2x2_enumeration():
    x = Tensor(np.array([10.0, 20.0, 30.0, 40.0]).reshape(1, 1, 1, 4))
    out = ad.pixel_shuffle(x, 2).numpy()[0, :, :, 0]
    assert np.array_equal(out, [[10.0, 20.0], [30.0, 40.0]])


def test_pixel_shuffle_shape_law():
    out = ad.pixel_shuffle(Tensor(np.zeros((1, 4, 4, 8))), 2)
    assert out.shape == (1, 8, 8, 2)


def test_pixel_shuffle_divisibility_error():
    with pytest.raises(ShapeError):
        ad.pixel_shuffle(Tensor(np.zeros((1, 2, 2, 6))), 2)


@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(1, 3),
    st.integers(2, 3),
)
@settings(max_examples=25)
def test_pixel_shuffle_index_inverse_roundtrip(n, h, w, c, r):
    x = np.arange(n * h * w * c * r * r, dtype=np.float64).reshape(n, h, w, c * r * r)
    y = ad.pixel_shuffle(Tensor(x, dtype=np.float64), r).numpy()
    # invert via the index law: out(n, h*r+dy, w*r+dx, cc) == in(n, h, w, cc*r^2 + dy*r + dx)
    back = np.zeros_like(x)
    for cc in range(c):
        for dy in range(r):
            for dx in range(r):
                back[:, :, :, cc * r * r + dy * r + dx] = y[:, dy::r, dx::r, cc]
    assert np.array_equal(back, x)


# ---------------------------------------------------------------------------
# tape / backward
# ---------------------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = Tensor(rand((3, 4), 9))
    tape = GradientTape()
    tape.watch(x)
    with tape:
        loss = ad.sum_all(x)
    g = backward(tape, loss)[x]
    assert np.array_equal(g.numpy(), np.ones((3, 4)))


def test_backward_square_hand_case():
    x = Tensor([1.0, -2.0], dtype=np.float64)
    tape = GradientTape()
    tape.watch(x)
    with tape:
        loss = ad.sum_all(ad.mul(x, x))
    g = backward(tape, loss)[x]
    assert np.allclose(g.numpy(), [2.0, -4.0])


def test_backward_unused_param_gets_exact_zero():
    x = Tensor([1.0, 2.0])
    unused = Tensor([5.0])
    tape = GradientTape()
    tape.watch(x, unused)
    with tape:
        loss = ad.sum_all(x)
    grads = backward(tape, loss)
    assert np.array_equal(grads[unused].numpy(), [0.0])


def test_backward_rejects_nonscalar_loss():
    x = Tensor([1.0, 2.0])
    tape = GradientTape()
    tape.watch(x)
    with tape:
        y = ad.mul(x, 2.0)
    with pytest.raises(GraphError):
        backward(tape, y)


def test_backward_rejects_unrecorded_loss():
    x = Tensor([1.0])
    tape = GradientTape()
    tape.watch(x)
    with tape:
        pass
    loose = ad.sum_all(Tensor([2.0]))
    with pytest.raises(GraphError):
        backward(tape, loose)


def test_backward_shared_subexpression_accumulates():
    a = Tensor([3.0], dtype=np.float64)
    tape = GradientTape()
    tape.watch(a)
    with tape:
        z = ad.add(a, a)  # 2a
        loss = ad.sum_all(ad.mul(z, z))  # 4a^2
    assert np.allclose(backward(tape, loss)[a].numpy(), [24.0])


def test_backward_consumes_the_tape():
    x = Tensor([1.0, 2.0], dtype=np.float64)
    tape = GradientTape()
    tape.watch(x)
    with tape:
        loss = ad.sum_all(ad.mul(x, x))
    assert np.array_equal(backward(tape, loss)[x].numpy(), [2.0, 4.0])
    with pytest.raises(GraphError):
        backward(tape, loss)


def test_backward_frees_each_node_once_it_has_run():
    # Two stock-width blocks (C=180) at 16x16 in float64: the backward peaked
    # 17.4 MiB above the taped forward's end state while every node stayed
    # alive until the tape was dropped, and 10.2 MiB once each node (its
    # closure and saved arrays) is dropped as it runs.
    config = dataclasses.replace(preset_config("cat_r_x2"), num_groups=1, blocks_per_group=2)
    store = init_params(config, 0, dtype=np.float64)
    x = Tensor(np.random.default_rng(0).random((1, 16, 16, 3)), dtype=np.float64)
    cat_forward(x, store, config)
    tracemalloc.start()
    try:
        tape = GradientTape()
        tape.watch(store.values())
        with tape:
            loss = ad.mean_all(ad.abs_val(cat_forward(x, store, config)))
        end = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        backward(tape, loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - end < 13.8 * 2**20, (peak - end) / 2**20


def test_ops_outside_tape_record_nothing():
    x = Tensor([1.0])
    tape = GradientTape()
    tape.watch(x)
    with tape:
        ad.mul(x, 3.0)
    ad.mul(x, 5.0)  # outside: must not extend the tape
    assert len(tape._nodes) == 1


# ---------------------------------------------------------------------------
# finite differences for every primitive
# ---------------------------------------------------------------------------


def test_grad_matmul():
    assert_grads_match_fd(
        lambda t: ad.matmul(t["a"], t["b"]), {"a": rand((3, 4), 10), "b": rand((4, 2), 11)}
    )


def test_grad_matmul_batched_broadcast():
    assert_grads_match_fd(
        lambda t: ad.matmul(t["a"], t["b"]), {"a": rand((2, 3, 4), 12), "b": rand((4, 2), 13)}
    )


def test_grad_softmax():
    assert_grads_match_fd(lambda t: ad.softmax_lastdim(t["x"]), {"x": rand((3, 5), 14, scale=2.0)})


def test_grad_layer_norm():
    assert_grads_match_fd(
        lambda t: ad.layer_norm(t["x"], t["g"], t["b"]),
        {"x": rand((2, 3, 4), 15, scale=1.0), "g": rand((4,), 16) + 1.0, "b": rand((4,), 17)},
    )


def test_grad_gelu():
    assert_grads_match_fd(lambda t: ad.gelu(t["x"]), {"x": rand((4, 3), 18, scale=1.5)})


def test_grad_relu():
    assert_grads_match_fd(lambda t: ad.relu(t["x"]), {"x": rand((4, 3), 19, scale=1.5)})


def test_grad_abs():
    assert_grads_match_fd(lambda t: ad.abs_val(t["x"]), {"x": rand((4, 3), 20, scale=1.5)})


def test_grad_conv():
    assert_grads_match_fd(
        lambda t: ad.conv2d_3x3(t["x"], t["k"], t["b"]),
        {"x": rand((1, 3, 4, 2), 21), "k": rand((3, 3, 2, 3), 22), "b": rand((3,), 23)},
    )
    assert_grads_match_fd(
        lambda t: ad.conv2d_3x3(t["x"], t["k"], t["b"]),
        {"x": rand((2, 3, 2, 2), 40), "k": rand((3, 3, 2, 3), 41), "b": rand((3,), 39)},
    )


def test_grad_conv_depthwise():
    assert_grads_match_fd(
        lambda t: ad.conv2d_3x3(t["x"], t["k"], t["b"], depthwise=True),
        {"x": rand((1, 3, 4, 2), 24), "k": rand((3, 3, 2, 1), 25), "b": rand((2,), 26)},
    )


def test_grad_pixel_shuffle():
    assert_grads_match_fd(lambda t: ad.pixel_shuffle(t["x"], 2), {"x": rand((1, 2, 3, 8), 27)})


def test_grad_roll():
    assert_grads_match_fd(lambda t: cyclic_shift(t["x"], 2, 1), {"x": rand((1, 3, 4, 2), 29)})


def test_grad_narrow():
    assert_grads_match_fd(lambda t: ad.narrow(t["x"], -1, 1, 2), {"x": rand((2, 3, 4), 30)})


def test_grad_gather():
    idx = np.array([0, 2, 2, 1])
    assert_grads_match_fd(lambda t: ad.gather(t["x"], idx, axis=0), {"x": rand((3, 4), 31)})


def test_narrow_axis_out_of_range():
    with pytest.raises(ShapeError, match="axis 4"):
        ad.narrow(Tensor(np.zeros((2, 3, 4))), 4, 0, 1)


def test_gather_axis_out_of_range():
    with pytest.raises(ShapeError, match="axis 5"):
        ad.gather(Tensor(np.zeros((2, 3, 4))), np.array([0, 1]), axis=5)


@pytest.mark.parametrize("index", [3, -1])
def test_gather_index_out_of_range(index):
    with pytest.raises(ShapeError, match=r"\[0, 3\) along axis 1"):
        ad.gather(Tensor(np.zeros((2, 3, 4))), np.array([0, index]), axis=1)


def test_mean_all_of_empty_tensor():
    with pytest.raises(ShapeError, match="empty"):
        ad.mean_all(Tensor(np.zeros((2, 0))))


def test_grad_transpose_reshape():
    def build(t):
        return ad.reshape(ad.transpose(t["x"], (1, 0, 2)), (6, 2))

    assert_grads_match_fd(build, {"x": rand((2, 3, 2), 32)})


def test_grad_broadcast_add_mul():
    def build(t):
        return ad.mul(ad.add(t["x"], t["b"]), t["s"])

    assert_grads_match_fd(
        build, {"x": rand((2, 3, 4), 33), "b": rand((4,), 34), "s": rand((1, 3, 1), 35)}
    )


def test_grad_linear():
    assert_grads_match_fd(
        lambda t: ad.linear(t["x"], t["w"], t["b"]),
        {"x": rand((2, 3, 4), 36), "w": rand((4, 5), 37), "b": rand((5,), 38)},
    )


# ---------------------------------------------------------------------------
# adam
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_leaves_params_unchanged():
    p = {"w": Tensor(rand((3,), 40))}
    g = {"w": Tensor(np.zeros(3))}
    new, state = adam_step(p, g, init_adam_state(p), OptimizerHyper(learning_rate=0.1))
    assert np.array_equal(new["w"].numpy(), p["w"].numpy())
    assert state.step == 1


def test_adam_first_step_magnitude_approaches_lr():
    p = {"w": Tensor(np.zeros(4, dtype=np.float64))}
    g = {"w": Tensor(np.array([0.5, -3.0, 1e-2, 7.0]))}
    new, _ = adam_step(p, g, init_adam_state(p), OptimizerHyper(learning_rate=0.05, eps=1e-12))
    assert np.allclose(np.abs(new["w"].numpy()), 0.05, atol=1e-8)


def test_adam_opposite_gradients_keep_second_moment_positive():
    p = {"w": Tensor(np.zeros(2, dtype=np.float64))}
    g = Tensor(np.array([1.0, -2.0]))
    state = init_adam_state(p)
    hyper = OptimizerHyper(learning_rate=0.01)
    p1, state = adam_step(p, {"w": g}, state, hyper)
    p2, state = adam_step(p1, {"w": Tensor(-g.data)}, state, hyper)
    assert np.all(state.v["w"].numpy() > 0.0)


def test_adam_shape_mismatch():
    p = {"w": Tensor(np.zeros(3))}
    g = {"w": Tensor(np.zeros(4))}
    with pytest.raises(ShapeError):
        adam_step(p, g, init_adam_state(p), OptimizerHyper(learning_rate=0.1))


def test_optimizer_hyper_validation():
    with pytest.raises(ValueError):
        OptimizerHyper(learning_rate=0.1, beta1=1.0)
    with pytest.raises(ValueError):
        OptimizerHyper(learning_rate=-0.1)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"learning_rate": 0.1, "eps": float("nan")},
        {"learning_rate": 0.1, "eps": float("inf")},
    ],
    ids=["lr_nan", "lr_inf", "eps_nan", "eps_inf"],
)
def test_optimizer_hyper_rejects_non_finite(kwargs):
    with pytest.raises(ValueError, match="finite"):
        OptimizerHyper(**kwargs)


# ---------------------------------------------------------------------------
# value semantics
# ---------------------------------------------------------------------------


def test_construction_copies_and_freezes():
    src = np.ones(3)
    t = Tensor(src)
    src[0] = 99.0
    assert t.numpy()[0] == 1.0
    with pytest.raises(ValueError):
        t.data[0] = 5.0


def test_outputs_are_frozen():
    out = ad.mul(Tensor([1.0, 2.0]), 2.0)
    with pytest.raises(ValueError):
        out.data[0] = 0.0


def test_mixed_dtype_rejected():
    with pytest.raises(ShapeError):
        ad.add(Tensor([1.0], dtype=np.float32), Tensor([1.0], dtype=np.float64))


def test_determinism_bit_identical():
    def run():
        x = Tensor(rand((4, 4), 42), dtype=np.float64)
        y = ad.softmax_lastdim(ad.matmul(x, x))
        return ad.gelu(y).numpy()

    assert np.array_equal(run(), run())


# ---------------------------------------------------------------------------
# allocator thresholds
# ---------------------------------------------------------------------------

_REPEATED_FORWARD_FAULTS = """
import dataclasses, resource
import numpy as np
from crossagg.autodiff import Tensor
from crossagg.model import cat_forward, init_params, preset_config
config = dataclasses.replace(preset_config("cat_r_x2"), num_groups=1, blocks_per_group=2)
store = init_params(config, 0)
x = Tensor(np.random.default_rng(0).random((1, 32, 32, 3)), dtype=np.float32)
cat_forward(x, store, config)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
cat_forward(x, store, config)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root() / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)


def test_repeated_forward_reuses_freed_heap_pages():
    # A fresh process, so that no earlier test shapes the heap. With glibc's
    # default thresholds the second pass faults in its op outputs again
    # (about 4k-9k minor faults for this stock-width model).
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        pytest.skip("the C library has no mallopt")
    out = _run_fresh(_REPEATED_FORWARD_FAULTS)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) < 100


# ---------------------------------------------------------------------------
# scipy, for the test oracles only
# ---------------------------------------------------------------------------

_FLOAT32_RESTORE = """
import numpy as np
from crossagg.harness import restore_image
from crossagg.imaging import ImageU8
from crossagg.model import init_params, preset_config
config = preset_config("tiny_sr_x2")
img = ImageU8.from_array(np.random.default_rng(0).integers(0, 256, (16, 16, 3), dtype=np.uint8))
out = restore_image(init_params(config, 0), config, img)
"""

_FLOAT32_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
import crossagg.cli
from crossagg.analysis import model_flops
from crossagg.imaging import psnr, ssim
""" + _FLOAT32_RESTORE + """
assert psnr(out, out) == 100.0 and ssim(out, out) == 1.0
assert model_flops(config, 16, 16).total_flops > 0
"""

_FLOAT64_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
import numpy as np
from crossagg import autodiff as ad
from crossagg.harness import run_overfit
x = ad.Tensor(np.array([-np.inf, -3.0, -1.0, -0.0, 0.5, 2.0, 7.0]), dtype=np.float64)
tape = ad.GradientTape()
tape.watch([x])
with tape:
    loss = ad.mean_all(ad.gelu(x))
grad = ad.backward(tape, loss)[x].data
assert np.isfinite(grad).all() and np.isfinite(loss.item())
assert len(run_overfit(steps=3).losses) == 3
"""


def test_inference_and_training_need_no_scipy():
    # Fresh processes: this one has already imported scipy for the oracles.
    for code in (_FLOAT32_WITHOUT_SCIPY, _FLOAT64_WITHOUT_SCIPY):
        out = _run_fresh(code)
        assert out.returncode == 0, out.stderr


# ---------------------------------------------------------------------------
# Worker threads
# ---------------------------------------------------------------------------


def test_split_runs_a_nested_split_inline_on_a_pool_thread(monkeypatch):
    # A pool thread that waited on its own pool would never finish. Both
    # tasks wait for each other, so the calling thread cannot pull them
    # both: one runs on the pool thread, whose nested split runs inline.
    monkeypatch.setattr(ad, "_cpus", lambda: 2)
    together, calls = threading.Barrier(2, timeout=30), []

    def task(i):
        together.wait()
        nested = []
        ad._split(8, lambda j: nested.append((j, threading.get_ident())))
        calls.append((i, threading.get_ident(), nested))

    caller = threading.Thread(target=ad._split, args=(2, task), daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive() and sorted(call[0] for call in calls) == [0, 1]
    (pooled,) = [call for call in calls if call[1] != caller.ident]
    (called,) = [call for call in calls if call[1] == caller.ident]
    assert pooled[2] == [(j, pooled[1]) for j in range(8)]  # inline on the pool thread, in order
    assert sorted(j for j, _ in called[2]) == list(range(8))


def test_split_runs_each_task_exactly_once(monkeypatch):
    interval = sys.getswitchinterval()
    for workers in (2, 3, 4, 8):
        monkeypatch.setattr(ad, "_cpus", lambda workers=workers: workers)
        calls, lock = [], threading.Lock()

        def task(i):
            with lock:
                calls.append(i)

        sys.setswitchinterval(1e-6)
        try:
            ad._split(37, task)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(calls) == list(range(37)), workers


def test_split_reraises_a_share_error_once_every_share_has_finished(monkeypatch):
    # Tasks 0-2 run at once on the three workers; task 2 raises while 0 and 1
    # are still in flight. The split waits for them, and no worker starts a
    # fourth task.
    monkeypatch.setattr(ad, "_cpus", lambda: 3)
    together, started, finished = threading.Barrier(3, timeout=30), [], []

    def task(i):
        started.append(i)
        together.wait()
        if i == 2:
            raise ValueError("task 2")
        time.sleep(0.3)
        finished.append(i)

    with pytest.raises(ValueError, match="task 2"):
        ad._split(12, task)
    assert sorted(started) == [0, 1, 2] and sorted(finished) == [0, 1]


def test_split_runs_one_share_inline_without_a_pool(monkeypatch):
    monkeypatch.setattr(ad, "_cpus", lambda: 4)
    monkeypatch.setattr(ad, "_POOL", None)
    calls = []
    ad._split(1, lambda i: calls.append((i, threading.get_ident())))
    ad._split(0, lambda i: calls.append((i, threading.get_ident())))
    monkeypatch.setattr(ad, "_cpus", lambda: 1)
    ad._split(3, lambda i: calls.append((i, threading.get_ident())))  # one worker: inline, in order
    here = threading.get_ident()
    assert calls == [(0, here), (0, here), (1, here), (2, here)] and ad._POOL is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_makes_its_own_pool(monkeypatch):
    # The child has none of the parent's pool threads: with the parent's pool
    # kept, its first split would wait forever on work no thread runs.
    monkeypatch.setattr(ad, "_cpus", lambda: 2)
    config = dataclasses.replace(preset_config("cat_r_x2"), num_groups=1, blocks_per_group=1)
    store = init_params(config, 0)
    x = Tensor(rand((1, 16, 16, 3), 120, 1.0, np.float32))
    want = hashlib.sha256(cat_forward(x, store, config).data.tobytes()).digest()
    assert ad._POOL is not None
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child
        try:
            os.close(read)
            os.write(write, hashlib.sha256(cat_forward(x, store, config).data.tobytes()).digest())
        finally:
            os._exit(0)
    os.close(write)
    try:
        ready = select.select([read], [], [], 120)[0]
        got = os.read(read, 64) if ready else b""
    finally:
        if not ready:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        os.close(read)
    assert ready, "the forked child's forward did not finish within 120 s"
    assert got == want


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_bits_do_not_depend_on_the_worker_count(monkeypatch, dtype):
    # With OpenBLAS's AVX-512 kernels a float64 GEMM of this shape rounds the
    # last 4 columns of the last rows of a call otherwise than the same rows
    # mid-call, so bands that followed the worker count would move bits. A
    # band reads 180 and writes 540 elements a pixel: 6 bands in float32, 12
    # in float64.
    x, w, b = rand((2048, 180), 122, 1.0, dtype), rand((180, 540), 123, 1.0, dtype), rand((540,), 124, 1.0, dtype)
    weights, bands = (Tensor(w), Tensor(b)), 12 if dtype == np.float64 else 6
    bounds = [i * 2048 // bands for i in range(bands + 1)]
    outs = []
    for workers in (1, 2, 3, 4):
        monkeypatch.setattr(ad, "_cpus", lambda workers=workers: workers)
        seen = []

        def chain(ops, rows):
            seen.append(rows.shape[0])
            return ops.linear(rows, *weights)

        outs.append(ad._bands((Tensor(x),), weights, 180 + 540, chain).data)
        assert sorted(seen) == sorted(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    assert all(np.array_equal(outs[0], out) for out in outs[1:])
    parts = [x[lo:hi] @ w + b for lo, hi in zip(bounds, bounds[1:])]
    assert np.array_equal(outs[0], np.concatenate(parts))


_OVERFIT_WITHOUT_A_POOL = """
import sys
from crossagg import autodiff as ad
from crossagg.harness import run_overfit
ad._cpus = lambda: 4
assert "concurrent.futures" not in sys.modules
assert len(run_overfit(steps=2).losses) == 2
assert ad._POOL is None and "concurrent.futures" not in sys.modules
"""


def test_overfit_never_starts_the_pool():
    # A fresh process, so that no earlier test has made the pool or loaded
    # concurrent.futures: no op of the tiny model reaches a second task.
    out = _run_fresh(_OVERFIT_WITHOUT_A_POOL)
    assert out.returncode == 0, out.stderr
