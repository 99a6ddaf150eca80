import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from crossagg.attention import (
    POS_HIDDEN,
    AttentionParams,
    PositionBiasParams,
    locality_complement,
    relative_position_bias,
    rwin_self_attention,
)
from crossagg import autodiff as ad
from crossagg.autodiff import GradientTape, OptimizerHyper, Tensor, adam_step, backward, init_adam_state
from crossagg.model import preset_config
from crossagg.reference import full_attention_oracle, position_bias_table
from crossagg.windowing import HORIZONTAL, MASK_VALUE, VERTICAL, WindowSpec, build_shift_mask, resolve_geometry

from helpers import (
    assert_grads_match_fd,
    attention_params_numpy,
    eval_pos_net_numpy,
    rand,
    tiny_attention_params,
)


def _zero_net(heads, hidden=4, dtype=np.float64):
    z = lambda *s: Tensor(np.zeros(s), dtype=dtype)
    return PositionBiasParams(
        w1=z(2, hidden), b1=z(hidden), w2=z(hidden, hidden), b2=z(hidden), w3=z(hidden, heads), b3=z(heads)
    )


def _structured_params(c, heads, qkv, proj, net=None, lcm=None, dtype=np.float64):
    return AttentionParams(
        qkv_weight=Tensor(qkv, dtype=dtype),
        qkv_bias=Tensor(np.zeros(3 * c), dtype=dtype),
        proj_weight=Tensor(proj, dtype=dtype),
        proj_bias=Tensor(np.zeros(c), dtype=dtype),
        lcm_weight=Tensor(lcm, dtype=dtype) if lcm is not None else None,
        lcm_bias=Tensor(np.zeros(c), dtype=dtype) if lcm is not None else None,
        pos_net=net if net is not None else _zero_net(heads, dtype=dtype),
        heads=heads,
    )


# ---------------------------------------------------------------------------
# relative position bias
# ---------------------------------------------------------------------------


def _query_major_bias(g, net):
    """Every head of the bias as [M, n_q, n_k]."""
    return relative_position_bias(g, net, 0, net.heads).numpy().transpose(1, 2, 0)


def test_bias_zero_net_gives_zero_bias():
    g = resolve_geometry(WindowSpec.regular(2, 3), HORIZONTAL, 4, 6)
    bias = _query_major_bias(g, _zero_net(heads=2))
    assert np.array_equal(bias, np.zeros((2, 6, 6)))


def test_bias_diagonal_entries_all_equal():
    g = resolve_geometry(WindowSpec.regular(2, 3), HORIZONTAL, 4, 6)
    params = tiny_attention_params(c=4, heads=2, seed=1)
    bias = _query_major_bias(g, params.pos_net)
    diag = np.diagonal(bias, axis1=1, axis2=2)
    assert np.allclose(diag, diag[:, :1])


def test_bias_1x2_window_uses_signed_offsets():
    g = resolve_geometry(WindowSpec.regular(1, 2), HORIZONTAL, 1, 2)
    params = tiny_attention_params(c=4, heads=2, seed=2)
    bias = _query_major_bias(g, params.pos_net)
    want_01 = eval_pos_net_numpy(params, np.array([[0.0, -1.0]]))[0]
    want_10 = eval_pos_net_numpy(params, np.array([[0.0, 1.0]]))[0]
    assert np.allclose(bias[:, 0, 1], want_01, atol=1e-12)
    assert np.allclose(bias[:, 1, 0], want_10, atol=1e-12)
    assert not np.allclose(bias[:, 0, 1], bias[:, 1, 0])


def test_bias_is_function_of_offset_only():
    g = resolve_geometry(WindowSpec.regular(2, 3), HORIZONTAL, 4, 6)
    params = tiny_attention_params(c=4, heads=2, seed=3)
    bias = _query_major_bias(g, params.pos_net)
    ys, xs = np.meshgrid(np.arange(2), np.arange(3), indexing="ij")
    pos = np.stack([ys.ravel(), xs.ravel()], axis=1)
    n = pos.shape[0]
    seen = {}
    for i in range(n):
        for j in range(n):
            key = tuple(pos[i] - pos[j])
            if key in seen:
                assert np.allclose(bias[:, i, j], seen[key], atol=1e-12)
            seen[key] = bias[:, i, j]


def test_bias_matches_reference_table():
    g = resolve_geometry(WindowSpec.regular(2, 4), HORIZONTAL, 4, 8)
    params = tiny_attention_params(c=4, heads=2, seed=4)
    got = _query_major_bias(g, params.pos_net)
    want = position_bias_table(attention_params_numpy(params), 2, 4)
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("spec", [WindowSpec.regular(2, 4), WindowSpec.axial(2)], ids=["regular", "axial"])
def test_each_orientation_bias_is_its_heads_of_the_reference_keys_major(spec):
    params = tiny_attention_params(c=8, heads=4, seed=5)
    np_params, half = attention_params_numpy(params), 2
    for oi, orientation in enumerate((HORIZONTAL, VERTICAL)):
        g = resolve_geometry(spec, orientation, 6, 8)
        got = relative_position_bias(g, params.pos_net, oi * half, half).numpy()
        want = position_bias_table(np_params, g.sh, g.sw)[oi * half : (oi + 1) * half].transpose(2, 0, 1)
        assert got.shape == (g.window_pixels, half, g.window_pixels), orientation
        assert np.allclose(got, want, atol=1e-12), orientation


def test_bias_build_memory_is_one_orientations_heads():
    # cat_a_x2's sl=4 horizontal windows at 96 px: n = 384, so the keys-major
    # bias of 3 float32 heads is 1.7 MiB, and the build with its [n*n] int64
    # pair index peaks at 5.0 MiB. The bound stays below the 8.4 MiB that a
    # build through all 6 heads' table and a copy of 3 of them takes.
    config = preset_config("cat_a_x2")
    spec = next(s for s in map(config.spec_for_group, range(config.num_groups)) if s.sl == 4)
    g = resolve_geometry(spec, HORIZONTAL, 96, 96, shifted=True)
    rng = np.random.default_rng(6)
    m = config.num_heads
    shapes = [(2, POS_HIDDEN), (POS_HIDDEN,), (POS_HIDDEN, POS_HIDDEN), (POS_HIDDEN,), (POS_HIDDEN, m), (m,)]
    net = PositionBiasParams(*(Tensor(rng.normal(0.0, 0.02, s).astype(np.float32)) for s in shapes))
    tracemalloc.start()
    try:
        bias = relative_position_bias(g, net, 0, m // 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bias.shape == (384, m // 2, 384)
    assert peak < 6.5 * 2**20, peak / 2**20


# ---------------------------------------------------------------------------
# rwin attention semantics
# ---------------------------------------------------------------------------


def test_zero_projections_give_broadcast_output_bias():
    c = 4
    params = tiny_attention_params(c=c, heads=2, seed=5, lcm=False)
    params = AttentionParams(
        qkv_weight=Tensor(np.zeros((c, 3 * c))),
        qkv_bias=Tensor(np.zeros(3 * c)),
        proj_weight=Tensor(np.zeros((c, c))),
        proj_bias=Tensor(np.array([1.0, -2.0, 3.0, 4.0])),
        lcm_weight=None,
        lcm_bias=None,
        pos_net=_zero_net(2),
        heads=2,
    )
    x = Tensor(rand((1, 4, 8, c), 6), dtype=np.float64)
    out = rwin_self_attention(x, params, WindowSpec.regular(2, 4)).numpy()
    assert np.allclose(out, np.broadcast_to([1.0, -2.0, 3.0, 4.0], out.shape))


def test_uniform_attention_averages_each_window():
    c, heads = 4, 2
    qkv = np.zeros((c, 3 * c))
    qkv[:, 2 * c :] = np.eye(c)  # V = X, Q = K = 0
    params = _structured_params(c, heads, qkv, np.eye(c))
    x = rand((1, 4, 8, c), 7)
    out = rwin_self_attention(Tensor(x, dtype=np.float64), params, WindowSpec.regular(2, 4)).numpy()

    expect = np.zeros_like(x)
    for y in range(4):
        for xx in range(8):
            hwin = x[0, (y // 2) * 2 : (y // 2) * 2 + 2, (xx // 4) * 4 : (xx // 4) * 4 + 4, :2]
            vwin = x[0, (y // 4) * 4 : (y // 4) * 4 + 4, (xx // 2) * 2 : (xx // 2) * 2 + 2, 2:]
            expect[0, y, xx, :2] = hwin.mean(axis=(0, 1))
            expect[0, y, xx, 2:] = vwin.mean(axis=(0, 1))
    assert np.allclose(out, expect, atol=1e-12)


@pytest.mark.parametrize(
    "spec,h,w,c",
    [
        (WindowSpec.regular(1, 2), 2, 4, 4),
        (WindowSpec.regular(2, 4), 8, 12, 4),
        (WindowSpec.axial(1), 5, 7, 8),
        (WindowSpec.axial(2), 6, 8, 8),
    ],
)
def test_matches_bruteforce_full_attention(spec, h, w, c):
    params = tiny_attention_params(c=c, heads=2, seed=h * 10 + w)
    x = rand((h, w, c), seed=42 + h)
    got = rwin_self_attention(Tensor(x[None], dtype=np.float64), params, spec).numpy()[0]
    want = full_attention_oracle(x, attention_params_numpy(params), spec, heads=2, lcm=True)
    assert np.max(np.abs(got - want)) <= 1e-9


def test_window_permutation_equivariance():
    # Square windows so both orientations share one grid; bias off, lcm off.
    c, heads, s = 4, 2, 2
    rng = np.random.default_rng(8)
    params = _structured_params(
        c, heads, rng.normal(0, 0.2, (c, 3 * c)), rng.normal(0, 0.2, (c, c))
    )
    x = rand((1, 4, 4, c), 9)

    def permute_windows(a):
        b = a.copy()
        b[0, 0:2, 0:2], b[0, 2:4, 2:4] = a[0, 2:4, 2:4].copy(), a[0, 0:2, 0:2].copy()
        return b

    spec = WindowSpec.regular(s, s)
    base = rwin_self_attention(Tensor(x, dtype=np.float64), params, spec).numpy()
    permuted = rwin_self_attention(Tensor(permute_windows(x), dtype=np.float64), params, spec).numpy()
    assert np.allclose(permuted, permute_windows(base), atol=1e-12)


def test_head_split_law_geometries():
    probe = {}
    params = tiny_attention_params(c=4, heads=2, seed=10)
    x = Tensor(rand((1, 4, 8, 4), 11), dtype=np.float64)
    rwin_self_attention(x, params, WindowSpec.regular(4, 2), probe=probe)
    gh, gv = probe["geometries"][HORIZONTAL], probe["geometries"][VERTICAL]
    assert (gh.sh, gh.sw) == (2, 4) and gh.sh <= gh.sw
    assert (gv.sh, gv.sw) == (4, 2) and gv.sh >= gv.sw


def test_attention_rows_are_convex_weights():
    params = tiny_attention_params(c=4, heads=2, seed=12)
    x = Tensor(rand((2, 4, 8, 4), 13), dtype=np.float64)
    probe = {}
    rwin_self_attention(x, params, WindowSpec.regular(2, 4), shifted=True, probe=probe)
    for orientation in (HORIZONTAL, VERTICAL):
        w = probe["weights"][orientation]
        assert np.all(w >= 0.0)
        assert np.all(np.abs(w.sum(axis=-1) - 1.0) <= 1e-6)


def test_shifted_interior_windows_match_translated_grid():
    c, heads = 4, 2
    h, w = 6, 8
    spec = WindowSpec.regular(2, 4)
    params = tiny_attention_params(c=c, heads=heads, seed=14)
    x = rand((h, w, c), 15, scale=0.5)
    probe = {}
    rwin_self_attention(Tensor(x[None], dtype=np.float64), params, spec, shifted=True, probe=probe)
    np_params = attention_params_numpy(params)
    qkv = x.reshape(-1, c) @ np_params["qkv_w"] + np_params["qkv_b"]
    q_full, k_full = qkv[:, :c], qkv[:, c : 2 * c]
    d = c // heads

    checked = 0
    for oi, orientation in enumerate((HORIZONTAL, VERTICAL)):
        g = probe["geometries"][orientation]
        weights = probe["weights"][orientation]
        bias = position_bias_table(np_params, g.sh, g.sw)
        grid_w = g.padded_w // g.sw
        for wi in range(g.num_windows):
            r0 = (wi // grid_w) * g.sh
            c0 = (wi % grid_w) * g.sw
            rows = (np.arange(r0, r0 + g.sh) - g.shift_down) % h
            cols = (np.arange(c0, c0 + g.sw) + g.shift_left) % w
            if np.any(np.diff(rows) != 1) or np.any(np.diff(cols) != 1):
                continue  # wrapped window
            pixel_idx = (rows[:, None] * w + cols[None, :]).ravel()
            for m_local in range(heads // 2):
                m = oi * heads // 2 + m_local
                qm = q_full[pixel_idx, m * d : (m + 1) * d]
                km = k_full[pixel_idx, m * d : (m + 1) * d]
                logits = qm @ km.T / math.sqrt(d) + bias[m]
                logits -= logits.max(axis=1, keepdims=True)
                direct = np.exp(logits)
                direct /= direct.sum(axis=1, keepdims=True)
                assert np.max(np.abs(weights[wi, m_local] - direct)) <= 1e-5
                checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# locality complement
# ---------------------------------------------------------------------------


def test_lcm_zero_kernel_is_noop():
    c = 4
    base = tiny_attention_params(c=c, heads=2, seed=16)
    zeroed = AttentionParams(
        qkv_weight=base.qkv_weight,
        qkv_bias=base.qkv_bias,
        proj_weight=base.proj_weight,
        proj_bias=base.proj_bias,
        lcm_weight=Tensor(np.zeros((3, 3, c, 1))),
        lcm_bias=Tensor(np.zeros(c)),
        pos_net=base.pos_net,
        heads=2,
    )
    x = Tensor(rand((1, 4, 4, c), 17), dtype=np.float64)
    no_kernel = dataclasses.replace(zeroed, lcm_weight=None, lcm_bias=None)
    with_lcm = rwin_self_attention(x, zeroed, WindowSpec.regular(2, 2)).numpy()
    without = rwin_self_attention(x, no_kernel, WindowSpec.regular(2, 2)).numpy()
    assert np.array_equal(with_lcm, without)


def test_lcm_identity_kernel_adds_value_map():
    c, heads = 4, 2
    rng = np.random.default_rng(18)
    qkv = rng.normal(0, 0.2, (c, 3 * c))
    ident = np.zeros((3, 3, c, 1))
    ident[1, 1, :, 0] = 1.0
    params = _structured_params(c, heads, qkv, np.eye(c), lcm=ident)
    x = rand((1, 4, 4, c), 19)
    no_kernel = dataclasses.replace(params, lcm_weight=None, lcm_bias=None)
    on = rwin_self_attention(Tensor(x, dtype=np.float64), params, WindowSpec.regular(2, 2)).numpy()
    off = rwin_self_attention(Tensor(x, dtype=np.float64), no_kernel, WindowSpec.regular(2, 2)).numpy()
    v = x @ qkv[:, 2 * c :]  # value map, since qkv bias is zero and proj is identity
    assert np.allclose(on - off, v, atol=1e-10)


def test_locality_complement_channel_mismatch():
    params = tiny_attention_params(c=4, heads=2, seed=20)
    with pytest.raises(ValueError):
        locality_complement(Tensor(np.zeros((1, 2, 2, 6))), params)


# ---------------------------------------------------------------------------
# configuration errors, gradients, caching
# ---------------------------------------------------------------------------


def test_odd_head_count_rejected():
    with pytest.raises(ValueError):
        tiny_attention_params(c=3, heads=3)


def test_channel_mismatch_rejected():
    params = tiny_attention_params(c=4, heads=2, seed=21)
    with pytest.raises(ValueError):
        rwin_self_attention(Tensor(np.zeros((1, 4, 4, 6))), params, WindowSpec.regular(2, 2))


def test_gradients_through_shifted_attention():
    c, heads, hidden = 4, 2, 6
    x = rand((1, 4, 4, c), 22, scale=0.5)

    def build(t):
        net = PositionBiasParams(
            w1=t["w1"], b1=t["b1"], w2=t["w2"], b2=t["b2"], w3=t["w3"], b3=t["b3"]
        )
        params = AttentionParams(
            qkv_weight=t["qkv_w"],
            qkv_bias=t["qkv_b"],
            proj_weight=t["proj_w"],
            proj_bias=t["proj_b"],
            lcm_weight=t["lcm_w"],
            lcm_bias=t["lcm_b"],
            pos_net=net,
            heads=heads,
        )
        return rwin_self_attention(t["x"], params, WindowSpec.regular(2, 4), shifted=True)

    assert_grads_match_fd(
        build,
        {
            "x": x,
            "qkv_w": rand((c, 3 * c), 23),
            "qkv_b": rand((3 * c,), 24),
            "proj_w": rand((c, c), 25),
            "proj_b": rand((c,), 26),
            "lcm_w": rand((3, 3, c, 1), 27),
            "lcm_b": rand((c,), 28),
            "w1": rand((2, hidden), 29),
            "b1": rand((hidden,), 30),
            "w2": rand((hidden, hidden), 31),
            "b2": rand((hidden,), 32),
            "w3": rand((hidden, heads), 33),
            "b3": rand((heads,), 34),
        },
    )


def test_cache_is_reused_and_output_stable():
    params = tiny_attention_params(c=4, heads=2, seed=35)
    x = Tensor(rand((1, 4, 8, 4), 36), dtype=np.float64)
    cache = {}
    first = rwin_self_attention(x, params, WindowSpec.regular(2, 4), shifted=True, cache=cache).numpy()
    populated = dict(cache)
    second = rwin_self_attention(x, params, WindowSpec.regular(2, 4), shifted=True, cache=cache).numpy()
    assert np.array_equal(first, second)
    assert cache.keys() == populated.keys()
    assert any(k[0] == "bias" for k in cache)


def test_cached_bias_is_its_orientations_heads_in_their_own_buffer():
    # Each orientation's bias is its own heads, keys-major [n_k, heads/2, n_q],
    # in a buffer of its own, not a view that would keep a larger array alive.
    params = tiny_attention_params(c=8, heads=4, seed=43)
    spec, (h, w), half = WindowSpec.regular(2, 4), (4, 8), 2
    cache = {}
    rwin_self_attention(Tensor(rand((1, h, w, 8), 44)), params, spec, shifted=True, cache=cache)
    for oi, orientation in enumerate((HORIZONTAL, VERTICAL)):
        g = resolve_geometry(spec, orientation, h, w, shifted=True)
        bias = cache[("bias", orientation, g.sh, g.sw, "float64")][1].data
        want = relative_position_bias(g, params.pos_net, oi * half, half).data
        assert bias.shape == want.shape and np.array_equal(bias, want), orientation
        assert bias.base is None, orientation


def test_cache_shared_by_shifted_and_unshifted_calls_matches_fresh_caches():
    params = tiny_attention_params(c=8, heads=4, seed=45)
    spec = WindowSpec.axial(2)
    x = Tensor(rand((1, 6, 8, 8), 46))
    cache = {}
    for shifted in (True, False, True, False):
        out = rwin_self_attention(x, params, spec, shifted=shifted, cache=cache).data
        fresh = rwin_self_attention(x, params, spec, shifted=shifted, cache={}).data
        assert np.array_equal(out, fresh), shifted
    assert sum(k[0] == "bias" for k in cache) == 2  # one per orientation, shared by both shifts


def _pos_net_dict(params: AttentionParams) -> dict:
    return {f.name: getattr(params.pos_net, f.name) for f in dataclasses.fields(params.pos_net)}


def _taped_pos_net_grads(x, params, spec, cache, probe):
    net = _pos_net_dict(params)
    tape = GradientTape()
    tape.watch(net.values())
    with tape:
        out = rwin_self_attention(x, params, spec, shifted=True, cache=cache)
        loss = ad.sum_all(ad.mul(out, probe))
    grads = backward(tape, loss)
    return out.numpy(), {name: grads[t] for name, t in net.items()}


def test_bias_cache_follows_weight_updates_across_adam_step():
    params = tiny_attention_params(c=4, heads=2, seed=37)
    spec = WindowSpec.regular(2, 4)
    x = Tensor(rand((1, 4, 8, 4), 38), dtype=np.float64)
    probe = Tensor(rand((1, 4, 8, 4), 39, scale=1.0), dtype=np.float64)
    cache = {}
    _, grads = _taped_pos_net_grads(x, params, spec, cache, probe)
    net = _pos_net_dict(params)
    new_net, _ = adam_step(net, grads, init_adam_state(net), OptimizerHyper(learning_rate=0.1))
    stepped = dataclasses.replace(params, pos_net=PositionBiasParams(**new_net))

    out, grads = _taped_pos_net_grads(x, stepped, spec, cache, probe)
    fresh_out, fresh_grads = _taped_pos_net_grads(x, stepped, spec, {}, probe)
    assert np.array_equal(out, fresh_out)
    for name, g in fresh_grads.items():
        assert np.any(g.data != 0), name
        assert np.array_equal(grads[name].data, g.data), name


def test_bias_cache_built_without_tape_is_rebuilt_under_tape():
    params = tiny_attention_params(c=4, heads=2, seed=40)
    spec = WindowSpec.regular(2, 4)
    x = Tensor(rand((1, 4, 8, 4), 41), dtype=np.float64)
    probe = Tensor(rand((1, 4, 8, 4), 42, scale=1.0), dtype=np.float64)
    cache = {}
    rwin_self_attention(x, params, spec, shifted=True, cache=cache)
    _, grads = _taped_pos_net_grads(x, params, spec, cache, probe)
    _, fresh_grads = _taped_pos_net_grads(x, params, spec, {}, probe)
    for name, g in fresh_grads.items():
        assert np.any(g.data != 0), name
        assert np.array_equal(grads[name].data, g.data), name


# ---------------------------------------------------------------------------
# window_attention: the fused, chunked primitive
# ---------------------------------------------------------------------------


def _composed_attention(q, k, v, bias, mask, scale):
    """The composed op order window_attention reassociates, in plain numpy."""
    logits = np.matmul(q, np.ascontiguousarray(k.transpose(0, 1, 3, 2))) * scale
    logits = logits + bias
    if mask is not None:
        b, heads, n, _ = logits.shape
        nw = mask.shape[0]
        logits = (logits.reshape(b // nw, nw, heads, n, n) + mask.reshape(1, nw, 1, n, n)).reshape(logits.shape)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return np.matmul(e / e.sum(axis=-1, keepdims=True), v)


# window_attention scales q before its GEMM and divides by the softmax
# normaliser after the PV GEMM, so it matches the composed formula within
# rounding. Relative to max|out|: float64 against the float64 composition,
# float32 against the float64 composition of the same float32 inputs (the
# float32 kernel and the float32 composition both sit below 5e-7 here).
COMPOSED_TOL = {np.float64: 1e-12, np.float32: 2e-6}


def _assert_matches_composed(out, q, k, v, bias, mask, scale):
    want = _composed_attention(*(a.astype(np.float64) for a in (q, k, v, bias)), mask, scale)
    err = np.abs(out - want).max() / np.abs(want).max()
    assert err <= COMPOSED_TOL[out.dtype.type], err


def _window_inputs(b, heads, n, d, seed, dtype):
    q, k, v = (rand((b, heads, n, d), seed + i, scale=1.0, dtype=dtype) for i in range(3))
    return q, k, v, rand((heads, n, n), seed + 3, scale=1.0, dtype=dtype)


def _op_inputs(q, k, v, bias, dtype):
    """Tensors for window_attention: the [heads, n_q, n_k] bias the composed
    formula adds, passed keys-major as [n_k, heads, n_q]."""
    return [Tensor(a, dtype=dtype) for a in (q, k, v, bias.transpose(2, 0, 1))]


def _chunk_windows(monkeypatch, windows, heads, n, dtype):
    """Make window_attention evaluate ``windows`` windows per chunk."""
    monkeypatch.setattr(ad, "WINDOW_CHUNK_BYTES", windows * heads * n * n * np.dtype(dtype).itemsize)


def _shifted_inputs(dtype, seed=60):
    """Inputs over two images of a shifted axial geometry, its region ids,
    and the float mask the composed formula adds."""
    g = resolve_geometry(WindowSpec.axial(4), HORIZONTAL, 24, 16, shifted=True)
    nw, n, heads, d = g.num_windows, g.window_pixels, 2, 4
    regions = build_shift_mask(g)
    mask = np.where(regions[:, :, None] == regions[:, None, :], 0.0, MASK_VALUE)
    return _window_inputs(2 * nw, heads, n, d, seed, dtype), regions, mask, 1.0 / math.sqrt(d)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_window_attention_partial_last_chunk_is_bit_identical(monkeypatch, dtype):
    # The output does not depend on how the windows are chunked: one window
    # per chunk, chunks of 4 with a partial last one, and one chunk of all.
    heads, n, d, per_chunk = 2, 12, 4, 4
    b = 2 * per_chunk + 3  # two full chunks and a partial one
    q, k, v, bias = _window_inputs(b, heads, n, d, 50, dtype)
    t = _op_inputs(q, k, v, bias, dtype)
    outs = []
    for windows in (1, per_chunk, b):
        _chunk_windows(monkeypatch, windows, heads, n, dtype)
        outs.append(ad.window_attention(*t, np.zeros((1, n), np.int8), 0.5).data)  # one region: no mask
    assert outs[0].dtype == dtype
    assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2])
    _assert_matches_composed(outs[1], q, k, v, bias, None, 0.5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_window_attention_shifted_mask_across_batch_boundary(monkeypatch, dtype):
    (q, k, v, bias), regions, mask, scale = _shifted_inputs(dtype)
    nw, n, heads = regions.shape[0], q.shape[2], q.shape[1]
    per_chunk = 4
    assert nw % per_chunk != 0  # a chunk holds the last windows of image 0 and the first of image 1
    _chunk_windows(monkeypatch, per_chunk, heads, n, dtype)
    t = _op_inputs(q, k, v, bias, dtype)
    _assert_matches_composed(ad.window_attention(*t, regions, scale).data, q, k, v, bias, mask, scale)
    out, weights = ad.window_attention(*t, regions, scale, weights=True)
    _assert_matches_composed(out.data, q, k, v, bias, mask, scale)
    assert weights.shape == (2 * nw, heads, n, n)
    assert np.allclose(weights.sum(axis=-1), 1.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_window_attention_taped_untaped_and_weights_outputs_are_equal(monkeypatch, dtype):
    (q, k, v, bias), regions, _, scale = _shifted_inputs(dtype, seed=65)
    _chunk_windows(monkeypatch, 4, q.shape[1], q.shape[2], dtype)
    t = _op_inputs(q, k, v, bias, dtype)
    untaped = ad.window_attention(*t, regions, scale).data
    probed, weights = ad.window_attention(*t, regions, scale, weights=True)
    with GradientTape() as tape:
        tape.watch(*t)
        taped = ad.window_attention(*t, regions, scale)
    assert np.array_equal(untaped, probed.data) and np.array_equal(untaped, taped.data)
    # The probabilities are the ones the output was normalized by: P v = out.
    assert np.allclose(np.matmul(weights, v), untaped, rtol=0, atol=COMPOSED_TOL[dtype] * np.abs(untaped).max())


def test_window_attention_gradients_match_finite_differences(monkeypatch):
    b, heads, n, d = 4, 2, 3, 2
    _chunk_windows(monkeypatch, 1, heads, n, np.float64)
    regions = np.array([[0, 0, 0], [0, 1, 1]])  # window 1 masks pixel 0 from pixels 1 and 2
    q, k, v, bias = _window_inputs(b, heads, n, d, 70, np.float64)
    assert_grads_match_fd(
        lambda t: ad.window_attention(t["q"], t["k"], t["v"], t["bias"], regions, 0.7),
        {"q": q, "k": k, "v": v, "bias": np.ascontiguousarray(bias.transpose(2, 0, 1))},  # keys-major
    )


def test_window_attention_rejects_bad_shapes():
    q, k, v, bias = _op_inputs(*_window_inputs(4, 2, 3, 2, 80, np.float64), np.float64)
    with pytest.raises(ad.ShapeError):
        ad.window_attention(q, k, v, Tensor(np.zeros((2, 3, 4))), np.zeros((1, 3), np.int8), 1.0)
    with pytest.raises(ad.ShapeError):
        ad.window_attention(q, k, v, bias, np.zeros((3, 3), dtype=np.int64), 1.0)


def test_untaped_axial_attention_peaks_below_one_logits_tensor():
    params = tiny_attention_params(c=8, heads=2, seed=90, dtype=np.float32)
    spec = WindowSpec.axial(4)
    x = Tensor(rand((1, 64, 64, 8), 91, scale=1.0), dtype=np.float32)
    cache = {}
    rwin_self_attention(x, params, spec, shifted=True, cache=cache)  # builds the cached bias
    g = resolve_geometry(spec, HORIZONTAL, 64, 64, shifted=True)
    logits_bytes = g.num_windows * (params.heads // 2) * g.window_pixels**2 * 4
    tracemalloc.start()
    try:
        rwin_self_attention(x, params, spec, shifted=True, cache=cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < logits_bytes, (peak, logits_bytes)
