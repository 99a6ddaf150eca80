import math
import tracemalloc

import numpy as np
import pytest

from crossagg.attention import (
    POS_HIDDEN,
    POS_NAMES,
    locality_complement,
    relative_position_bias,
    rwin_self_attention,
)
from crossagg import autodiff as ad
from crossagg.autodiff import GradientTape, OptimizerHyper, Tensor, adam_step, backward, init_adam_state
from crossagg.model import preset_config
from crossagg.reference import (
    full_attention_oracle,
    position_bias_table,
    window_attention_oracle,
    window_gather,
    window_merge,
)
from crossagg.windowing import HORIZONTAL, VERTICAL, WindowSpec, resolve_geometry, window_maps

from helpers import (
    TINY_BLOCK,
    assert_grads_match_fd,
    eval_pos_net_numpy,
    numpy_weights,
    rand,
    tiny_attention_params,
    without_lcm,
)

ATTN = f"{TINY_BLOCK}.attn"


def _pos_net_shapes(heads, hidden):
    return [(2, hidden), (hidden,), (hidden, hidden), (hidden,), (hidden, heads), (heads,)]


def _zero_net(heads, hidden=4, dtype=np.float64):
    return {name: Tensor(np.zeros(s), dtype=dtype) for name, s in zip(POS_NAMES, _pos_net_shapes(heads, hidden))}


def _structured_params(c, heads, qkv, proj, lcm=None, dtype=np.float64):
    """Block weights with zero biases and a zero position bias."""
    arrays = {f"{ATTN}.qkv.weight": qkv, f"{ATTN}.qkv.bias": np.zeros(3 * c)}
    arrays.update({f"{ATTN}.proj.weight": proj, f"{ATTN}.proj.bias": np.zeros(c)})
    if lcm is not None:
        arrays.update({f"{ATTN}.lcm.weight": lcm, f"{ATTN}.lcm.bias": np.zeros(c)})
    return _zero_net(heads, dtype=dtype) | {name: Tensor(a, dtype=dtype) for name, a in arrays.items()}


# ---------------------------------------------------------------------------
# relative position bias
# ---------------------------------------------------------------------------


def _query_major_bias(g, store):
    """Every head of the bias as [M, n_q, n_k]."""
    heads = store["posbias.fc3.weight"].shape[1]
    return relative_position_bias(g, store, 0, heads).numpy().transpose(1, 2, 0)


def test_bias_zero_net_gives_zero_bias():
    g = resolve_geometry(WindowSpec.regular(2, 3), HORIZONTAL, 4, 6)
    bias = _query_major_bias(g, _zero_net(heads=2))
    assert np.array_equal(bias, np.zeros((2, 6, 6)))


def test_bias_diagonal_entries_all_equal():
    g = resolve_geometry(WindowSpec.regular(2, 3), HORIZONTAL, 4, 6)
    params = tiny_attention_params(c=4, heads=2, seed=1)
    bias = _query_major_bias(g, params)
    diag = np.diagonal(bias, axis1=1, axis2=2)
    assert np.allclose(diag, diag[:, :1])


def test_bias_1x2_window_uses_signed_offsets():
    g = resolve_geometry(WindowSpec.regular(1, 2), HORIZONTAL, 1, 2)
    params = tiny_attention_params(c=4, heads=2, seed=2)
    bias = _query_major_bias(g, params)
    want_01 = eval_pos_net_numpy(params, np.array([[0.0, -1.0]]))[0]
    want_10 = eval_pos_net_numpy(params, np.array([[0.0, 1.0]]))[0]
    assert np.allclose(bias[:, 0, 1], want_01, atol=1e-12)
    assert np.allclose(bias[:, 1, 0], want_10, atol=1e-12)
    assert not np.allclose(bias[:, 0, 1], bias[:, 1, 0])


def test_bias_is_function_of_offset_only():
    g = resolve_geometry(WindowSpec.regular(2, 3), HORIZONTAL, 4, 6)
    params = tiny_attention_params(c=4, heads=2, seed=3)
    bias = _query_major_bias(g, params)
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
    got = _query_major_bias(g, params)
    want = position_bias_table(numpy_weights(params), 2, 4)
    assert np.allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("spec", [WindowSpec.regular(2, 4), WindowSpec.axial(2)], ids=["regular", "axial"])
def test_each_orientation_bias_is_its_heads_of_the_reference_keys_major(spec):
    params = tiny_attention_params(c=8, heads=4, seed=5)
    np_params, half = numpy_weights(params), 2
    for oi, orientation in enumerate((HORIZONTAL, VERTICAL)):
        g = resolve_geometry(spec, orientation, 6, 8)
        got = relative_position_bias(g, params, oi * half, half).numpy()
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
    shapes = _pos_net_shapes(m, POS_HIDDEN)
    net = {name: Tensor(rng.normal(0.0, 0.02, s).astype(np.float32)) for name, s in zip(POS_NAMES, shapes)}
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
    params = _structured_params(c, 2, np.zeros((c, 3 * c)), np.zeros((c, c)))
    params[f"{ATTN}.proj.bias"] = Tensor(np.array([1.0, -2.0, 3.0, 4.0]))
    x = Tensor(rand((1, 4, 8, c), 6), dtype=np.float64)
    out = rwin_self_attention(x, params, TINY_BLOCK, WindowSpec.regular(2, 4)).numpy()
    assert np.allclose(out, np.broadcast_to([1.0, -2.0, 3.0, 4.0], out.shape))


def test_uniform_attention_averages_each_window():
    c, heads = 4, 2
    qkv = np.zeros((c, 3 * c))
    qkv[:, 2 * c :] = np.eye(c)  # V = X, Q = K = 0
    params = _structured_params(c, heads, qkv, np.eye(c))
    x = rand((1, 4, 8, c), 7)
    out = rwin_self_attention(Tensor(x, dtype=np.float64), params, TINY_BLOCK, WindowSpec.regular(2, 4)).numpy()

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
    got = rwin_self_attention(Tensor(x[None], dtype=np.float64), params, TINY_BLOCK, spec).numpy()[0]
    want = full_attention_oracle(x, numpy_weights(params), TINY_BLOCK, spec)
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
    base = rwin_self_attention(Tensor(x, dtype=np.float64), params, TINY_BLOCK, spec).numpy()
    permuted = rwin_self_attention(Tensor(permute_windows(x), dtype=np.float64), params, TINY_BLOCK, spec).numpy()
    assert np.allclose(permuted, permute_windows(base), atol=1e-12)


def test_head_split_law_geometries():
    probe = {}
    params = tiny_attention_params(c=4, heads=2, seed=10)
    x = Tensor(rand((1, 4, 8, 4), 11), dtype=np.float64)
    rwin_self_attention(x, params, TINY_BLOCK, WindowSpec.regular(4, 2), probe=probe)
    gh, gv = probe["geometries"][HORIZONTAL], probe["geometries"][VERTICAL]
    assert (gh.sh, gh.sw) == (2, 4) and gh.sh <= gh.sw
    assert (gv.sh, gv.sw) == (4, 2) and gv.sh >= gv.sw


def test_attention_rows_are_convex_weights():
    params = tiny_attention_params(c=4, heads=2, seed=12)
    x = Tensor(rand((2, 4, 8, 4), 13), dtype=np.float64)
    probe = {}
    rwin_self_attention(x, params, TINY_BLOCK, WindowSpec.regular(2, 4), shifted=True, probe=probe)
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
    rwin_self_attention(Tensor(x[None], dtype=np.float64), params, TINY_BLOCK, spec, shifted=True, probe=probe)
    np_params = numpy_weights(params)
    qkv = x.reshape(-1, c) @ np_params[f"{ATTN}.qkv.weight"] + np_params[f"{ATTN}.qkv.bias"]
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
    zeroed = base | {f"{ATTN}.lcm.weight": Tensor(np.zeros((3, 3, c, 1))), f"{ATTN}.lcm.bias": Tensor(np.zeros(c))}
    x = Tensor(rand((1, 4, 4, c), 17), dtype=np.float64)
    no_kernel = without_lcm(zeroed)
    with_lcm = rwin_self_attention(x, zeroed, TINY_BLOCK, WindowSpec.regular(2, 2)).numpy()
    without = rwin_self_attention(x, no_kernel, TINY_BLOCK, WindowSpec.regular(2, 2)).numpy()
    assert np.array_equal(with_lcm, without)


def test_lcm_identity_kernel_adds_value_map():
    c, heads = 4, 2
    rng = np.random.default_rng(18)
    qkv = rng.normal(0, 0.2, (c, 3 * c))
    ident = np.zeros((3, 3, c, 1))
    ident[1, 1, :, 0] = 1.0
    params = _structured_params(c, heads, qkv, np.eye(c), lcm=ident)
    x = rand((1, 4, 4, c), 19)
    no_kernel = without_lcm(params)
    on = rwin_self_attention(Tensor(x, dtype=np.float64), params, TINY_BLOCK, WindowSpec.regular(2, 2)).numpy()
    off = rwin_self_attention(Tensor(x, dtype=np.float64), no_kernel, TINY_BLOCK, WindowSpec.regular(2, 2)).numpy()
    v = x @ qkv[:, 2 * c :]  # value map, since qkv bias is zero and proj is identity
    assert np.allclose(on - off, v, atol=1e-10)


def test_locality_complement_channel_mismatch():
    params = tiny_attention_params(c=4, heads=2, seed=20)
    with pytest.raises(ValueError):
        locality_complement(Tensor(np.zeros((1, 2, 2, 6))), params, TINY_BLOCK)


# ---------------------------------------------------------------------------
# configuration errors, gradients, caching
# ---------------------------------------------------------------------------


def test_odd_head_count_rejected():
    params = tiny_attention_params(c=3, heads=3)
    with pytest.raises(ValueError, match="head count"):
        rwin_self_attention(Tensor(np.zeros((1, 4, 4, 3))), params, TINY_BLOCK, WindowSpec.regular(2, 2))


def test_head_count_not_dividing_channels_rejected():
    params = tiny_attention_params(c=6, heads=4)
    with pytest.raises(ValueError, match="head count"):
        rwin_self_attention(Tensor(np.zeros((1, 4, 4, 6))), params, TINY_BLOCK, WindowSpec.regular(2, 2))


@pytest.mark.parametrize(
    "name, shape",
    [
        (f"{ATTN}.qkv.weight", (4, 13)),
        (f"{ATTN}.qkv.weight", (5, 12)),
        (f"{ATTN}.qkv.bias", (13,)),
        (f"{ATTN}.proj.weight", (4, 5)),
        (f"{ATTN}.proj.weight", (5, 4)),
        ("posbias.fc1.weight", (3, 8)),  # not 2 offset inputs
        ("posbias.fc2.weight", (8, 7)),  # widths that do not chain
    ],
)
def test_misshaped_weight_rejected(name, shape):
    params = tiny_attention_params(c=4, heads=2, seed=21)
    params[name] = Tensor(np.zeros(shape))
    with pytest.raises(ValueError):
        rwin_self_attention(Tensor(np.zeros((1, 4, 4, 4))), params, TINY_BLOCK, WindowSpec.regular(2, 2))


def test_channel_mismatch_rejected():
    params = tiny_attention_params(c=4, heads=2, seed=21)
    with pytest.raises(ValueError):
        rwin_self_attention(Tensor(np.zeros((1, 4, 4, 6))), params, TINY_BLOCK, WindowSpec.regular(2, 2))


def test_gradients_through_shifted_attention():
    c, heads, hidden = 4, 2, 6
    x = rand((1, 4, 4, c), 22, scale=0.5)

    # The store holds "x" next to the weights; attention reads only its own names.
    assert_grads_match_fd(
        lambda t: rwin_self_attention(t["x"], t, TINY_BLOCK, WindowSpec.regular(2, 4), shifted=True),
        {
            "x": x,
            f"{ATTN}.qkv.weight": rand((c, 3 * c), 23),
            f"{ATTN}.qkv.bias": rand((3 * c,), 24),
            f"{ATTN}.proj.weight": rand((c, c), 25),
            f"{ATTN}.proj.bias": rand((c,), 26),
            f"{ATTN}.lcm.weight": rand((3, 3, c, 1), 27),
            f"{ATTN}.lcm.bias": rand((c,), 28),
            **{name: rand(s, 29 + i) for i, (name, s) in enumerate(zip(POS_NAMES, _pos_net_shapes(heads, hidden)))},
        },
    )


def test_cache_is_reused_and_output_stable():
    params = tiny_attention_params(c=4, heads=2, seed=35)
    x = Tensor(rand((1, 4, 8, 4), 36), dtype=np.float64)
    cache = {}
    first = rwin_self_attention(x, params, TINY_BLOCK, WindowSpec.regular(2, 4), shifted=True, cache=cache).numpy()
    populated = dict(cache)
    second = rwin_self_attention(x, params, TINY_BLOCK, WindowSpec.regular(2, 4), shifted=True, cache=cache).numpy()
    assert np.array_equal(first, second)
    assert cache.keys() == populated.keys()
    assert any(k[0] == "bias" for k in cache)


def test_cached_bias_is_its_orientations_heads_in_their_own_buffer():
    # Each orientation's bias is its own heads, keys-major [n_k, heads/2, n_q],
    # in a buffer of its own, not a view that would keep a larger array alive.
    params = tiny_attention_params(c=8, heads=4, seed=43)
    spec, (h, w), half = WindowSpec.regular(2, 4), (4, 8), 2
    cache = {}
    rwin_self_attention(Tensor(rand((1, h, w, 8), 44)), params, TINY_BLOCK, spec, shifted=True, cache=cache)
    for oi, orientation in enumerate((HORIZONTAL, VERTICAL)):
        g = resolve_geometry(spec, orientation, h, w, shifted=True)
        bias = cache[("bias", orientation, g.sh, g.sw, "float64")][1].data
        want = relative_position_bias(g, params, oi * half, half).data
        assert bias.shape == want.shape and np.array_equal(bias, want), orientation
        assert bias.base is None, orientation


def test_cache_shared_by_shifted_and_unshifted_calls_matches_fresh_caches():
    params = tiny_attention_params(c=8, heads=4, seed=45)
    spec = WindowSpec.axial(2)
    x = Tensor(rand((1, 6, 8, 8), 46))
    cache = {}
    for shifted in (True, False, True, False):
        out = rwin_self_attention(x, params, TINY_BLOCK, spec, shifted=shifted, cache=cache).data
        fresh = rwin_self_attention(x, params, TINY_BLOCK, spec, shifted=shifted, cache={}).data
        assert np.array_equal(out, fresh), shifted
    assert sum(k[0] == "bias" for k in cache) == 2  # one per orientation, shared by both shifts


def _pos_net_dict(params: dict) -> dict:
    return {name: params[name] for name in POS_NAMES}


def _taped_pos_net_grads(x, params, spec, cache, probe):
    net = _pos_net_dict(params)
    tape = GradientTape()
    tape.watch(net.values())
    with tape:
        out = rwin_self_attention(x, params, TINY_BLOCK, spec, shifted=True, cache=cache)
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
    stepped = params | new_net

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
    rwin_self_attention(x, params, TINY_BLOCK, spec, shifted=True, cache=cache)
    _, grads = _taped_pos_net_grads(x, params, spec, cache, probe)
    _, fresh_grads = _taped_pos_net_grads(x, params, spec, {}, probe)
    for name, g in fresh_grads.items():
        assert np.any(g.data != 0), name
        assert np.array_equal(grads[name].data, g.data), name


# ---------------------------------------------------------------------------
# window_attention: the fused, chunked primitive
# ---------------------------------------------------------------------------

# window_attention scales q before its GEMM and divides by the softmax
# normaliser after the PV GEMM, so it matches the float64 oracle within
# rounding, relative to max|out|.
ORACLE_TOL = {np.float64: 1e-12, np.float32: 2e-6}


def _window_case(spec, height, width, seed, dtype, heads=2, d=3, batch=2, shifted=True):
    """The op's arrays, x [N, H, W, C], w_qk [C, 2C], b_qk [2C] and v [N, H,
    W, C] (Q|K then has unit-scale entries), and, per orientation of
    ``spec``, the op's window entry: the gather maps and a random keys-major
    bias as a numpy array."""
    entries = []
    for i, orientation in enumerate((HORIZONTAL, VERTICAL)):
        g = resolve_geometry(spec, orientation, height, width, shifted)
        bias = rand((g.window_pixels, heads, g.window_pixels), seed + 2 + i, 1.0, dtype)
        entries.append(window_maps(g) + (bias,))
    c = 2 * heads * d
    x = rand((batch, height, width, c), seed, 1.0, dtype)
    w_qk = rand((c, 2 * c), seed + 4, 1.0 / math.sqrt(c), dtype)
    b_qk = rand((2 * c,), seed + 5, 0.5, dtype)
    return (x, w_qk, b_qk, rand((batch, height, width, c), seed + 1, 1.0, dtype)), entries


def _attend(arrays, entries, scale, **kwargs):
    """window_attention on numpy inputs, each bias made a tensor."""
    windows = [entry[:3] + (Tensor(entry[3]),) for entry in entries]
    return ad.window_attention(*(Tensor(a) for a in arrays), windows, scale, **kwargs)


def _assert_matches_oracle(out, arrays, entries, scale):
    x, w_qk, b_qk, v = arrays
    want = window_attention_oracle(x @ w_qk + b_qk, v, entries, scale)
    err = np.abs(out - want).max() / np.abs(want).max()
    assert err <= ORACLE_TOL[out.dtype.type], err


def _chunk_windows(monkeypatch, windows, heads, n, dtype, cin, d):
    """Make window_attention evaluate ``windows`` windows of n pixels per
    chunk: their logits and their rows of x (cin channels) and of q | k."""
    per_window = n * (heads * n + cin + 2 * heads * d) * np.dtype(dtype).itemsize
    monkeypatch.setattr(ad, "WINDOW_CHUNK_BYTES", windows * per_window)


# Padded and shifted: 7x10 pads both 2x4 orientations, 7x5 both axial ones.
PADDED_SHIFTED = [(WindowSpec.regular(2, 4), 7, 10), (WindowSpec.axial(3), 7, 5)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_window_attention_partial_last_chunk_is_bit_identical(monkeypatch, dtype):
    # The output does not depend on how the windows are chunked: one window
    # per chunk, chunks of 5 with a partial last one, and one chunk of all.
    for spec, height, width in PADDED_SHIFTED:
        arrays, entries = _window_case(spec, height, width, 50, dtype)
        n = entries[0][0].shape[1]
        assert any((2 * index.shape[0]) % 5 for index, *_ in entries)  # a partial last chunk
        outs = []
        for windows in (1, 5, 10**6):
            _chunk_windows(monkeypatch, windows, 2, n, dtype, 12, 3)
            outs.append(_attend(arrays, entries, 0.5).data)
        assert outs[0].dtype == dtype and outs[0].shape == arrays[3].shape
        assert np.array_equal(outs[0], outs[1]) and np.array_equal(outs[0], outs[2]), spec
        _assert_matches_oracle(outs[1], arrays, entries, 0.5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_window_attention_chunked_projection_stays_within_the_oracle(monkeypatch, dtype):
    # With C = 48 and 2x4 windows, OpenBLAS rounds some rows of a chunk's
    # Q|K GEMM in another kernel than one GEMM over all windows does: the
    # outputs of one window per chunk and of one chunk differ in the last
    # bits, and both stay within the oracle's tolerance.
    arrays, entries = _window_case(WindowSpec.regular(2, 4), 16, 24, 50, dtype, d=12)
    outs = []
    for windows in (1, 10**6):
        _chunk_windows(monkeypatch, windows, 2, 8, dtype, 48, 12)
        outs.append(_attend(arrays, entries, 0.5).data)
        _assert_matches_oracle(outs[-1], arrays, entries, 0.5)
    assert np.abs(outs[0] - outs[1]).max() <= ORACLE_TOL[dtype] * np.abs(outs[1]).max()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_window_attention_shifted_mask_across_batch_boundary(monkeypatch, dtype):
    arrays, entries = _window_case(WindowSpec.axial(4), 24, 16, 60, dtype, d=4)
    nw, n = entries[0][0].shape
    per_chunk = 4
    assert nw % per_chunk != 0  # a chunk holds the last windows of image 0 and the first of image 1
    _chunk_windows(monkeypatch, per_chunk, 2, n, dtype, 16, 4)
    scale = 1.0 / math.sqrt(4)
    _assert_matches_oracle(_attend(arrays, entries, scale).data, arrays, entries, scale)
    out, *weights = _attend(arrays, entries, scale, weights=True)
    _assert_matches_oracle(out.data, arrays, entries, scale)
    assert len(weights) == 2
    for (index, _, regions, _), p in zip(entries, weights):
        assert p.shape == (2 * index.shape[0], 2, index.shape[1], index.shape[1])
        assert np.allclose(p.sum(axis=-1), 1.0)
        differ = np.tile(regions[:, :, None] != regions[:, None, :], (2, 1, 1))[:, None]
        assert differ.any() and np.all(p[np.broadcast_to(differ, p.shape)] == 0.0)


def _taped_attention(arrays, entries, scale):
    """The op's output recorded on a tape, the tape and the input tensors."""
    tensors = [Tensor(a) for a in arrays] + [Tensor(entry[3]) for entry in entries]
    tape = GradientTape()
    tape.watch(*tensors)
    with tape:
        out = ad.window_attention(*tensors[:4], [e[:3] + (t,) for e, t in zip(entries, tensors[4:])], scale)
    return out, tape, tensors


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_window_attention_taped_untaped_and_weights_outputs_are_equal(monkeypatch, dtype):
    arrays, entries = _window_case(WindowSpec.axial(4), 24, 16, 65, dtype, d=4)
    _chunk_windows(monkeypatch, 4, 2, entries[0][0].shape[1], dtype, 16, 4)
    untaped = _attend(arrays, entries, 0.5).data
    probed, *weights = _attend(arrays, entries, 0.5, weights=True)
    taped = _taped_attention(arrays, entries, 0.5)[0]
    assert np.array_equal(untaped, probed.data) and np.array_equal(untaped, taped.data)
    # The probabilities are the ones the output was normalized by: P v = out.
    d, v = 4, arrays[3]
    for o, ((index, own, _, _), p) in enumerate(zip(entries, weights)):
        merged = window_merge(p @ window_gather(v, index, 2 * o * d, 2, d), index, own, 24, 16)
        part = untaped[..., 2 * o * d : 2 * (o + 1) * d]
        assert np.allclose(merged, part, rtol=0, atol=ORACLE_TOL[dtype] * np.abs(untaped).max())


def _held_arrays(obj):
    """Every numpy array reachable from ``obj`` through tuples, lists and
    tensors."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, Tensor):
        return [obj.data]
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in _held_arrays(item)]
    return []


def test_window_attention_tape_keeps_no_qk_map():
    # Under a tape the op keeps x and v, not a [N, H, W, 2C] Q|K map: the
    # backward projects each chunk's Q and K again.
    arrays, entries = _window_case(WindowSpec.axial(4), 24, 16, 66, np.float32, d=4)
    out, tape, tensors = _taped_attention(arrays, entries, 0.5)
    fn = tape._nodes[-1].backward_fn
    held = _held_arrays(list(fn.__defaults__ or ()) + [cell.cell_contents for cell in fn.__closure__ or ()])
    c = out.shape[-1]
    assert not any(a.ndim == 4 and a.shape[-1] == 2 * c for a in held)
    shapes = [(2 * index.shape[0], 2) + 2 * index.shape[1:] for index, *_ in entries]
    probs = [a for a in held if a.shape in shapes]
    assert len(probs) == 2  # each orientation's probabilities
    # Every other float array it keeps is an input: x, w_qk, b_qk, v, the biases.
    others = [a for a in held if a.dtype.kind == "f" and not any(a is p for p in probs)]
    assert all(any(a is t.data for t in tensors) for a in others)


def test_window_attention_gradients_match_finite_differences(monkeypatch):
    # x, the Q|K weight and bias, v and both biases, through both orientations
    # of a geometry padded along both axes, shifted and unshifted, one window
    # per chunk. Unshifted, the corner pixels' gradients sum their own,
    # column, row and corner copies.
    spec = WindowSpec.regular(2, 4)
    _chunk_windows(monkeypatch, 1, 1, 8, np.float64, 3, 2)
    for shifted in (True, False):
        geometries = [resolve_geometry(spec, o, 5, 5, shifted=shifted) for o in (HORIZONTAL, VERTICAL)]
        assert all(g.pad_h and g.pad_w and g.shifted == shifted for g in geometries)
        maps = [window_maps(g) for g in geometries]
        arrays = {
            "x": rand((2, 5, 5, 3), 70, 1.0),
            "w": rand((3, 8), 73, 0.5),
            "b": rand((8,), 74, 0.5),
            "v": rand((2, 5, 5, 4), 71, 1.0),
        }
        for i, g in enumerate(geometries):
            arrays[f"b{i}"] = rand((g.window_pixels, 1, g.window_pixels), 75 + i, 1.0)
        assert_grads_match_fd(
            lambda t, maps=maps: ad.window_attention(
                t["x"], t["w"], t["b"], t["v"], [m + (t[f"b{i}"],) for i, m in enumerate(maps)], 0.7
            ),
            arrays,
        )


def test_window_attention_rejects_bad_shapes():
    arrays, entries = _window_case(WindowSpec.regular(2, 4), 4, 8, 80, np.float64)
    x, w_qk, b_qk, v = arrays
    index, own, regions, bias = entries[0]
    with pytest.raises(ad.ShapeError):  # w_qk does not map to twice v's channels
        _attend((x, w_qk[:, 1:], b_qk[1:], v), entries, 1.0)
    with pytest.raises(ad.ShapeError):  # w_qk does not read x's channels
        _attend((x[..., 1:], w_qk, b_qk, v), entries, 1.0)
    with pytest.raises(ad.ShapeError):  # x and v of different images
        _attend((x[:, 1:], w_qk, b_qk, v), entries, 1.0)
    with pytest.raises(ad.ShapeError):  # a bias that is not [n_k, heads, n_q]
        _attend(arrays, [(index, own, regions, bias[:, :, :-1]), entries[1]], 1.0)
    with pytest.raises(ad.ShapeError):  # regions of another window layout
        _attend(arrays, [(index, own, regions[:, :-1], bias), entries[1]], 1.0)
    with pytest.raises(ad.ShapeError):  # an own map that marks one slot too few
        short = own.copy()
        short.flat[0] = False
        _attend(arrays, [(index, short, regions, bias), entries[1]], 1.0)
    with pytest.raises(ad.ShapeError):  # own slots that read one pixel twice and another never
        twice = index.copy()
        twice.flat[0] = twice.flat[1]
        _attend(arrays, [(twice, own, regions, bias), entries[1]], 1.0)
    with pytest.raises(ad.ShapeError):  # 2 + 3 heads do not split 12 channels
        three = np.concatenate([entries[1][3], entries[1][3][:, :1]], axis=1)
        _attend(arrays, [entries[0], entries[1][:3] + (three,)], 1.0)


def test_untaped_axial_attention_peaks_below_one_logits_tensor():
    heads = 2
    params = tiny_attention_params(c=8, heads=heads, seed=90, dtype=np.float32)
    spec = WindowSpec.axial(4)
    x = Tensor(rand((1, 64, 64, 8), 91, scale=1.0), dtype=np.float32)
    cache = {}
    rwin_self_attention(x, params, TINY_BLOCK, spec, shifted=True, cache=cache)  # builds the cached bias
    g = resolve_geometry(spec, HORIZONTAL, 64, 64, shifted=True)
    logits_bytes = g.num_windows * (heads // 2) * g.window_pixels**2 * 4
    tracemalloc.start()
    try:
        rwin_self_attention(x, params, TINY_BLOCK, spec, shifted=True, cache=cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < logits_bytes, (peak, logits_bytes)
