import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossagg import autodiff as ad
from crossagg.autodiff import GradientTape, Tensor, _reflect_index, backward
from crossagg.reference import window_gather, window_merge
from crossagg.windowing import (
    HORIZONTAL,
    VERTICAL,
    WindowSpec,
    build_shift_mask,
    cyclic_shift,
    merge,
    partition,
    resolve_geometry,
    window_maps,
)

from helpers import assert_grads_match_fd, rand


# ---------------------------------------------------------------------------
# geometry resolution
# ---------------------------------------------------------------------------


def test_resolve_regular_horizontal_64():
    g = resolve_geometry(WindowSpec.regular(4, 16), HORIZONTAL, 64, 64)
    assert (g.sh, g.sw) == (4, 16)
    assert (g.shift_down, g.shift_left) == (0, 0)
    assert (g.pad_h, g.pad_w) == (0, 0)


def test_resolve_axial_vertical_shifted():
    g = resolve_geometry(WindowSpec.axial(2), VERTICAL, 32, 32, shifted=True)
    assert (g.sh, g.sw) == (32, 2)
    assert (g.shift_down, g.shift_left) == (0, 1)  # full-span axis not shifted


def test_resolve_padding_to_divisibility():
    g = resolve_geometry(WindowSpec.regular(4, 16), HORIZONTAL, 63, 64)
    assert (g.pad_h, g.pad_w) == (1, 0)
    assert g.padded_h == 64


def test_resolve_swaps_for_vertical():
    g = resolve_geometry(WindowSpec.regular(16, 4), VERTICAL, 64, 64)
    assert (g.sh, g.sw) == (16, 4)
    gh = resolve_geometry(WindowSpec.regular(16, 4), HORIZONTAL, 64, 64)
    assert (gh.sh, gh.sw) == (4, 16)


def test_resolve_caps_window_at_image_extent():
    g = resolve_geometry(WindowSpec.regular(4, 16), HORIZONTAL, 8, 8, shifted=True)
    assert (g.sh, g.sw) == (4, 8)
    assert g.shift_left == 0  # capped side spans the full width
    assert g.shift_down == 2


def test_resolve_axial_degenerate_full_image():
    g = resolve_geometry(WindowSpec.axial(8), HORIZONTAL, 8, 8, shifted=True)
    assert (g.sh, g.sw) == (8, 8)
    assert g.num_windows == 1
    assert not g.shifted
    assert np.array_equal(build_shift_mask(g), np.zeros((1, 64)))


@given(
    st.sampled_from(["regular", "axial"]),
    st.sampled_from([HORIZONTAL, VERTICAL]),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 24),
    st.integers(1, 24),
    st.booleans(),
)
@settings(max_examples=200)
def test_resolve_invariants(kind, orientation, a, b, height, width, shifted):
    spec = WindowSpec.regular(a, b) if kind == "regular" else WindowSpec.axial(a)
    g = resolve_geometry(spec, orientation, height, width, shifted)
    assert g.padded_h % g.sh == 0 and g.padded_w % g.sw == 0
    assert 0 <= g.shift_down < g.sh and 0 <= g.shift_left < g.sw
    assert 0 <= g.pad_h < g.sh and 0 <= g.pad_w < g.sw
    if kind == "axial":
        if orientation == HORIZONTAL:
            assert g.sw == g.padded_w
        else:
            assert g.sh == g.padded_h
    elif height >= max(a, b) and width >= max(a, b):
        if orientation == HORIZONTAL:
            assert g.sh <= g.sw
        else:
            assert g.sh >= g.sw


# ---------------------------------------------------------------------------
# partition / merge
# ---------------------------------------------------------------------------


def _labeled_grid(h, w):
    return Tensor(np.arange(h * w, dtype=np.float64).reshape(1, h, w, 1))


def test_partition_enumeration_2x2():
    g = resolve_geometry(WindowSpec.regular(2, 2), HORIZONTAL, 4, 4)
    win = partition(_labeled_grid(4, 4), g).numpy()[:, :, 0]
    assert np.array_equal(win[0], [0, 1, 4, 5])
    assert np.array_equal(win[1], [2, 3, 6, 7])


def test_partition_enumeration_2x4():
    g = resolve_geometry(WindowSpec.regular(2, 4), HORIZONTAL, 4, 4)
    win = partition(_labeled_grid(4, 4), g).numpy()[:, :, 0]
    assert np.array_equal(win[0], [0, 1, 2, 3, 4, 5, 6, 7])
    assert np.array_equal(win[1], [8, 9, 10, 11, 12, 13, 14, 15])


def test_partition_1x1_is_identity_reshape():
    g = resolve_geometry(WindowSpec.regular(1, 1), HORIZONTAL, 3, 5)
    win = partition(_labeled_grid(3, 5), g).numpy()
    assert win.shape == (15, 1, 1)
    assert np.array_equal(win[:, 0, 0], np.arange(15))


def test_partition_divisibility_error():
    g = resolve_geometry(WindowSpec.regular(2, 2), HORIZONTAL, 4, 4)
    with pytest.raises(ValueError):
        partition(Tensor(np.zeros((1, 5, 4, 1))), g)


def test_merge_inconsistent_extents_error():
    g = resolve_geometry(WindowSpec.regular(2, 2), HORIZONTAL, 4, 4)
    with pytest.raises(ValueError):
        merge(Tensor(np.zeros((3, 4, 1))), g, 1, 4, 4)


@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(1, 3),
)
@settings(max_examples=40)
def test_merge_partition_roundtrip(sh, sw, gh, gw, n, c):
    h, w = sh * gh, sw * gw
    g = resolve_geometry(WindowSpec.regular(sh, sw), HORIZONTAL if sh <= sw else VERTICAL, h, w)
    x = Tensor(np.random.default_rng(h * 31 + w).normal(size=(n, h, w, c)))
    assert np.array_equal(merge(partition(x, g), g, n, h, w).data, x.data)


def test_permuting_windows_before_merge_swaps_blocks():
    g = resolve_geometry(WindowSpec.regular(2, 2), HORIZONTAL, 4, 4)
    x = _labeled_grid(4, 4)
    win = partition(x, g).numpy()
    win[[0, 3]] = win[[3, 0]]
    back = merge(Tensor(win, dtype=np.float64), g, 1, 4, 4).numpy()[0, :, :, 0]
    expect = x.numpy()[0, :, :, 0].copy()
    expect[0:2, 0:2], expect[2:4, 2:4] = (
        x.numpy()[0, 2:4, 2:4, 0].copy(),
        x.numpy()[0, 0:2, 0:2, 0].copy(),
    )
    assert np.array_equal(back, expect)


# ---------------------------------------------------------------------------
# cyclic shift
# ---------------------------------------------------------------------------


def test_cyclic_shift_zero_is_identity():
    x = Tensor(rand((1, 3, 4, 2), 1))
    assert cyclic_shift(x, 0, 0) is x


def test_cyclic_shift_row_example():
    x = Tensor(np.array([0.0, 1.0, 2.0, 3.0]).reshape(1, 1, 4, 1))
    out = cyclic_shift(x, 0, 1).numpy()[0, 0, :, 0]
    assert np.array_equal(out, [1.0, 2.0, 3.0, 0.0])


def test_cyclic_shift_down_sources_row_above():
    x = _labeled_grid(3, 2)
    out = cyclic_shift(x, 1, 0).numpy()[0, :, :, 0]
    assert np.array_equal(out[0], x.numpy()[0, 2, :, 0])
    assert np.array_equal(out[1], x.numpy()[0, 0, :, 0])


@given(st.integers(-6, 6), st.integers(-6, 6))
@settings(max_examples=30)
def test_cyclic_shift_group_law(dy, dx):
    x = Tensor(rand((1, 5, 7, 2), 2))
    out = cyclic_shift(cyclic_shift(x, dy, dx), -dy, -dx)
    assert np.array_equal(out.data, x.data)


# ---------------------------------------------------------------------------
# shift masks
# ---------------------------------------------------------------------------


def test_mask_unshifted_is_zero():
    g = resolve_geometry(WindowSpec.regular(2, 4), HORIZONTAL, 4, 8, shifted=False)
    ids = build_shift_mask(g)
    assert ids.shape == (g.num_windows, g.window_pixels)
    assert np.array_equal(ids, np.zeros_like(ids))


def test_mask_wrapped_row_example():
    # H=1, W=4, windows 1x2, shift left by 1: shifted windows are {x1,x2},
    # {x3,x0}; only the pair in the second window crosses the wrap.
    g = resolve_geometry(WindowSpec.regular(1, 2), HORIZONTAL, 1, 4, shifted=True)
    assert (g.shift_down, g.shift_left) == (0, 1)
    ids = build_shift_mask(g)
    assert ids.shape == (2, 2)
    assert ids[0, 0] == ids[0, 1]
    assert ids[1, 0] != ids[1, 1]


def _spec_strategy():
    return st.one_of(
        st.tuples(st.just("regular"), st.integers(1, 4), st.integers(1, 6)),
        st.tuples(st.just("axial"), st.integers(1, 4), st.just(0)),
    )


@given(_spec_strategy(), st.sampled_from([HORIZONTAL, VERTICAL]), st.integers(2, 12), st.integers(2, 12))
@settings(max_examples=60)
def test_mask_symmetric_with_zero_diagonal(spec_tuple, orientation, h, w):
    kind, a, b = spec_tuple
    spec = WindowSpec.regular(a, b) if kind == "regular" else WindowSpec.axial(a)
    g = resolve_geometry(spec, orientation, h, w, shifted=True)
    # The mask is "ids differ", symmetric with a zero diagonal by construction;
    # what remains to check is the [nw, n] integer layout and the <= 4 regions.
    ids = build_shift_mask(g)
    assert ids.shape == (g.num_windows, g.window_pixels)
    assert np.issubdtype(ids.dtype, np.integer)
    assert np.all((ids >= 0) & (ids < 4))
    if not g.shifted:
        assert np.all(ids == 0)


@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))
@settings(max_examples=60)
def test_mask_zero_iff_same_preshift_region(sh, sw, gh, gw):
    # Independent derivation: track each pixel's original coordinate through
    # the roll, then require equal ids exactly when both pixels lie on the same
    # side of the row wrap (orig row >= H - dy) and the column wrap (orig
    # col < dx).
    h, w = sh * gh, sw * gw
    g = resolve_geometry(WindowSpec.regular(sh, sw), HORIZONTAL if sh <= sw else VERTICAL, h, w, shifted=True)
    ids = build_shift_mask(g)
    orig_rows, orig_cols = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    rows_shifted = np.roll(orig_rows, (g.shift_down, -g.shift_left), axis=(0, 1))
    cols_shifted = np.roll(orig_cols, (g.shift_down, -g.shift_left), axis=(0, 1))

    def windows_of(a):
        return (
            a.reshape(h // g.sh, g.sh, w // g.sw, g.sw).transpose(0, 2, 1, 3).reshape(-1, g.sh * g.sw)
        )

    row_band = windows_of(rows_shifted >= h - g.shift_down)
    col_band = windows_of(cols_shifted < g.shift_left)
    same = (row_band[:, :, None] == row_band[:, None, :]) & (
        col_band[:, :, None] == col_band[:, None, :]
    )
    assert np.array_equal(ids[:, :, None] == ids[:, None, :], same)


# ---------------------------------------------------------------------------
# gather maps: pad, shift and partition as one gather
# ---------------------------------------------------------------------------

# (spec, orientation, height, width, shifted): both pads, one pad, none.
GATHER_CASES = [
    (WindowSpec.regular(2, 4), HORIZONTAL, 7, 10, True),
    (WindowSpec.regular(2, 4), VERTICAL, 7, 10, True),
    (WindowSpec.regular(2, 4), HORIZONTAL, 8, 8, False),
    (WindowSpec.regular(2, 4), VERTICAL, 5, 6, False),
    (WindowSpec.axial(3), HORIZONTAL, 7, 5, True),
    (WindowSpec.axial(3), VERTICAL, 7, 5, True),
    (WindowSpec.axial(2), VERTICAL, 6, 6, False),
]


def _composed_windows(x, g, start, heads, d):
    """What taking windows by ``index`` stands for: narrow, reflect pad,
    cyclic shift, partition and head split."""
    t = ad.narrow(x, -1, start, heads * d)
    if g.pad_h or g.pad_w:
        t = ad.gather(t, _reflect_index(g.height, g.pad_h), axis=1)
        t = ad.gather(t, _reflect_index(g.width, g.pad_w), axis=2)
    if g.shifted:
        t = cyclic_shift(t, g.shift_down, g.shift_left)
    t = partition(t, g)
    return ad.transpose(ad.reshape(t, (t.shape[0], g.window_pixels, heads, d)), (0, 2, 1, 3))


def _composed_merge(y, g, batch):
    """What reading each pixel's own slot stands for: head merge, merge,
    unshift and crop."""
    t = ad.transpose(y, (0, 2, 1, 3))
    t = merge(ad.reshape(t, (t.shape[0], g.window_pixels, -1)), g, batch, g.padded_h, g.padded_w)
    if g.shifted:
        t = cyclic_shift(t, -g.shift_down, -g.shift_left)
    return ad.narrow(ad.narrow(t, 1, 0, g.height), 2, 0, g.width)


@pytest.mark.parametrize("case", GATHER_CASES)
def test_window_maps_inverse_reads_each_pixel_back(case):
    g = resolve_geometry(*case[:4], shifted=case[4])
    index, own, _ = window_maps(g)
    assert index.shape == own.shape == (g.num_windows, g.window_pixels) and own.dtype == bool
    # The own slots are a bijection onto the pixels.
    assert np.array_equal(np.sort(index[own]), np.arange(g.height * g.width))
    # They are the slots whose padded pixel lies in the unpadded corner: a
    # mask of that corner through the composed shift and partition.
    corner = np.zeros((1, g.padded_h, g.padded_w, 1))
    corner[:, : g.height, : g.width] = 1
    t = Tensor(corner)
    if g.shifted:
        t = cyclic_shift(t, g.shift_down, g.shift_left)
    assert np.array_equal(own, partition(t, g).data[..., 0] == 1)
    assert not index.flags.writeable and not own.flags.writeable


# Taking windows and merging them back run inside autodiff.window_attention,
# a chunk at a time; reference.window_gather and window_merge restate them as
# plain numpy on the same maps. The tests below check the restatements
# against the composed ops and the op's multi-orientation layout, gradients
# and checks; test_attention checks the op against the restatements.


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", GATHER_CASES)
def test_take_windows_is_bit_identical_to_composed_ops(case, dtype):
    # Windows taken by ``index`` are the composed narrow, reflect pad, cyclic
    # shift, partition and head split.
    g = resolve_geometry(*case[:4], shifted=case[4])
    index, _, _ = window_maps(g)
    heads, d = 2, 3
    x = rand((2, g.height, g.width, 6 * heads * d), 70, 1.0, dtype)  # batch 2, a fused q/k/v map
    for start in (0, heads * d, 5 * heads * d):
        taken = window_gather(x, index, start, heads, d)
        composed = _composed_windows(Tensor(x), g, start, heads, d).data
        assert taken.dtype == dtype and np.array_equal(taken, composed), start


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", GATHER_CASES)
def test_merge_windows_is_bit_identical_to_composed_ops(case, dtype):
    # Each own slot written at the pixel it reads is the composed head
    # merge, merge, unshift and crop.
    g = resolve_geometry(*case[:4], shifted=case[4])
    index, own, _ = window_maps(g)
    y = rand((2 * g.num_windows, 2, g.window_pixels, 3), 71, 1.0, dtype)
    merged = window_merge(y, index, own, g.height, g.width)
    composed = _composed_merge(Tensor(y), g, 2).data
    assert merged.dtype == dtype and np.array_equal(merged, composed)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("spec", [WindowSpec.regular(2, 4), WindowSpec.axial(3)])
def test_merging_both_orientations_equals_concatenated_merges(spec, dtype):
    # Each orientation's windows land in their own channel range of one map,
    # as the concatenation of two one-orientation calls would place them, and
    # each gets the gradients that call would: the same bits for its Q|K
    # columns, V channels and bias, and the sum of both calls' x gradients.
    height, width, heads, d = 7, 10, 2, 3
    entries = []
    for i, orientation in enumerate((HORIZONTAL, VERTICAL)):
        g = resolve_geometry(spec, orientation, height, width, shifted=True)
        entries.append(window_maps(g) + (rand((g.window_pixels, heads, g.window_pixels), 74 + i, 1.0, dtype),))
    c = heads * d  # one orientation's channels
    x = rand((2, height, width, 2 * c), 76, 1.0, dtype)
    w_qk, b_qk = rand((2 * c, 4 * c), 79, 0.3, dtype), rand((4 * c,), 80, 0.5, dtype)
    v = rand((2, height, width, 2 * c), 77, 1.0, dtype)

    probe = rand((2, height, width, 2 * c), 78, 1.0, dtype)

    def output_and_grads(parts, w, b, v, r):
        tensors = [Tensor(x), Tensor(w), Tensor(b), Tensor(v)] + [Tensor(e[3]) for e in parts]
        tape = GradientTape()
        tape.watch(*tensors)
        with tape:
            out = ad.window_attention(*tensors[:4], [e[:3] + (t,) for e, t in zip(parts, tensors[4:])], 0.5)
            loss = ad.sum_all(ad.mul(out, Tensor(r)))
        grads = backward(tape, loss)
        return out.data, [grads[t].data for t in tensors]

    both, grads = output_and_grads(entries, w_qk, b_qk, v, probe)
    g_x = np.zeros_like(x)
    for o in (0, 1):
        lo, hi = o * c, (o + 1) * c
        cols = np.r_[lo:hi, 2 * c + lo : 2 * c + hi]  # the orientation's Q then K columns
        part = output_and_grads(entries[o : o + 1], w_qk[:, cols], b_qk[cols], v[..., lo:hi], probe[..., lo:hi])
        out, (g_x_o, g_w, g_b, g_v, g_bias) = part
        assert both.dtype == dtype and np.array_equal(both[..., lo:hi], out), o
        assert np.array_equal(grads[1][:, cols], g_w) and np.array_equal(grads[2][cols], g_b), o
        assert np.array_equal(grads[3][..., lo:hi], g_v), o
        assert np.array_equal(grads[4 + o], g_bias), o
        g_x += g_x_o
    assert np.allclose(grads[0], g_x, rtol=0, atol=16 * np.finfo(dtype).eps * np.abs(g_x).max())


def _projection(cin, c):
    """A zero Q|K weight and bias that map ``cin`` channels to 2 * ``c``."""
    return Tensor(np.zeros((cin, 2 * c))), Tensor(np.zeros(2 * c))


def test_window_attention_rejects_mismatched_window_sets():
    g = resolve_geometry(WindowSpec.regular(2, 4), HORIZONTAL, 4, 8)
    index, own, regions = window_maps(g)
    bias = Tensor(rand((g.window_pixels, 1, g.window_pixels), 77))
    x, v = Tensor(rand((1, 4, 8, 3), 78)), Tensor(rand((1, 4, 8, 2), 79))
    qk = _projection(3, 2)
    ad.window_attention(x, *qk, v, [(index, own, regions, bias)], 1.0)  # one head of two channels fits
    with pytest.raises(ValueError):  # no window set
        ad.window_attention(x, *qk, v, [], 1.0)
    with pytest.raises(ValueError):  # an own map of another window set
        other = window_maps(resolve_geometry(WindowSpec.regular(2, 2), HORIZONTAL, 4, 8))[1]
        ad.window_attention(x, *qk, v, [(index, other, regions, bias)], 1.0)
    with pytest.raises(ValueError):  # region ids of another window set
        ad.window_attention(x, *qk, v, [(index, own, regions[:1], bias)], 1.0)


def test_gather_map_gradients_match_finite_differences():
    # Through both orientations of a padded, shifted geometry: the gradients
    # of q, k and v of each own slot and of each reflected copy reach the
    # pixel the slot reads, and through it x and the Q|K weight and bias;
    # each bias gets its own.
    spec = WindowSpec.regular(2, 4)
    geometries = [resolve_geometry(spec, o, 3, 5, shifted=True) for o in (HORIZONTAL, VERTICAL)]
    assert all(g.pad_h or g.pad_w for g in geometries) and all(g.shifted for g in geometries)
    maps = [window_maps(g) for g in geometries]
    arrays = {
        "x": rand((1, 3, 5, 2), 72, 1.0),
        "w": rand((2, 8), 70, 0.7),
        "b": rand((8,), 71, 0.5),
        "v": rand((1, 3, 5, 4), 73, 1.0),
    }
    for i, g in enumerate(geometries):
        arrays[f"b{i}"] = rand((g.window_pixels, 1, g.window_pixels), 74 + i, 1.0)
    assert_grads_match_fd(
        lambda t: ad.window_attention(
            t["x"], t["w"], t["b"], t["v"], [m + (t[f"b{i}"],) for i, m in enumerate(maps)], 0.7
        ),
        arrays,
    )


def test_window_attention_rejects_a_map_outside_the_input():
    # Maps of a 4x4 map read pixels a 2x4 input does not have.
    index, own, regions = window_maps(resolve_geometry(WindowSpec.regular(2, 2), HORIZONTAL, 4, 4))
    windows = [(index, own, regions, Tensor(np.zeros((4, 1, 4))))]
    qk = _projection(2, 2)
    with pytest.raises(ValueError):
        ad.window_attention(Tensor(np.zeros((1, 2, 4, 2))), *qk, Tensor(np.zeros((1, 2, 4, 2))), windows, 1.0)
    ad.window_attention(Tensor(np.zeros((1, 4, 4, 2))), *qk, Tensor(np.zeros((1, 4, 4, 2))), windows, 1.0)
