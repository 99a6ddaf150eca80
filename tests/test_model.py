import dataclasses
import json
import struct
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from crossagg import autodiff as ad
from crossagg.autodiff import Tensor
from crossagg.model import (
    ConfigError,
    ModelConfig,
    PRESET_NAMES,
    WeightFormatError,
    _mlp,
    cat_forward,
    catb_forward,
    count_params,
    init_params,
    load_weights,
    parameter_schema,
    parse_config,
    parse_config_text,
    preset_config,
    residual_group_forward,
    save_weights,
)
from crossagg.harness import overfit_target
from crossagg.imaging import bicubic_resize
from crossagg.windowing import HORIZONTAL, VERTICAL, resolve_geometry

from helpers import forward_drift, rand, repo_root


def _tiny_config(**overrides):
    base = dict(
        task="sr",
        scale=2,
        in_channels=3,
        out_channels=3,
        channels=8,
        num_groups=1,
        blocks_per_group=2,
        num_heads=2,
        mlp_ratio=2.0,
        window_kind="regular",
        window_height=2,
        window_width=4,
        use_lcm=True,
        head_width=8,
    )
    base.update(overrides)
    return ModelConfig(**base)


def _zero_store(config, dtype=np.float32):
    return {name: Tensor(np.zeros(shape, dtype=dtype)) for name, shape, _ in parameter_schema(config)}


# ---------------------------------------------------------------------------
# block
# ---------------------------------------------------------------------------


def test_catb_zero_weights_is_identity():
    config = _tiny_config()
    store = _zero_store(config, dtype=np.float64)
    x = Tensor(rand((1, 4, 8, 8), 0), dtype=np.float64)
    out = catb_forward(x, store, "body.group0.block0", config.spec_for_group(0), shifted=False)
    assert np.array_equal(out.data, x.data)


def test_catb_preserves_shape():
    config = _tiny_config()
    store = init_params(config, seed=0, dtype=np.float64)
    for shape in [(1, 4, 8, 8), (2, 6, 6, 8), (1, 3, 5, 8)]:
        x = Tensor(rand(shape, 1), dtype=np.float64)
        out = catb_forward(x, store, "body.group0.block0", config.spec_for_group(0), shifted=True)
        assert out.shape == shape


# ---------------------------------------------------------------------------
# residual groups
# ---------------------------------------------------------------------------


def test_residual_group_zero_weights_is_identity():
    config = _tiny_config()
    store = _zero_store(config, dtype=np.float64)
    x = Tensor(rand((1, 4, 8, 8), 2), dtype=np.float64)
    out = residual_group_forward(x, store, config, group=0)
    assert np.array_equal(out.data, x.data)


def test_geometry_schedule_even_blocks_unshifted():
    config = _tiny_config(blocks_per_group=4)
    for j in range(config.blocks_per_group):
        shifted = j % 2 == 1
        for orientation in (HORIZONTAL, VERTICAL):
            g = resolve_geometry(config.spec_for_group(0), orientation, 16, 16, shifted)
            if not shifted:
                assert (g.shift_down, g.shift_left) == (0, 0)
            else:
                assert g.shift_down >= 1 and g.shift_left >= 1  # both window sides >= 2


def test_single_block_group_composes_one_unshifted_block():
    config = _tiny_config(blocks_per_group=1)
    store = init_params(config, seed=3, dtype=np.float64)
    x = Tensor(rand((1, 4, 8, 8), 30), dtype=np.float64)
    got = residual_group_forward(x, store, config, group=0)
    import crossagg.autodiff as ad

    manual = catb_forward(x, store, "body.group0.block0", config.spec_for_group(0), shifted=False)
    manual = ad.conv2d_3x3(manual, store["body.group0.conv.weight"], store["body.group0.conv.bias"])
    manual = ad.add(manual, x)
    assert np.array_equal(got.data, manual.data)


def test_axial_group_resolves_paired_orientations():
    config = _tiny_config(window_kind="axial", axial_lengths=(2,), window_height=0, window_width=0)
    spec = config.spec_for_group(0)
    gh = resolve_geometry(spec, HORIZONTAL, 16, 16)
    gv = resolve_geometry(spec, VERTICAL, 16, 16)
    assert (gh.sh, gh.sw) == (2, 16)
    assert (gv.sh, gv.sw) == (16, 2)


def _shifted_axial_block_peak(monkeypatch, workers):
    """The numpy heap peak of one untaped stock-width block (C=180, axial
    sl=4, shifted) at 64x64 on ``workers`` op worker threads."""
    monkeypatch.setattr(ad, "_cpus", lambda: workers)
    config = dataclasses.replace(preset_config("cat_a_x2"), num_groups=1, blocks_per_group=2, axial_lengths=(4,))
    store, spec = init_params(config, 0), config.spec_for_group(0)
    x = Tensor(rand((1, 64, 64, 180), 80, 1.0, np.float32))
    catb_forward(x, store, "body.group0.block1", spec, shifted=True)
    tracemalloc.start()
    try:
        catb_forward(x, store, "body.group0.block1", spec, shifted=True)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_untaped_shifted_axial_block_peak_memory(monkeypatch):
    # On one worker the block peaks at 12.3 MiB of numpy heap, inside window
    # attention: the LN1 output, V and the merged attention output, plus one
    # chunk's scratch. No Q|K map and no zero-padded copy of V exist, and no
    # map exists at full size in the window layout or at the MLP's hidden
    # width.
    peak = _shifted_axial_block_peak(monkeypatch, 1)
    assert peak < 13.4 * 2**20, peak / 2**20


def test_untaped_shifted_axial_block_peak_memory_on_two_workers(monkeypatch):
    # Attention keeps its chunk size, so a second worker holds a second
    # chunk's scratch (13.9 MiB); the other ops split their budget among the
    # workers.
    peak = _shifted_axial_block_peak(monkeypatch, 2)
    assert peak < 13.4 * 2**20 + ad.WINDOW_CHUNK_BYTES, peak / 2**20


def _untaped_mlp_peak_above_output(monkeypatch, workers):
    """The numpy heap peak of one untaped stock-width MLP (C=180, hidden
    720) at 96x96 on ``workers`` op worker threads, above its output."""
    monkeypatch.setattr(ad, "_cpus", lambda: workers)
    h = Tensor(rand((1, 96, 96, 180), 83, 1.0, np.float32))
    shapes = [(180,), (180,), (180, 720), (720,), (720, 180), (180,)]
    weights = [Tensor(rand(s, 84 + i, 0.05, np.float32)) for i, s in enumerate(shapes)]
    tracemalloc.start()
    try:
        out = _mlp(h, *weights)
        return tracemalloc.get_traced_memory()[1] - out.data.nbytes
    finally:
        tracemalloc.stop()


def test_untaped_mlp_peaks_at_its_output_and_one_band(monkeypatch):
    # A band holds its [rows, 4C] fc1 output, its GELU output and GELU's
    # scratch, each within WINDOW_CHUNK_BYTES; LN2 and the residual sum exist
    # a band at a time, and nothing exists at full size at the hidden width.
    peak = _untaped_mlp_peak_above_output(monkeypatch, 1)
    assert peak < 3 * ad.WINDOW_CHUNK_BYTES + (256 << 10), peak / 2**20


def test_untaped_mlp_on_two_workers_holds_one_band_per_worker(monkeypatch):
    peak = _untaped_mlp_peak_above_output(monkeypatch, 2)
    assert peak < 2 * (3 * ad.WINDOW_CHUNK_BYTES + (256 << 10)), peak / 2**20


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_banded_mlp_is_bit_identical_to_one_band(monkeypatch, dtype):
    # 99 pixels in bands of 12-13 rows (a hidden row is 32 elements, and V
    # and the output projection read and write 16 each); bands of 14 would
    # have left a 1-row band, whose GEMM may round differently. One worker,
    # so that every band runs through the counted linear; two workers then
    # give the same bits.
    monkeypatch.setattr(ad, "_cpus", lambda: 1)
    config = _tiny_config(channels=16, mlp_ratio=2.0)
    store = init_params(config, 0, dtype=dtype)
    x = Tensor(rand((1, 9, 11, 16), 82, 1.0, dtype))
    prefix = "body.group0.block0"
    one_band = catb_forward(x, store, prefix, config.spec_for_group(0), shifted=False).data
    calls, linear = [], ad.linear

    def counted(x, weight, *args, **kwargs):
        calls.append((weight.shape, x.shape))
        return linear(x, weight, *args, **kwargs)

    def rows(weight_shape):  # the input shape of each linear call on weights of this shape
        return [x for w, x in calls if w == weight_shape]

    monkeypatch.setattr(ad, "linear", counted)
    monkeypatch.setattr(ad, "WINDOW_CHUNK_BYTES", 13 * 32 * np.dtype(dtype).itemsize)
    banded = catb_forward(x, store, prefix, config.spec_for_group(0), shifted=False).data
    mlp_rows = [shape[0] for shape in rows((16, 32))]  # fc1 inputs
    assert len(mlp_rows) == 8 and sum(mlp_rows) == 99 and min(mlp_rows) == 12, mlp_rows
    assert sorted(shape[0] for shape in rows((16, 16))) == sorted(2 * mlp_rows)  # V and proj, in the same bands
    assert banded.dtype == dtype and np.array_equal(banded, one_band)
    calls.clear()
    with ad.GradientTape() as tape:
        tape.watch(store.values())
        taped = catb_forward(x, store, prefix, config.spec_for_group(0), shifted=False).data
    assert rows((16, 32)) == [(1, 9, 11, 16)] and rows((16, 16)) == 2 * [(1, 9, 11, 16)]
    assert np.array_equal(taped, one_band)
    monkeypatch.setattr(ad, "linear", linear)
    monkeypatch.setattr(ad, "_cpus", lambda: 2)
    assert np.array_equal(catb_forward(x, store, prefix, config.spec_for_group(0), shifted=False).data, one_band)


def _forward_and_gradients(config, store, x):
    """The untaped and taped outputs of ``cat_forward`` and the gradients of
    sum(output * R), R fixed, for every weight, in name order."""
    untaped = cat_forward(x, store, config).data
    tape = ad.GradientTape()
    tape.watch(store.values())
    with tape:
        out = cat_forward(x, store, config)
        probe = Tensor(np.random.default_rng(7).normal(size=out.shape), dtype=out.dtype)
        loss = ad.sum_all(ad.mul(out, probe))
    grads = ad.backward(tape, loss)
    return [untaped, out.data] + [grads[store[name]].data for name in sorted(store)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_block_tail_matches_the_composed_ops(monkeypatch, dtype):
    # The block tail, x + proj(y + lcm) and x + fc2(gelu(fc1(ln2(x)))), in 5
    # bands a pass (99 pixels, 19-20 rows a band; V, proj and the MLP each
    # hold 32 elements a pixel) against the same ops on whole maps, the
    # residual added by its own ``add``: outputs and gradients, untaped and
    # taped, at 1, 2, 3, 4 and 8 workers.
    config = _tiny_config(channels=16, mlp_ratio=2.0)
    store = init_params(config, 0, dtype=dtype)
    x = Tensor(rand((1, 9, 11, 3), 126, 1.0, dtype))
    monkeypatch.setattr(ad, "WINDOW_CHUNK_BYTES", 20 * 32 * np.dtype(dtype).itemsize)
    runner, bands = ad._bands, []

    def whole(inputs, weights, width, chain, residual=None):
        ops = SimpleNamespace(linear=ad.linear, gelu=ad.gelu, add=ad.add, layer_norm=ad.layer_norm)
        out = chain(ops, *inputs)
        return out if residual is None else ad.add(out, residual)

    def counted(inputs, weights, width, chain, residual=None):
        def band(ops, *rows):
            bands.append(rows[0].size // rows[0].shape[-1])
            return chain(ops, *rows)

        return runner(inputs, weights, width, band, residual)

    monkeypatch.setattr(ad, "_cpus", lambda: 1)
    monkeypatch.setattr(ad, "_bands", whole)
    want = _forward_and_gradients(config, store, x)
    monkeypatch.setattr(ad, "_bands", counted)
    interval = sys.getswitchinterval()
    for workers in (1, 2, 3, 4, 8):
        monkeypatch.setattr(ad, "_cpus", lambda workers=workers: workers)
        sys.setswitchinterval(1e-6 if workers == 8 else interval)
        try:
            bands[:] = []
            got = _forward_and_gradients(config, store, x)
        finally:
            sys.setswitchinterval(interval)
        # Untaped: V, proj and the MLP of two blocks in 5 bands each; taped: one call each.
        assert sorted(bands) == sorted(6 * [19, 20, 20, 20, 20] + 6 * [99]), (workers, bands)
        assert all(np.array_equal(a, b) for a, b in zip(want, got)), workers


def test_band_pass_with_a_residual_holds_no_full_size_map_besides_its_output(monkeypatch):
    # Attention's tail at stock width, x + proj(y + lcm) at 96 px: the sum
    # y + lcm and the projection exist a band at a time (2C elements a
    # pixel within WINDOW_CHUNK_BYTES), one band per worker, and the residual
    # is added into the output's rows.
    y, lcm, x = (Tensor(rand((1, 96, 96, 180), seed, 1.0, np.float32)) for seed in (127, 128, 129))
    w, b = Tensor(rand((180, 180), 130, 0.05, np.float32)), Tensor(rand((180,), 131, 0.05, np.float32))

    def chain(ops, y, lcm):
        return ops.linear(ops.add(y, lcm), w, b)

    want = (y.data + lcm.data) @ w.data + b.data + x.data
    for workers in (1, 2):
        monkeypatch.setattr(ad, "_cpus", lambda workers=workers: workers)
        tracemalloc.start()
        try:
            out = ad._bands((y, lcm), (w, b), 360, chain, x)
            peak = tracemalloc.get_traced_memory()[1] - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert peak < workers * ad.WINDOW_CHUNK_BYTES + (64 << 10), (workers, peak / 2**20)
        np.testing.assert_allclose(out.data, want, rtol=1e-5, atol=1e-4)


@pytest.mark.parametrize("case", ["stock", "c48", "c48_float64"])
def test_outputs_and_gradients_do_not_depend_on_the_worker_count(monkeypatch, case):
    # Stock width at 32 px: several conv bands, per-pixel GEMM bands and
    # attention chunks per op. C = 48 with 8-pixel windows, where the
    # attention chunk size moves bits, under a smaller budget: many chunks
    # and bands, in float32 and in float64, whose OpenBLAS GEMMs round tail
    # rows otherwise. Every boundary that can set a bit depends on the
    # shapes alone; the worker count only assigns the pieces to threads.
    # Eight workers, more than the cores, under a short switch interval,
    # would also show a share that is lost or writes outside its rows.
    dtype = np.float64 if case.endswith("float64") else np.float32
    if case == "stock":
        config, side = dataclasses.replace(preset_config("cat_r_x2"), num_groups=1, blocks_per_group=2), 32
    else:
        config, side = _tiny_config(channels=48, num_heads=4, head_width=16), 48
        monkeypatch.setattr(ad, "WINDOW_CHUNK_BYTES", 1 << 16)
    store = init_params(config, 0, dtype=dtype)
    x = Tensor(rand((1, side, side, 3), 121, 1.0, dtype))
    runs, interval = [], sys.getswitchinterval()
    for workers in (1, 2, 3, 8):
        monkeypatch.setattr(ad, "_cpus", lambda workers=workers: workers)
        sys.setswitchinterval(1e-6 if workers == 8 else interval)
        try:
            runs.append(_forward_and_gradients(config, store, x))
        finally:
            sys.setswitchinterval(interval)
    for arrays in runs[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(runs[0], arrays))


def test_no_split_is_entered_while_a_share_runs(monkeypatch):
    # The calling thread is not marked while it runs a piece, so a split
    # nested in it would queue its pieces behind the pool's outer ones. No op
    # splits inside a piece: the per-pixel GEMMs split only through the band
    # runner, whose bands call ops that do not split, LN2 among them (at 8
    # workers a full-map layer norm of an MLP band would split in two).
    config = dataclasses.replace(preset_config("cat_r_x2"), num_groups=1, blocks_per_group=2)
    store = init_params(config, 0)
    x = Tensor(rand((1, 32, 32, 3), 125, 1.0, np.float32))
    split, runner, layer_norm, lock = ad._split, ad._bands, ad.layer_norm, threading.Lock()
    running, entered, bands, norms = [0], [], [], []

    def watched_split(tasks, fn):
        with lock:
            entered.append(running[0])

        def share(i):
            with lock:
                running[0] += 1
            try:
                fn(i)
            finally:
                with lock:
                    running[0] -= 1

        split(tasks, share)

    def counted_bands(inputs, weights, width, chain, residual=None):
        calls = []

        def counted(ops, *rows):
            calls.append(rows[0].shape[0])
            return chain(ops, *rows)

        out = runner(inputs, weights, width, counted, residual)
        bands.append(len(calls))
        return out

    def counted_norm(*args, **kwargs):
        norms.append(threading.get_ident())
        return layer_norm(*args, **kwargs)

    monkeypatch.setattr(ad, "_split", watched_split)
    monkeypatch.setattr(ad, "_bands", counted_bands)
    monkeypatch.setattr(ad, "layer_norm", counted_norm)
    for workers in (2, 4, 8):
        monkeypatch.setattr(ad, "_cpus", lambda workers=workers: workers)
        entered[:], bands[:], norms[:] = [], [], []
        cat_forward(x, store, config)
        untaped, bands[:] = bands[:], []
        assert len(norms) == 2, workers  # LN1 of each block; LN2 runs inside the MLP's bands
        norms[:] = []
        with ad.GradientTape() as tape:
            tape.watch(store.values())
            cat_forward(x, store, config)
        assert entered and not any(entered), workers
        assert len(untaped) == 6 and min(untaped) > 1, untaped  # V, proj and the MLP of two blocks
        assert bands == 6 * [1] and len(norms) == 4, workers  # taped: one call each, LN2 the full-map op


@pytest.mark.skipif(
    sys.version_info < (3, 11), reason="CPython before 3.11 keeps call arguments alive until the call returns"
)
def test_untaped_group_frees_each_block_input_after_its_attention():
    # Blocks after the first get their input handed over, so during their MLP
    # only the group residual and the attention sum are held: the group peaks
    # at the peak of one block run alone with its input held by the caller, as
    # block 0's is, and not one [P, C] map above it.
    config = _tiny_config(channels=16, blocks_per_group=3, mlp_ratio=4.0)
    store, spec = init_params(config, 0), config.spec_for_group(0)
    x = Tensor(rand((1, 64, 64, 16), 81, 1.0, np.float32))

    def peak(run):
        run()
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    block = max(
        peak(lambda: catb_forward(x, store, f"body.group0.block{j}", spec, shifted=(j % 2 == 1)))
        for j in range(2)
    )
    group = peak(lambda: residual_group_forward(x, store, config, 0))
    assert group < block + x.data.nbytes // 2, (group, block, x.data.nbytes)


# ---------------------------------------------------------------------------
# full model
# ---------------------------------------------------------------------------


def test_sr_x4_output_shape():
    config = _tiny_config(scale=4)
    store = init_params(config, seed=1)
    x = Tensor(rand((1, 64, 64, 3), 3, dtype=np.float32), dtype=np.float32)
    out = cat_forward(x, store, config)
    assert out.shape == (1, 256, 256, 3)


def test_sr_x3_output_shape():
    config = _tiny_config(scale=3)
    store = init_params(config, seed=1)
    x = Tensor(rand((1, 8, 12, 3), 4, dtype=np.float32), dtype=np.float32)
    assert cat_forward(x, store, config).shape == (1, 24, 36, 3)


def test_car_zero_weights_is_global_identity():
    config = _tiny_config(task="car", scale=1, in_channels=1, out_channels=1, head_width=64)
    store = _zero_store(config)
    x = Tensor(np.random.default_rng(5).uniform(0, 1, (1, 8, 8, 1)).astype(np.float32))
    out = cat_forward(x, store, config)
    assert np.array_equal(out.data, x.data)


def test_sr_zero_weights_is_zero_output():
    config = _tiny_config()
    store = _zero_store(config)
    x = Tensor(np.random.default_rng(6).uniform(0, 1, (1, 4, 4, 3)).astype(np.float32))
    out = cat_forward(x, store, config)
    assert np.array_equal(out.data, np.zeros_like(out.data))


def test_batch_consistency():
    config = _tiny_config()
    store = init_params(config, seed=2, dtype=np.float64)
    a = rand((1, 4, 8, 3), 7)
    b = rand((1, 4, 8, 3), 8)
    both = cat_forward(Tensor(np.concatenate([a, b]), dtype=np.float64), store, config).numpy()
    one = cat_forward(Tensor(a, dtype=np.float64), store, config).numpy()
    two = cat_forward(Tensor(b, dtype=np.float64), store, config).numpy()
    assert np.max(np.abs(both - np.concatenate([one, two]))) <= 1e-6


def test_cat_forward_channel_mismatch():
    config = _tiny_config()
    store = init_params(config, seed=0)
    with pytest.raises(ConfigError):
        cat_forward(Tensor(np.zeros((1, 4, 4, 1), dtype=np.float32)), store, config)


def test_cat_forward_rejects_a_mis_shaped_weight_before_running():
    # A [hidden, 1] fc2 would broadcast through the MLP's residual add.
    config = preset_config("tiny_sr_x2")
    store = init_params(config, seed=0)
    name = "body.group0.block0.mlp.fc2"
    store[f"{name}.weight"] = Tensor(np.zeros((config.mlp_hidden, 1), dtype=np.float32))
    store[f"{name}.bias"] = Tensor(np.zeros(1, dtype=np.float32))
    with pytest.raises(WeightFormatError, match=rf"'{name}.weight' has shape \({config.mlp_hidden}, 1\), the config needs \({config.mlp_hidden}, {config.channels}\)"):
        cat_forward(Tensor(np.zeros((1, 8, 8, 3), dtype=np.float32)), store, config)


def test_cat_forward_rejects_mixed_dtype_weights_before_running(monkeypatch):
    # load_weights keeps each entry's own dtype; one float64 entry among
    # float32 ones is named before the first op runs.
    config = preset_config("tiny_sr_x2")
    store = init_params(config, seed=0)
    store["body.conv.bias"] = Tensor(store["body.conv.bias"].data, dtype=np.float64)
    ran = []
    monkeypatch.setattr(ad, "conv2d_3x3", lambda *a, **k: ran.append(1))
    with pytest.raises(WeightFormatError, match=r"'body.conv.bias' is float64, the other weights float32"):
        cat_forward(Tensor(np.zeros((1, 8, 8, 3), dtype=np.float32)), store, config)
    assert not ran


def test_cat_forward_rejects_an_entry_outside_the_schema_by_name():
    # Attention applies the locality complement iff the block's kernel is in
    # the store: a kernel left among the weights of a use_lcm = false model
    # would change its output unnoticed.
    config = dataclasses.replace(preset_config("tiny_sr_x2"), use_lcm=False)
    store = init_params(preset_config("tiny_sr_x2"), seed=0)
    with pytest.raises(WeightFormatError, match="unknown extra entry 'body.group0.block0.attn.lcm.bias'"):
        cat_forward(Tensor(np.zeros((1, 8, 8, 3), dtype=np.float32)), store, config)


def test_cat_forward_rejects_a_missing_entry_by_name():
    config = preset_config("tiny_sr_x2")
    store = init_params(config, seed=0)
    del store["head.post.bias"]
    with pytest.raises(WeightFormatError, match="missing entry 'head.post.bias'"):
        cat_forward(Tensor(np.zeros((1, 8, 8, 3), dtype=np.float32)), store, config)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_init_deterministic_and_seed_sensitive():
    config = _tiny_config()
    s1 = init_params(config, seed=7)
    s2 = init_params(config, seed=7)
    s3 = init_params(config, seed=8)
    assert all(np.array_equal(s1[n].data, s2[n].data) for n in s1)
    assert any(not np.array_equal(s1[n].data, s3[n].data) for n in s1)


def test_init_respects_kinds_and_truncation():
    config = _tiny_config()
    store = init_params(config, seed=9)
    for name, _, kind in parameter_schema(config):
        data = store[name].numpy()
        if kind == "normal":
            assert np.all(np.abs(data) <= 0.04 + 1e-9), name
            assert np.any(data != 0.0), name
        elif kind == "ones":
            assert np.all(data == 1.0), name
        else:
            assert np.all(data == 0.0), name


# ---------------------------------------------------------------------------
# counting
# ---------------------------------------------------------------------------


def test_fused_qkv_contribution_closed_form():
    c = 180
    assert c * (3 * c) + 3 * c == 97_740
    schema = {name: shape for name, shape, _ in parameter_schema(preset_config("cat_r_x4"))}
    assert schema["body.group0.block0.attn.qkv.weight"] == (c, 3 * c)
    assert schema["body.group0.block0.attn.qkv.bias"] == (3 * c,)


@pytest.mark.parametrize("name", ["cat_r_x4", "cat_a_x4"])
def test_published_scale_parameter_count(name):
    total = count_params(preset_config(name))
    assert abs(total - 16.60e6) <= 0.02 * 16.60e6


def test_count_matches_materialized_store_exactly():
    car = _tiny_config(task="car", scale=1, in_channels=1, out_channels=1, head_width=64)
    for config in (_tiny_config(), car):
        assert count_params(config) == sum(t.size for t in init_params(config, seed=0).values())


# ---------------------------------------------------------------------------
# weight files
# ---------------------------------------------------------------------------


def test_weight_roundtrip_bit_exact(tmp_path):
    for dtype in (np.float32, np.float64):
        store = init_params(_tiny_config(), seed=4, dtype=dtype)
        path = str(tmp_path / f"w_{np.dtype(dtype).name}.catw")
        save_weights(store, path)
        loaded = load_weights(path)
        assert list(loaded) == list(store)
        for name in store:
            assert loaded[name].dtype == store[name].dtype
            assert np.array_equal(loaded[name].data, store[name].data)


def test_weight_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.catw"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(WeightFormatError, match="magic"):
        load_weights(str(path))


def test_weight_truncated_rejected(tmp_path):
    store = init_params(_tiny_config(), seed=5)
    path = tmp_path / "w.catw"
    save_weights(store, str(path))
    blob = path.read_bytes()
    (tmp_path / "cut.catw").write_bytes(blob[: len(blob) // 2])
    with pytest.raises(WeightFormatError, match="truncated"):
        load_weights(str(tmp_path / "cut.catw"))


def test_weight_trailing_bytes_rejected(tmp_path):
    store = init_params(_tiny_config(), seed=5)
    path = tmp_path / "w.catw"
    save_weights(store, str(path))
    (tmp_path / "fat.catw").write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(WeightFormatError, match="trailing"):
        load_weights(str(tmp_path / "fat.catw"))


def _single_entry_file(name: str, value: float = 1.0) -> bytes:
    raw = name.encode()
    entry = struct.pack("<H", len(raw)) + raw + struct.pack("<BB", 0, 1) + struct.pack("<I", 1)
    entry += np.array([value], dtype="<f4").tobytes()
    return entry


def test_weight_duplicate_names_rejected(tmp_path):
    blob = b"CATW" + struct.pack("<I", 1) + struct.pack("<I", 2)
    blob += _single_entry_file("w") + _single_entry_file("w")
    path = tmp_path / "dup.catw"
    path.write_bytes(blob)
    with pytest.raises(WeightFormatError, match="duplicate"):
        load_weights(str(path))


def test_weight_unknown_extra_entry_rejected_by_name(tmp_path):
    blob = b"CATW" + struct.pack("<I", 1) + struct.pack("<I", 2)
    blob += _single_entry_file("expected.weight") + _single_entry_file("sneaky.extra")
    path = tmp_path / "extra.catw"
    path.write_bytes(blob)
    with pytest.raises(WeightFormatError, match="sneaky.extra"):
        load_weights(str(path), expected_names=["expected.weight"])


def test_weight_missing_entry_rejected(tmp_path):
    blob = b"CATW" + struct.pack("<I", 1) + struct.pack("<I", 1)
    blob += _single_entry_file("expected.weight")
    path = tmp_path / "missing.catw"
    path.write_bytes(blob)
    with pytest.raises(WeightFormatError, match="other.weight"):
        load_weights(str(path), expected_names=["expected.weight", "other.weight"])


def test_weight_non_utf8_name_rejected(tmp_path):
    blob = b"CATW" + struct.pack("<I", 1) + struct.pack("<I", 1)
    blob += _single_entry_file("w").replace(b"w", b"\xff", 1)
    path = tmp_path / "latin1.catw"
    path.write_bytes(blob)
    with pytest.raises(WeightFormatError, match="UTF-8"):
        load_weights(str(path))


def test_weight_dims_overflowing_int64_rejected(tmp_path):
    # 2**31 cubed elements wrap np.prod(..., int64) to 0; the count must be exact.
    entry = struct.pack("<H", 1) + b"w" + struct.pack("<BB", 0, 3) + struct.pack("<3I", *(2**31,) * 3)
    path = tmp_path / "huge.catw"
    path.write_bytes(b"CATW" + struct.pack("<I", 1) + struct.pack("<I", 1) + entry)
    with pytest.raises(WeightFormatError, match="truncated"):
        load_weights(str(path))


def test_weight_bad_version_rejected(tmp_path):
    path = tmp_path / "v9.catw"
    path.write_bytes(b"CATW" + struct.pack("<I", 9) + struct.pack("<I", 0))
    with pytest.raises(WeightFormatError, match="version"):
        load_weights(str(path))


def test_weight_io_streams_each_entry(tmp_path):
    store = {f"w{i}": Tensor(rand((256, 512), 90 + i, 1.0, np.float32)) for i in range(4)}
    nbytes = sum(t.data.nbytes for _, t in store.items())
    path = str(tmp_path / "w.catw")
    tracemalloc.start()
    try:
        save_weights(store, path)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        loaded = load_weights(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert save_peak < nbytes / 8, save_peak  # no copy of the entries, no joined blob
    assert load_peak < 1.125 * nbytes, load_peak  # the loaded arrays themselves, no file copy
    for name, t in store.items():
        assert np.array_equal(loaded[name].data, t.data) and not loaded[name].data.flags.writeable


def test_weight_dims_beyond_file_rejected_before_allocating(tmp_path):
    entry = struct.pack("<H", 1) + b"w" + struct.pack("<BB", 0, 2) + struct.pack("<2I", 4096, 4096) + b"\0" * 4
    path = tmp_path / "short.catw"
    path.write_bytes(b"CATW" + struct.pack("<I", 1) + struct.pack("<I", 1) + entry)
    tracemalloc.start()
    try:
        with pytest.raises(WeightFormatError, match="truncated"):
            load_weights(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak  # the 64 MiB entry was never allocated


# ---------------------------------------------------------------------------
# config text format
# ---------------------------------------------------------------------------


def _config_file_text(name: str) -> str:
    return (repo_root() / "configs" / f"{name}.cfg").read_text()


def test_config_files_match_presets():
    assert sorted(p.stem for p in (repo_root() / "configs").glob("*.cfg")) == sorted(PRESET_NAMES)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_config_file_parses_to_its_preset(name):
    assert parse_config(str(repo_root() / "configs" / f"{name}.cfg")) == preset_config(name)


@pytest.mark.parametrize(
    "name,line",
    [
        ("cat_r_x2", "axial_lengths = 9,9"),
        ("cat_a_x2", "window_height = 8"),
        ("cat_a_x2", "window_width = 8"),
        ("cat_a_car", "scale = 4"),
        ("cat_a_car", "head_width = 32"),
    ],
)
def test_config_key_the_model_does_not_use_rejected(name, line):
    key = line.split()[0]
    kept = [row for row in _config_file_text(name).splitlines() if not row.startswith(key)]
    text = "\n".join([*kept, line])
    with pytest.raises(ConfigError, match=f"do not use key '{key}'"):
        parse_config_text(text)


@pytest.mark.parametrize(
    "name,field,value",
    [
        ("cat_r_x2", "axial_lengths", (9, 9)),
        ("cat_a_x2", "window_height", 8),
        ("cat_a_x2", "window_width", 8),
        ("cat_a_car", "scale", 4),
        ("cat_a_car", "head_width", 32),
    ],
)
def test_model_config_rejects_a_field_the_model_does_not_use(name, field, value):
    with pytest.raises(ConfigError, match=f"do not use key '{field}'"):
        dataclasses.replace(preset_config(name), **{field: value})


@pytest.mark.parametrize("name", ["cat_r_xfoo", "cat_a_x", "cat_r_x5"])
def test_unknown_preset_rejected(name):
    with pytest.raises(ConfigError, match=f"unknown preset {name!r}"):
        preset_config(name)


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="mystery"):
        parse_config_text("task = sr\nmystery = 1\n")


def test_config_repeated_key_rejected():
    text = _config_file_text("tiny_sr_x2") + "channels = 16\n"
    with pytest.raises(ConfigError, match="repeated"):
        parse_config_text(text)


def test_config_missing_required_key():
    with pytest.raises(ConfigError, match="channels"):
        parse_config_text("task = sr\nscale = 2\nwindow = regular\n")


@pytest.mark.parametrize(
    "name,key",
    [("tiny_sr_x2", "scale"), ("tiny_sr_x2", "window_height"), ("cat_a_x2", "axial_lengths")],
)
def test_config_key_required_by_task_or_window_kind(name, key):
    text = "\n".join(row for row in _config_file_text(name).splitlines() if not row.startswith(key))
    with pytest.raises(ConfigError, match=f"missing required key '{key}'"):
        parse_config_text(text)


def test_config_use_lcm_false_is_the_ablation():
    text = _config_file_text("cat_r_x2").replace("use_lcm = true", "use_lcm = False")
    assert parse_config_text(text) == dataclasses.replace(preset_config("cat_r_x2"), use_lcm=False)


def test_config_car_defaults_to_one_channel():
    text = "\n".join(row for row in _config_file_text("cat_a_car").splitlines() if "_channels" not in row)
    assert parse_config_text(text) == preset_config("cat_a_car")


def test_config_missing_mlp_ratio_reported_as_missing():
    text = "\n".join(
        line for line in _config_file_text("tiny_sr_x2").splitlines() if "mlp_ratio" not in line
    )
    with pytest.raises(ConfigError, match="missing required key 'mlp_ratio'"):
        parse_config_text(text)


def test_config_bad_mlp_ratio_rejected():
    text = _config_file_text("tiny_sr_x2").replace("mlp_ratio = 2", "mlp_ratio = soup")
    with pytest.raises(ConfigError, match="number"):
        parse_config_text(text)


@pytest.mark.parametrize("ratio", ["nan", "inf"])
def test_config_non_finite_mlp_ratio_rejected(ratio):
    text = _config_file_text("tiny_sr_x2").replace("mlp_ratio = 2", f"mlp_ratio = {ratio}")
    with pytest.raises(ConfigError, match="finite"):
        parse_config_text(text)


def test_config_mlp_ratio_rounding_to_zero_hidden_rejected():
    # 0.001 * 16 channels rounds to a hidden width of 0: an MLP with no units.
    text = _config_file_text("tiny_sr_x2").replace("mlp_ratio = 2", "mlp_ratio = 0.001")
    with pytest.raises(ConfigError, match="hidden width of 0"):
        parse_config_text(text)


def test_config_bad_integer_rejected():
    text = _config_file_text("tiny_sr_x2").replace("channels = 16", "channels = lots")
    with pytest.raises(ConfigError, match="integer"):
        parse_config_text(text)


def test_config_comments_and_blanks_allowed():
    text = "# a comment\n\n" + _config_file_text("tiny_sr_x2")
    assert parse_config_text(text) == preset_config("tiny_sr_x2")


def test_config_axial_length_mismatch():
    with pytest.raises(ConfigError, match="axial_lengths"):
        ModelConfig(
            task="sr",
            scale=2,
            channels=16,
            num_groups=2,
            blocks_per_group=1,
            num_heads=2,
            mlp_ratio=2.0,
            window_kind="axial",
            axial_lengths=(2,),
        )


def test_config_scale_validation():
    with pytest.raises(ConfigError, match="scale"):
        _tiny_config(scale=5)


def test_config_odd_heads_rejected():
    with pytest.raises(ConfigError, match="head count"):
        _tiny_config(num_heads=3, channels=9)


def test_float32_forward_drift_stays_within_twice_the_recorded():
    # cat_r_x2 runs shifted windows, the LCM and the MLP; a float32 forward that
    # loses precision (a float16 temporary, a cancelling reorder) fails this.
    case = next(
        c
        for c in json.loads((repo_root() / "BENCH_drift.json").read_text())["cases"]
        if (c["config"], c["side"], c["jitter"]) == ("cat_r_x2", 32, 0.02)
    )
    got = forward_drift("cat_r_x2", 32, jitter=0.02)
    assert got["max_drift"] <= 2 * case["change"]["max_drift"], got  # False for a NaN drift too


def test_position_bias_output_bias_gets_only_rounding_noise():
    # posbias.fc3.bias adds one constant per head to every logit of that
    # head, which leaves each softmax row unchanged: its gradient is exactly 0
    # in exact arithmetic and only rounding noise in float, so a per-tensor
    # gradient comparison between two trees must judge it by an absolute
    # bound. The first float64 step of the overfit demo (run_overfit).
    config = preset_config("tiny_sr_x2")
    store = init_params(config, 0, dtype=np.float64)
    hr = overfit_target()
    x = Tensor(np.clip(bicubic_resize(hr, config.scale, "down"), 0.0, 1.0)[None], dtype=np.float64)
    tape = ad.GradientTape()
    tape.watch(store.values())
    with tape:
        loss = ad.mean_all(ad.abs_val(ad.sub(cat_forward(x, store, config), Tensor(hr[None], dtype=np.float64))))
    grads = ad.backward(tape, loss)
    weight = np.abs(grads[store["posbias.fc3.weight"]].data).max()
    assert weight > 0
    assert np.abs(grads[store["posbias.fc3.bias"]].data).max() <= 1e-9 * weight
