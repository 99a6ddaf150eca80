"""Named, fast invariant checks runnable without a test framework.

Each check raises AssertionError on failure; the runner prints one line per
check and reports overall success. These mirror (a quick subset of) the
pytest property suites so an installed build can be sanity-checked from the
command line.
"""

from __future__ import annotations

import math
import os
import tempfile
import traceback
from dataclasses import replace

import numpy as np

from . import autodiff as ad
from .attention import rwin_self_attention
from .autodiff import GradientTape, OptimizerHyper, Tensor, adam_step, backward, init_adam_state
from .analysis import model_flops
from .harness import dihedral_inverse, dihedral_transform
from .imaging import bicubic_weights, psnr, ssim
from .model import (
    cat_forward,
    count_params,
    init_params,
    load_weights,
    preset_config,
    save_weights,
)
from .reference import full_attention_oracle
from .windowing import (
    HORIZONTAL,
    VERTICAL,
    WindowSpec,
    build_shift_mask,
    resolve_geometry,
    window_maps,
)

__all__ = ["CHECKS", "run_selftests", "TINY_BLOCK", "tiny_attention_params"]


def _rng(seed=0):
    return np.random.default_rng(seed)


TINY_BLOCK = "body.group0.block0"


def tiny_attention_params(
    c=4, heads=2, seed=0, dtype=np.float64, hidden=8, scale=0.1, lcm=True
) -> dict[str, Tensor]:
    """Small random weights of one attention block, ``TINY_BLOCK``, and of
    the position-bias network, under the model's names, N(0, scale) per
    element."""
    r = _rng(seed)
    a = f"{TINY_BLOCK}.attn"
    shapes = {
        "posbias.fc1.weight": (2, hidden),
        "posbias.fc1.bias": (hidden,),
        "posbias.fc2.weight": (hidden, hidden),
        "posbias.fc2.bias": (hidden,),
        "posbias.fc3.weight": (hidden, heads),
        "posbias.fc3.bias": (heads,),
        f"{a}.qkv.weight": (c, 3 * c),
        f"{a}.qkv.bias": (3 * c,),
        f"{a}.proj.weight": (c, c),
        f"{a}.proj.bias": (c,),
    }
    if lcm:
        shapes.update({f"{a}.lcm.weight": (3, 3, c, 1), f"{a}.lcm.bias": (c,)})
    return {name: Tensor(r.normal(0.0, scale, size=shape), dtype=dtype) for name, shape in shapes.items()}


def check_softmax_rows():
    # The model's attention op on a shifted geometry's windows, two images:
    # each row sums to 1 and pairs of different regions get exactly 0.
    g = resolve_geometry(WindowSpec.regular(2, 4), HORIZONTAL, 6, 10, shifted=True)
    index, own, regions = window_maps(g)
    heads, n = 2, g.window_pixels
    r = _rng(1)
    c = heads * 3
    x, v = (Tensor(r.normal(scale=3.0, size=(2, 6, 10, c))) for _ in range(2))
    w_qk, b_qk = Tensor(r.normal(scale=c**-0.5, size=(c, 2 * c))), Tensor(r.normal(size=2 * c))
    bias = Tensor(r.normal(size=(n, heads, n)))
    _, p = ad.window_attention(x, w_qk, b_qk, v, [(index, own, regions, bias)], 1.0, weights=True)
    assert np.all(np.abs(p.sum(axis=-1) - 1.0) <= 1e-12)
    differ = np.broadcast_to(np.tile(regions[:, :, None] != regions[:, None, :], (2, 1, 1))[:, None], p.shape)
    assert differ.any() and np.all(p[differ] == 0.0)


def check_gelu_values():
    # Values, and slopes cdf + x * pdf through the backward's rebuilt cdf.
    x = Tensor([-3.0, -1.0, 0.0, 0.5, 1.0, 4.0], dtype=np.float64)
    tape = GradientTape()
    tape.watch(x)
    with tape:
        y = ad.gelu(x)
        loss = ad.sum_all(y)
    for v, got, slope in zip(x.data.tolist(), y.data.tolist(), backward(tape, loss)[x].data.tolist()):
        cdf = 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))
        pdf = math.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi)
        assert abs(got - v * cdf) < 1e-12 and abs(slope - (cdf + v * pdf)) < 1e-12, (v, got, slope)


def check_gelu_float64_erf():
    # The float64 GELU's erf (cephes on numpy alone, scipy's bit for bit)
    # against the C library's math.erf: within 4 ulp (3 measured), on a grid
    # and either side of |u| = 1 and 6, where its three ranges meet.
    edges = [np.nextafter(e, d) for e in (1.0, 6.0) for d in (0.0, e, np.inf)]
    u = np.concatenate([np.linspace(0.0, 7.0, 7001), edges, [5e-324, 1e-310]])
    u = np.concatenate([u, -u])
    got = np.empty_like(u)
    ad._erf_f64(u, got, np.empty_like(u), np.empty_like(u))
    want = np.array([math.erf(v) for v in u])
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want))), np.abs(got - want).max()
    assert np.array_equal(np.signbit(got), np.signbit(u))
    y = ad.gelu(Tensor([np.inf, -np.inf, np.nan], dtype=np.float64)).numpy()
    assert y[0] == np.inf and y[1] == 0.0 and np.signbit(y[1]) and np.isnan(y[2]), y


def check_partition_merge_roundtrip():
    # The gather maps of both orientations of a padded, shifted geometry:
    # windows taken by ``index`` and written back from each own slot to the
    # pixel it reads give the input back exactly, every pixel once.
    h, w = 5, 7
    x = _rng(2).normal(size=(2, h * w, 3))
    for orientation in (HORIZONTAL, VERTICAL):
        g = resolve_geometry(WindowSpec.regular(2, 4), orientation, h, w, shifted=True)
        assert g.pad_h and g.pad_w and g.shift_down and g.shift_left
        index, own, _ = window_maps(g)
        slots = x[:, index]
        back = np.full_like(x, np.nan)
        back[:, index[own]] = slots[:, own]
        assert np.count_nonzero(own) == h * w and np.array_equal(back, x)


def check_pixel_shuffle_bijection():
    x = Tensor(_rng(4).normal(size=(1, 3, 5, 8)))
    y = ad.pixel_shuffle(x, 2)
    back = np.zeros_like(x.data)
    for c in range(8):
        cc, rem = divmod(c, 4)
        dy, dx = divmod(rem, 2)
        back[0, :, :, c] = y.data[0, dy::2, dx::2, cc]
    assert np.array_equal(back, x.data)


def check_conv_identity():
    c = 3
    k = np.zeros((3, 3, c, c))
    for i in range(c):
        k[1, 1, i, i] = 1.0
    x = Tensor(_rng(5).normal(size=(1, 5, 6, c)))
    y = ad.conv2d_3x3(x, Tensor(k, dtype=x.dtype), Tensor(np.zeros(c), dtype=x.dtype))
    assert np.allclose(y.data, x.data)


def check_mask_regions():
    g = resolve_geometry(WindowSpec.regular(2, 2), HORIZONTAL, 4, 4, shifted=True)
    ids = build_shift_mask(g)
    assert ids.shape == (g.num_windows, g.window_pixels)
    # Top windows hold the wrapped row; the top-right one the wrapped column too.
    assert [len(np.unique(w)) for w in ids] == [2, 4, 1, 2]


def check_attention_bruteforce():
    for spec, shape in ((WindowSpec.regular(2, 4), (4, 8, 4)), (WindowSpec.axial(2), (6, 6, 4))):
        h, w, c = shape
        params = tiny_attention_params(c=c, heads=2, seed=7)
        x = _rng(8).normal(size=(h, w, c))
        got = rwin_self_attention(Tensor(x[None], dtype=np.float64), params, TINY_BLOCK, spec).numpy()[0]
        want = full_attention_oracle(x, {name: t.numpy() for name, t in params.items()}, TINY_BLOCK, spec)
        assert np.max(np.abs(got - want)) <= 1e-9, spec


def check_shifted_attention_support():
    spec = WindowSpec.regular(2, 4)
    c = 4
    params = tiny_attention_params(c=c, heads=2, seed=9, lcm=False)
    x = Tensor(_rng(10).normal(scale=0.5, size=(1, 6, 8, c)), dtype=np.float64)
    probe: dict = {}
    rwin_self_attention(x, params, TINY_BLOCK, spec, shifted=True, probe=probe)
    for orientation in (HORIZONTAL, VERTICAL):
        g = probe["geometries"][orientation]
        weights = probe["weights"][orientation]
        ids = np.zeros((g.padded_h, g.padded_w), dtype=int)
        ids[: g.shift_down, :] += 2
        ids[:, g.padded_w - g.shift_left :] += 1
        win = (
            ids.reshape(g.padded_h // g.sh, g.sh, g.padded_w // g.sw, g.sw)
            .transpose(0, 2, 1, 3)
            .reshape(-1, g.window_pixels)
        )
        differ = win[:, :, None] != win[:, None, :]
        assert np.all(weights[differ[:, None, :, :].repeat(weights.shape[1], 1)] < 1e-9)


def check_gradient_small():
    spec = WindowSpec.regular(2, 2)
    c, heads = 4, 2
    params = tiny_attention_params(c=c, heads=heads, seed=11, hidden=6)
    x = Tensor(_rng(12).normal(size=(1, 4, 4, c)), dtype=np.float64)
    probes = [f"{TINY_BLOCK}.attn.qkv.weight", "posbias.fc3.weight", f"{TINY_BLOCK}.attn.lcm.bias"]
    tape = GradientTape()
    tape.watch([params[name] for name in probes])
    with tape:
        y = rwin_self_attention(x, params, TINY_BLOCK, spec, shifted=True)
        loss = ad.sum_all(ad.mul(y, y))
    grads = backward(tape, loss)

    def loss_at(name: str, flat_idx: int, delta: float) -> float:
        data = params[name].numpy()
        data.flat[flat_idx] += delta
        bumped = {**params, name: Tensor(data, dtype=np.float64)}
        out = rwin_self_attention(x, bumped, TINY_BLOCK, spec, shifted=True)
        return ad.sum_all(ad.mul(out, out)).item()

    step = 1e-4
    for name in probes:
        g = grads[params[name]].numpy()
        for flat_idx in range(0, g.size, max(1, g.size // 5)):
            fd = (loss_at(name, flat_idx, step) - loss_at(name, flat_idx, -step)) / (2 * step)
            an = g.flat[flat_idx]
            assert abs(fd - an) <= 1e-3 * max(1.0, abs(fd), abs(an)), (fd, an)


def check_zero_weight_car_identity():
    config = replace(
        preset_config("cat_a_car"),
        channels=8,
        num_groups=1,
        blocks_per_group=2,
        num_heads=2,
        axial_lengths=(2,),
        mlp_ratio=2.0,
    )
    store = {name: Tensor(np.zeros(t.shape, dtype=np.float32)) for name, t in init_params(config, seed=0).items()}
    x = Tensor(_rng(13).uniform(0, 1, size=(1, 8, 8, 1)).astype(np.float32))
    y = cat_forward(x, store, config)
    assert np.array_equal(y.data, x.data)


def check_adam_first_step():
    p = {"w": Tensor(np.zeros(3, dtype=np.float64))}
    g = {"w": Tensor(np.array([0.5, -2.0, 1e-3]))}
    hyper = OptimizerHyper(learning_rate=0.01, eps=1e-12)
    new, _ = adam_step(p, g, init_adam_state(p), hyper)
    assert np.allclose(np.abs(new["w"].numpy()), 0.01, atol=1e-6)


def check_psnr_closed_form():
    a = np.full((16, 16, 3), 100.0)
    assert abs(psnr(a, a + 1.0) - 20.0 * math.log10(255.0)) < 1e-9
    assert psnr(a, a) == 100.0


def check_ssim_identity():
    a = _rng(14).uniform(0, 255, size=(24, 24, 3))
    assert ssim(a, a) == 1.0


def check_weights_roundtrip():
    config = preset_config("tiny_sr_x2")
    store = init_params(config, seed=3)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "w.catw")
        save_weights(store, path)
        loaded = load_weights(path, expected_names=store)
    assert list(loaded) == list(store)
    for name, t in store.items():
        assert np.array_equal(loaded[name].data, t.data), name


def check_bicubic_taps():
    sig = np.zeros(16)
    sig[8] = 1.0
    up = bicubic_weights(16, 32) @ sig
    assert abs(up[17] - 0.5625) < 1e-12
    assert abs(up[19] + 0.0625) < 1e-12
    w = bicubic_weights(33, 11)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)


def check_dihedral_inverses():
    x = _rng(15).normal(size=(5, 7, 3))
    for k in range(8):
        assert np.array_equal(dihedral_inverse(dihedral_transform(x, k), k), x)


def check_param_count_consistency():
    config = preset_config("tiny_sr_x2")
    assert count_params(config) == sum(t.size for t in init_params(config, seed=0).values())
    big = count_params(preset_config("cat_r_x4"))
    assert abs(big - 16.60e6) <= 0.02 * 16.60e6


def check_flops_tables():
    targets = {
        "cat_r_x4": 292.7e9,
        "cat_a_x4": 360.7e9,
    }
    for name, want in targets.items():
        got = model_flops(preset_config(name), 128, 128).total_flops
        assert abs(got - want) <= 0.02 * want, (name, got)


def check_overfit_smoke():
    from .harness import run_overfit

    result = run_overfit(steps=8, seed=0)
    assert len(result.losses) == 8
    again = run_overfit(steps=8, seed=0)
    assert result.losses == again.losses


CHECKS = {
    "softmax_rows": check_softmax_rows,
    "gelu_values": check_gelu_values,
    "gelu_float64_erf": check_gelu_float64_erf,
    "partition_merge_roundtrip": check_partition_merge_roundtrip,
    "pixel_shuffle_bijection": check_pixel_shuffle_bijection,
    "conv_identity": check_conv_identity,
    "mask_regions": check_mask_regions,
    "attention_bruteforce": check_attention_bruteforce,
    "shifted_attention_support": check_shifted_attention_support,
    "gradient_small": check_gradient_small,
    "zero_weight_car_identity": check_zero_weight_car_identity,
    "adam_first_step": check_adam_first_step,
    "psnr_closed_form": check_psnr_closed_form,
    "ssim_identity": check_ssim_identity,
    "weights_roundtrip": check_weights_roundtrip,
    "bicubic_taps": check_bicubic_taps,
    "dihedral_inverses": check_dihedral_inverses,
    "param_count_consistency": check_param_count_consistency,
    "flops_tables": check_flops_tables,
    "overfit_smoke": check_overfit_smoke,
}


def run_selftests(name_filter: str | None = None, emit=print) -> bool:
    selected = {k: v for k, v in CHECKS.items() if not name_filter or name_filter in k}
    if not selected:
        emit(f"no selftests match filter {name_filter!r}")
        return False
    ok = True
    for name, fn in selected.items():
        try:
            fn()
        except Exception as e:  # noqa: BLE001 - report and continue
            ok = False
            # A bare assert has no message: name the line that failed instead.
            emit(f"[FAIL] {name}: {str(e) or traceback.extract_tb(e.__traceback__)[-1].line}")
        else:
            emit(f"[PASS] {name}")
    return ok
