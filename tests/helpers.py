"""Shared test utilities: small random weight dicts, numpy copies of them,
a finite-difference gradient checker, and the float32-against-float64 drift
of a model forward."""

import hashlib
from pathlib import Path

import numpy as np

from crossagg import autodiff as ad
from crossagg.autodiff import GradientTape, Tensor, backward
from crossagg.model import cat_forward, init_params, preset_config
from crossagg.reference import _pos_net
from crossagg.selftest import TINY_BLOCK, tiny_attention_params  # noqa: F401 - re-exported


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


def rand(shape, seed, scale=0.1, dtype=np.float64) -> np.ndarray:
    return np.random.default_rng(seed).normal(0.0, scale, size=shape).astype(dtype)


def numpy_weights(store: dict) -> dict:
    """The tensors of a weight dict as the plain arrays that
    :mod:`crossagg.reference` takes, under the same names."""
    return {name: t.numpy() for name, t in store.items()}


def without_lcm(store: dict) -> dict:
    """A weight dict without its locality-complement kernels, which
    attention then skips."""
    return {name: t for name, t in store.items() if ".attn.lcm." not in name}


def eval_pos_net_numpy(store: dict, offsets: np.ndarray) -> np.ndarray:
    """Directly evaluate the offset network on [K, 2] normalized offsets."""
    return _pos_net(numpy_weights(store), offsets)


def assert_grads_match_fd(build, arrays: dict, step=1e-4, rtol=1e-3, atol=1e-6):
    """Check tape gradients of sum(build(tensors) * R) against central
    finite differences for every element of every input array.

    ``build`` maps a dict of float64 Tensors to an output Tensor; ``arrays``
    are the numpy starting values.
    """
    tensors = {k: Tensor(v, dtype=np.float64) for k, v in arrays.items()}
    probe = np.random.default_rng(99).normal(size=build(tensors).shape)
    probe_t = Tensor(probe, dtype=np.float64)

    tape = GradientTape()
    tape.watch(tensors.values())
    with tape:
        loss = ad.sum_all(ad.mul(build(tensors), probe_t))
    analytic = backward(tape, loss)

    def loss_at(variant: dict) -> float:
        out = build({k: Tensor(v, dtype=np.float64) for k, v in variant.items()})
        return float((out.data * probe).sum())

    for key, base in arrays.items():
        an = analytic[tensors[key]].numpy()
        fd = np.zeros_like(np.asarray(base, dtype=np.float64))
        flat = fd.reshape(-1)
        for i in range(flat.size):
            plus = {k: np.array(v, dtype=np.float64) for k, v in arrays.items()}
            minus = {k: np.array(v, dtype=np.float64) for k, v in arrays.items()}
            plus[key].reshape(-1)[i] += step
            minus[key].reshape(-1)[i] -= step
            flat[i] = (loss_at(plus) - loss_at(minus)) / (2.0 * step)
        assert np.allclose(an, fd, rtol=rtol, atol=atol), (
            key,
            np.max(np.abs(an - fd)),
        )


def taped_output_and_grads(build, arrays: dict, seed=7):
    """Output of ``build`` on tensors made from ``arrays`` (dtypes kept), and
    the gradients of sum(output * R) for a fixed random R, as numpy arrays:
    for bit-for-bit comparisons of two implementations of one op."""
    tensors = {k: Tensor(v) for k, v in arrays.items()}
    tape = GradientTape()
    tape.watch(tensors.values())
    with tape:
        out = build(tensors)
        probe = Tensor(np.random.default_rng(seed).normal(size=out.shape), dtype=out.dtype)
        loss = ad.sum_all(ad.mul(out, probe))
    grads = backward(tape, loss)
    return out.numpy(), {k: grads[t].numpy() for k, t in tensors.items()}


def forward_drift(config_name: str, side: int, jitter: float = 0.0) -> dict:
    """Run the preset ``config_name`` forward on one seed-0 side x side image in
    float32 and in float64 from the same weights, and report the drift.

    The float32 weights are ``init_params(config, 0)``, plus N(0, ``jitter``)
    noise when ``jitter`` is nonzero; the float64 weights and image are exact
    copies of the float32 ones, so the drift is float32 arithmetic alone. The
    drift of an output element is |y32 - y64| / max|y64|. The float64 output's
    SHA-256 depends on the BLAS thread count.
    """
    config = preset_config(config_name)
    rng = np.random.default_rng(0)
    img = (rng.integers(0, 256, (1, side, side, config.in_channels)) / 255.0).astype(np.float32)
    store32 = init_params(config, 0)
    if jitter:
        # Noise is drawn in name order, independent of the store's order.
        store32 = {
            name: Tensor(t.data + rng.normal(0.0, jitter, t.shape).astype(np.float32))
            for name, t in sorted(store32.items())
        }
    store64 = {name: Tensor(t.data, dtype=np.float64) for name, t in store32.items()}
    y32 = cat_forward(Tensor(img), store32, config).data
    y64 = cat_forward(Tensor(img, dtype=np.float64), store64, config).data
    drift = np.abs(y32 - y64) / np.abs(y64).max()
    return {
        "config": config_name,
        "side": side,
        "jitter": jitter,
        "max_drift": float(drift.max()),
        "median_drift": float(np.median(drift)),
        "max_abs_float64": float(np.abs(y64).max()),
        "float64_sha256": hashlib.sha256(y64.tobytes()).hexdigest(),
    }
