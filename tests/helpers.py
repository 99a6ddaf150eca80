"""Shared test utilities: small random parameter sets, numpy views of them,
and a finite-difference gradient checker."""

from pathlib import Path

import numpy as np

from crossagg import autodiff as ad
from crossagg.attention import AttentionParams
from crossagg.autodiff import GradientTape, Tensor, backward
from crossagg.selftest import attention_params_numpy, tiny_attention_params  # noqa: F401 - re-exported


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


def rand(shape, seed, scale=0.1, dtype=np.float64) -> np.ndarray:
    return np.random.default_rng(seed).normal(0.0, scale, size=shape).astype(dtype)


def eval_pos_net_numpy(p: AttentionParams, offsets: np.ndarray) -> np.ndarray:
    """Directly evaluate the offset network on [K, 2] normalized offsets."""
    h = np.maximum(offsets @ p.pos_net.w1.numpy() + p.pos_net.b1.numpy(), 0.0)
    h = np.maximum(h @ p.pos_net.w2.numpy() + p.pos_net.b2.numpy(), 0.0)
    return h @ p.pos_net.w3.numpy() + p.pos_net.b3.numpy()


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
