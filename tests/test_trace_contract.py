"""The traced benchmark's contract with the package: ``perfbench/tracer.py``
looks functions up by module and name, and joins a traced forward pass to the
rows of ``analysis.model_flops``. A rename or deletion in the package that
breaks either would otherwise show only in a ``--trace 1`` benchmark run."""

import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from crossagg import autodiff as ad
from crossagg import harness
from crossagg.imaging import ImageU8
from crossagg.model import init_params, preset_config

from helpers import repo_root

sys.path.insert(0, str(repo_root() / "perfbench"))
from tracer import Tracer  # noqa: E402


def _axial_config():
    # Two blocks, so the second one runs shifted; axial side 3 on a 16 x 17
    # map pads the rows of the horizontal windows and the columns of the
    # vertical ones.
    return replace(
        preset_config("tiny_sr_x2"),
        window_kind="axial",
        window_height=0,
        window_width=0,
        axial_lengths=(3,),
        blocks_per_group=2,
    )


@pytest.mark.parametrize(
    "config, height, width",
    [(preset_config("tiny_sr_x2"), 16, 16), (_axial_config(), 16, 17)],
    ids=["tiny_sr_x2", "tiny_axial"],
)
def test_traced_restore_joins_every_cost_row(config, height, width):
    img = ImageU8.from_array(np.random.default_rng(0).integers(0, 256, (height, width, 3), dtype=np.uint8))
    store = init_params(config, 0)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.request = 0
        harness.restore_image(store, config, img)
    finally:
        tracer.uninstall()
    metrics, problems = tracer.per_layer(config)
    assert problems == []
    assert metrics["attention.relative_position_bias.calls"] > 0


def test_traced_training_steps_join_every_cost_row():
    # The taped path as the train_tiny workload traces it: each run_overfit
    # step (forward under a tape, backward, Adam) is one traced request.
    tracer = Tracer()

    def next_request(step, loss):
        tracer.request += 1

    tracer.install()
    try:
        tracer.request = 0
        harness.run_overfit(steps=3, seed=0, on_step=next_request)
    finally:
        tracer.uninstall()
    metrics, problems = tracer.per_layer(preset_config("tiny_sr_x2"))
    assert problems == []
    assert metrics["autodiff.backward.ms"] > 0 and metrics["autodiff.adam_step.ms"] > 0


def test_traced_banded_mlp_enters_no_traced_op_off_the_calling_thread(monkeypatch):
    # Two workers and a budget of an eighth of a 16 x 16 tiny_sr_x2 MLP's
    # hidden map: the untaped block tail runs in 8 bands a pass, which the
    # two workers pull. The tracer keeps one span stack, so an op entered by
    # name on the pool thread would nest its spans into the calling thread's.
    monkeypatch.setattr(ad, "_cpus", lambda: 2)
    monkeypatch.setattr(ad, "WINDOW_CHUNK_BYTES", 1 << 12)
    config = preset_config("tiny_sr_x2")
    img = ImageU8.from_array(np.random.default_rng(0).integers(0, 256, (16, 16, 3), dtype=np.uint8))
    store = init_params(config, 0)
    named, plain = [], []

    def recorded(threads, fn):
        def shim(*args, **kwargs):
            threads.append(threading.get_ident())
            return fn(*args, **kwargs)

        return shim

    shims = {name: recorded(plain, fn) for name, fn in vars(ad._PLAIN_OPS).items()}
    monkeypatch.setattr(ad, "_PLAIN_OPS", SimpleNamespace(**shims))
    tracer = Tracer()
    tracer.install()
    try:
        for name in ("linear", "gelu", "add", "layer_norm"):  # the installed wrappers; uninstall puts the originals back
            setattr(ad, name, recorded(named, getattr(ad, name)))
        tracer.request = 0
        harness.restore_image(store, config, img)
    finally:
        tracer.uninstall()
    metrics, problems = tracer.per_layer(config)
    assert problems == []
    assert metrics["analysis.mlp.ms"] > 0
    assert set(named) == {threading.get_ident()}
    assert plain and threading.get_ident() not in plain  # the pool thread ran bands
