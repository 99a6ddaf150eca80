import os
import subprocess
import sys

import numpy as np
import pytest

from crossagg.autodiff import Tensor
from crossagg.imaging import ImageU8, load_image, save_image
from crossagg.model import init_params, preset_config, save_weights

from helpers import repo_root


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(repo_root() / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "crossagg", *args],
        capture_output=True,
        text=True,
        cwd=cwd or str(repo_root()),
        env=env,
        timeout=300,
    )


@pytest.fixture(scope="module")
def demo_png(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "demo.png"
    img = ImageU8.from_array(
        np.random.default_rng(0).integers(0, 256, (24, 24, 3), dtype=np.uint8)
    )
    save_image(img, str(path))
    return str(path)


def test_metrics_identical_images(demo_png):
    result = run_cli("metrics", "--ref", demo_png, "--test", demo_png)
    assert result.returncode == 0
    assert result.stdout.strip() == "PSNR=100.0000 SSIM=1.0000"
    assert result.stderr == ""


def test_metrics_y_flag_and_crop(demo_png, tmp_path):
    other = tmp_path / "shifted.png"
    img = load_image(demo_png)
    noisy = np.clip(img.data.astype(int) + 3, 0, 255).astype(np.uint8)
    save_image(ImageU8.from_array(noisy), str(other))
    result = run_cli("metrics", "--ref", demo_png, "--test", str(other), "--y", "--crop", "2")
    assert result.returncode == 0
    assert result.stdout.startswith("PSNR=")


def test_metrics_missing_file_errors_to_stderr(demo_png):
    result = run_cli("metrics", "--ref", demo_png, "--test", "no_such_file.png")
    assert result.returncode != 0
    assert result.stdout == ""
    assert "no_such_file.png" in result.stderr


def test_unknown_flag_rejected():
    result = run_cli("analyze", "--config", "x", "--bogus")
    assert result.returncode != 0
    assert result.stderr != ""


def test_unknown_command_rejected():
    result = run_cli("frobnicate")
    assert result.returncode != 0


def test_analyze_prints_published_scale_totals():
    config = str(repo_root() / "configs" / "cat_r_x4.cfg")
    result = run_cli("analyze", "--config", config)
    assert result.returncode == 0
    total = [line for line in result.stdout.splitlines() if line.startswith("total")][0]
    assert "16.60M" in total
    flops_g = float(total.split()[-1].rstrip("G"))
    assert abs(flops_g - 292.7) <= 0.02 * 292.7


def test_analyze_respects_resolution_flags():
    config = str(repo_root() / "configs" / "tiny_sr_x2.cfg")
    r64 = run_cli("analyze", "--config", config, "--height", "64", "--width", "64")
    r128 = run_cli("analyze", "--config", config)
    assert r64.returncode == r128.returncode == 0
    assert r64.stdout != r128.stdout
    assert "cost report @ 64x64" in r64.stdout


def test_infer_writes_upscaled_png(tmp_path, demo_png):
    config = str(repo_root() / "configs" / "tiny_sr_x2.cfg")
    weights = tmp_path / "tiny.catw"
    save_weights(init_params(preset_config("tiny_sr_x2"), seed=0), str(weights))
    out_path = tmp_path / "restored.png"
    result = run_cli(
        "infer", "--config", config, "--weights", str(weights), "--input", demo_png, "--output", str(out_path)
    )
    assert result.returncode == 0, result.stderr
    out = load_image(str(out_path))
    assert (out.height, out.width, out.channels) == (48, 48, 3)


def test_infer_x4_config_quadruples_resolution(tmp_path, demo_png):
    config = type(preset_config("tiny_sr_x2"))(
        **{**preset_config("tiny_sr_x2").__dict__, "scale": 4}
    )
    config_path = tmp_path / "tiny_x4.cfg"
    x2_text = (repo_root() / "configs" / "tiny_sr_x2.cfg").read_text()
    config_path.write_text(x2_text.replace("scale = 2", "scale = 4"))
    weights = tmp_path / "tiny_x4.catw"
    save_weights(init_params(config, seed=0), str(weights))
    out_path = tmp_path / "big.png"
    result = run_cli(
        "infer",
        "--config",
        str(config_path),
        "--weights",
        str(weights),
        "--input",
        demo_png,
        "--output",
        str(out_path),
        "--ensemble",
    )
    assert result.returncode == 0, result.stderr
    out = load_image(str(out_path))
    assert (out.height, out.width, out.channels) == (96, 96, 3)


def test_infer_rejects_mismatched_weights(tmp_path, demo_png):
    config = str(repo_root() / "configs" / "tiny_sr_x2.cfg")
    weights = tmp_path / "wrong.catw"
    # a weights file for a different architecture than the config asks for
    other = preset_config("tiny_sr_x2")
    other = type(other)(**{**other.__dict__, "num_groups": 2, "axial_lengths": ()})
    save_weights(init_params(other, seed=0), str(weights))
    out_path = tmp_path / "never.png"
    result = run_cli(
        "infer", "--config", config, "--weights", str(weights), "--input", demo_png, "--output", str(out_path)
    )
    assert result.returncode != 0
    assert not out_path.exists()
    assert result.stderr.strip() != ""


def test_infer_rejects_mis_shaped_weights_without_writing(tmp_path, demo_png):
    # Right names, wrong shapes: a [hidden, 1] fc2 and its [1] bias broadcast
    # through the residual add, so only a shape check stops the run.
    config = preset_config("tiny_sr_x2")
    store = init_params(config, seed=0)
    name = "body.group0.block0.mlp.fc2"
    store[f"{name}.weight"] = Tensor(np.zeros((config.mlp_hidden, 1), dtype=np.float32))
    store[f"{name}.bias"] = Tensor(np.zeros(1, dtype=np.float32))
    weights = tmp_path / "misshaped.catw"
    save_weights(store, str(weights))
    out_path = tmp_path / "never.png"
    result = run_cli(
        "infer", "--config", str(repo_root() / "configs" / "tiny_sr_x2.cfg"), "--weights", str(weights),
        "--input", demo_png, "--output", str(out_path),
    )
    assert result.returncode == 1
    assert not out_path.exists()
    assert result.stderr.startswith(f"error: weight '{name}.weight' has shape (")


def test_infer_rejects_mixed_dtype_weights_without_writing(tmp_path, demo_png):
    # Each entry of a weight file carries its own dtype code.
    store = init_params(preset_config("tiny_sr_x2"), seed=0)
    store["body.conv.bias"] = Tensor(store["body.conv.bias"].data, dtype=np.float64)
    weights = tmp_path / "mixed.catw"
    save_weights(store, str(weights))
    out_path = tmp_path / "never.png"
    result = run_cli(
        "infer", "--config", str(repo_root() / "configs" / "tiny_sr_x2.cfg"), "--weights", str(weights),
        "--input", demo_png, "--output", str(out_path),
    )
    assert result.returncode == 1
    assert not out_path.exists()
    assert result.stderr.startswith("error: weight 'body.conv.bias' is float64, the other weights float32")


def test_infer_non_finite_output_fails_without_writing(tmp_path, demo_png):
    config = str(repo_root() / "configs" / "tiny_sr_x2.cfg")
    store = init_params(preset_config("tiny_sr_x2"), seed=0)
    store["head.post.bias"] = Tensor(np.full(store["head.post.bias"].shape, np.nan, dtype=np.float32))
    weights = tmp_path / "nan.catw"
    save_weights(store, str(weights))
    for extra in ((), ("--ensemble",)):
        out_path = tmp_path / "never.png"
        result = run_cli(
            "infer", "--config", config, "--weights", str(weights), "--input", demo_png, "--output", str(out_path),
            *extra,
        )
        assert result.returncode == 1, extra
        assert not out_path.exists(), extra
        assert result.stderr == "error: 6912 of 6912 image values are NaN or infinite; no 8-bit image can be written\n"


def test_overfit_short_run_fails_threshold_with_curve():
    result = run_cli("overfit", "--steps", "5")
    assert result.returncode == 1
    assert "step" in result.stdout and "loss" in result.stdout


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_overfit_nonpositive_steps_is_one_line_diagnosis(steps):
    result = run_cli("overfit", "--steps", steps)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"error: overfit needs at least one step, got {steps}\n"


def test_analyze_nonpositive_extent_names_the_extents():
    config = str(repo_root() / "configs" / "tiny_sr_x2.cfg")
    result = run_cli("analyze", "--config", config, "--height", "-4")
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "error: input resolution must be positive, got -4x128\n"


def test_selftest_filter_runs_subset():
    result = run_cli("selftest", "--filter", "softmax")
    assert result.returncode == 0
    assert "[PASS] softmax_rows" in result.stdout


def test_selftest_unknown_filter_fails():
    result = run_cli("selftest", "--filter", "not_a_check")
    assert result.returncode == 1
