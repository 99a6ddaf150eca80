import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossagg.analysis import CostReport, CostRow, attention_flops, model_flops, report_render
from crossagg.attention import POS_HIDDEN
from crossagg.model import ModelConfig, count_params, preset_config
from crossagg.windowing import WindowSpec


def closed_form_attention_flops(spec: WindowSpec, channels: int, height: int, width: int) -> int:
    """Closed-form attention cost of one block at the given resolution."""
    if channels < 1 or height < 1 or width < 1:
        raise ValueError("extents must be positive")
    area = height * width
    if spec.kind == "regular":
        return area * channels * (4 * channels + 2 * spec.sh * spec.sw)
    return area * channels * (4 * channels + spec.sl * height + spec.sl * width)


def test_attention_flops_regular_example():
    assert attention_flops(WindowSpec.regular(4, 16), 180, 128, 128) == 2_500_853_760


def test_attention_flops_axial_example():
    assert attention_flops(WindowSpec.axial(4), 32, 64, 64) == 83_886_080


def test_attention_flops_unit_case():
    assert attention_flops(WindowSpec.regular(1, 1), 1, 1, 1) == 6


def test_attention_flops_validates_extents():
    with pytest.raises(ValueError):
        attention_flops(WindowSpec.regular(1, 1), 0, 4, 4)


@pytest.mark.parametrize("height,width", [(-4, 128), (128, -1), (0, 0)])
def test_model_flops_rejects_nonpositive_extents(height, width):
    with pytest.raises(ValueError, match=f"got {height}x{width}"):
        model_flops(preset_config("tiny_sr_x2"), height, width)


# ---------------------------------------------------------------------------
# published totals
# ---------------------------------------------------------------------------


def _within(value, target, frac=0.02):
    return abs(value - target) <= frac * target


def test_sr_model_flops_at_128():
    assert _within(model_flops(preset_config("cat_r_x4"), 128, 128).total_flops, 292.7e9)
    assert _within(model_flops(preset_config("cat_a_x4"), 128, 128).total_flops, 360.7e9)


def test_lcm_ablation_totals_and_delta():
    on = model_flops(preset_config("cat_r_x2"), 128, 128).total_flops
    off = model_flops(
        dataclasses.replace(preset_config("cat_r_x2"), use_lcm=False), 128, 128
    ).total_flops
    assert _within(on, 282.7e9)
    assert _within(off, 281.8e9)
    delta = (on - off) / off
    assert 0.0026 <= delta <= 0.0035


def test_axial_side_length_sweep():
    for lengths, target in (
        ((2, 2, 2, 2, 2, 2), 323.5e9),
        ((2, 2, 2, 4, 4, 4), 350.7e9),
        ((4, 4, 4, 4, 4, 4), 377.9e9),
    ):
        config = dataclasses.replace(preset_config("cat_a_x2"), axial_lengths=lengths)
        assert _within(model_flops(config, 128, 128).total_flops, target), lengths


def test_analyzer_params_equal_count_params():
    for name in ("cat_r_x4", "cat_a_x4", "cat_a_car", "tiny_sr_x2"):
        config = preset_config(name)
        assert model_flops(config, 64, 64).total_params == count_params(config), name


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------


@given(
    st.integers(1, 64),
    st.integers(1, 32),
    st.integers(2, 64),
    st.integers(2, 64),
    st.integers(1, 8),
    st.integers(1, 8),
)
@settings(max_examples=80)
def test_axial_dominates_regular_when_window_area_larger(c, sl, h, w, sh, sw):
    axial = closed_form_attention_flops(WindowSpec.axial(sl), c, h, w)
    regular = closed_form_attention_flops(WindowSpec.regular(sh, sw), c, h, w)
    if sl * (h + w) > 2 * sh * sw:
        assert axial >= regular


@given(
    st.integers(1, 64),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(1, 4),
    st.integers(1, 4),
)
@settings(max_examples=80)
def test_attention_flops_equals_closed_form_when_windows_divide(c, a, b, m, n):
    # Both orientations' windows (a x b and b x a, or a rows and a columns)
    # tile the image without padding.
    side = math.lcm(a, b)
    regular = WindowSpec.regular(a, b)
    assert attention_flops(regular, c, side * m, side * n) == closed_form_attention_flops(
        regular, c, side * m, side * n
    )
    axial = WindowSpec.axial(a)
    assert attention_flops(axial, c, a * m, a * n) == closed_form_attention_flops(axial, c, a * m, a * n)


def test_body_flops_scale_linearly_in_area():
    config = preset_config("cat_r_x2")

    def non_posbias_total(h, w):
        return sum(r.flops for r in model_flops(config, h, w).rows if r.name != "posbias.net")

    assert non_posbias_total(128, 128) == 4 * non_posbias_total(64, 64)


def test_square_windows_charge_the_bias_net_once_per_orientation():
    # Both orientations resolve to one 8x8 extent; each builds its own heads' bias.
    config = dataclasses.replace(preset_config("cat_r_x2"), window_height=8, window_width=8)
    per_offset = 2 * POS_HIDDEN + POS_HIDDEN * POS_HIDDEN + POS_HIDDEN * config.num_heads
    per_extent = (2 * 8 - 1) * (2 * 8 - 1) * per_offset
    row = next(r for r in model_flops(config, 64, 64).rows if r.name == "posbias.net")
    assert row.flops == 2 * per_extent


def test_totals_equal_row_sums():
    report = model_flops(preset_config("cat_a_x4"), 128, 128)
    assert report.total_flops == sum(r.flops for r in report.rows)
    assert report.total_params == sum(r.params for r in report.rows)
    assert all(r.flops >= 0 and r.params >= 0 for r in report.rows)


def test_zero_groups_edge_has_only_global_rows():
    config = ModelConfig(
        task="sr",
        scale=2,
        channels=16,
        num_groups=0,
        blocks_per_group=1,
        num_heads=2,
        mlp_ratio=2.0,
        window_kind="regular",
        window_height=2,
        window_width=4,
        head_width=8,
    )
    report = model_flops(config, 32, 32)
    assert not any(r.name.startswith("group") for r in report.rows)
    rendered = report_render(report)
    assert "shallow.conv" in rendered and "head.post" in rendered


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_render_giga_formatting():
    report = CostReport(rows=(CostRow("attn", 97_740, 2_500_853_760),), input_height=128, input_width=128)
    text = report_render(report)
    assert "2.50G" in text
    assert "0.10M" in text
    assert "total" in text


def test_render_totals_row_matches_sums():
    report = model_flops(preset_config("tiny_sr_x2"), 16, 16)
    lines = report_render(report).splitlines()
    total_line = lines[-1].split()
    assert total_line[0] == "total"
    assert int(total_line[1]) == report.total_params
    assert int(total_line[3]) == report.total_flops


def test_render_columns_aligned():
    text = report_render(model_flops(preset_config("tiny_sr_x2"), 16, 16))
    rows = text.splitlines()[1:]
    widths = {len(line) for line in rows if line and not line.startswith("-")}
    assert len(widths) == 1
