"""Analytic FLOPs and parameter accounting.

Counting convention: one multiply-accumulate is one FLOP; biases, layer
norms, softmax, and activations are not charged. This convention reproduces
the published complexity figures for this architecture family. Attention cost
per block is 4 * H * W * C * C for the fused query/key/value projections plus
the output projection, and padded_h * padded_w * C * n for the two window
matmuls of each orientation, over the padded grid it tiles with windows of n
pixels. When the windows divide the image this is the closed form

    regular windows:  H * W * C * (4C + 2 * sh * sw)
    axial windows:    H * W * C * (4C + sl * H + sl * W)

The position bias network is charged once per distinct orientation and window
size, mirroring the implementation's cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from .attention import POS_HIDDEN
from .model import TASK_SR, ModelConfig
from .windowing import HORIZONTAL, VERTICAL, WindowSpec, resolve_geometry

__all__ = [
    "CostRow",
    "CostReport",
    "attention_flops",
    "model_flops",
    "report_render",
    "CONVENTION",
]

CONVENTION = "MAC=1; bias, norm, softmax, and activation costs ignored"


@dataclass(frozen=True)
class CostRow:
    name: str
    params: int
    flops: int

    def __post_init__(self):
        if self.params < 0 or self.flops < 0:
            raise ValueError(f"negative cost in row {self.name!r}")


@dataclass(frozen=True)
class CostReport:
    rows: tuple[CostRow, ...]
    input_height: int
    input_width: int
    convention: str = CONVENTION

    @property
    def total_params(self) -> int:
        return sum(r.params for r in self.rows)

    @property
    def total_flops(self) -> int:
        return sum(r.flops for r in self.rows)


def attention_flops(spec: WindowSpec, channels: int, height: int, width: int) -> int:
    """Attention cost of one block at the given resolution, with each
    orientation's window matmuls counted over the padded grid it tiles."""
    if channels < 1 or height < 1 or width < 1:
        raise ValueError("extents must be positive")
    total = 4 * height * width * channels * channels
    for orientation in (HORIZONTAL, VERTICAL):
        g = resolve_geometry(spec, orientation, height, width)
        total += g.padded_h * g.padded_w * channels * g.window_pixels
    return total


def _posbias_flops(config: ModelConfig, height: int, width: int) -> int:
    window_dims = set()
    for i in range(config.num_groups):
        spec = config.spec_for_group(i)
        for orientation in (HORIZONTAL, VERTICAL):
            g = resolve_geometry(spec, orientation, height, width)
            window_dims.add((orientation, g.sh, g.sw))
    per_offset = 2 * POS_HIDDEN + POS_HIDDEN * POS_HIDDEN + POS_HIDDEN * config.num_heads
    return sum((2 * sh - 1) * (2 * sw - 1) * per_offset for _, sh, sw in window_dims)


def _posbias_params(config: ModelConfig) -> int:
    return (
        (2 * POS_HIDDEN + POS_HIDDEN)
        + (POS_HIDDEN * POS_HIDDEN + POS_HIDDEN)
        + (POS_HIDDEN * config.num_heads + config.num_heads)
    )


def model_flops(config: ModelConfig, height: int, width: int) -> CostReport:
    """Per-layer cost report for a full model at a low-quality input
    resolution; super-resolution head stages are charged at the resolution
    they actually run at."""
    if height < 1 or width < 1:
        raise ValueError(f"input resolution must be positive, got {height}x{width}")
    c = config.channels
    hidden = config.mlp_hidden
    area = height * width
    n2 = config.blocks_per_group
    rows: list[CostRow] = [
        CostRow("shallow.conv", 9 * config.in_channels * c + c, 9 * area * config.in_channels * c)
    ]
    for i in range(config.num_groups):
        spec = config.spec_for_group(i)
        attn = attention_flops(spec, c, height, width)
        rows.append(CostRow(f"group{i}.attn", n2 * (4 * c * c + 4 * c), n2 * attn))
        if config.use_lcm:
            rows.append(CostRow(f"group{i}.lcm", n2 * 10 * c, n2 * 9 * area * c))
        rows.append(CostRow(f"group{i}.norm", n2 * 4 * c, 0))
        rows.append(
            CostRow(f"group{i}.mlp", n2 * (2 * c * hidden + hidden + c), n2 * 2 * area * c * hidden)
        )
        rows.append(CostRow(f"group{i}.conv", 9 * c * c + c, 9 * area * c * c))
    rows.append(CostRow("body.conv", 9 * c * c + c, 9 * area * c * c))
    rows.append(CostRow("posbias.net", _posbias_params(config), _posbias_flops(config, height, width)))

    if config.task == TASK_SR:
        hw = config.head_width
        rows.append(CostRow("head.pre", 9 * c * hw + hw, 9 * area * c * hw))
        stage_h, stage_w = height, width
        for s, r in enumerate(config.upsample_stages()):
            cout = hw * r * r
            rows.append(
                CostRow(f"head.up{s}", 9 * hw * cout + cout, 9 * stage_h * stage_w * hw * cout)
            )
            stage_h, stage_w = stage_h * r, stage_w * r
        rows.append(
            CostRow(
                "head.post",
                9 * hw * config.out_channels + config.out_channels,
                9 * stage_h * stage_w * hw * config.out_channels,
            )
        )
    else:
        rows.append(
            CostRow(
                "head.conv",
                9 * c * config.out_channels + config.out_channels,
                9 * area * c * config.out_channels,
            )
        )
    return CostReport(rows=tuple(rows), input_height=height, input_width=width)


def _giga(flops: int) -> str:
    return f"{flops / 1e9:.2f}G"


def _mega(params: int) -> str:
    return f"{params / 1e6:.2f}M"


def report_render(report: CostReport) -> str:
    """Aligned text table with raw counts, G/M units, and a totals row."""
    header = ("layer", "params", "params(M)", "flops", "flops(G)")
    body = [
        (r.name, str(r.params), _mega(r.params), str(r.flops), _giga(r.flops)) for r in report.rows
    ]
    total = (
        "total",
        str(report.total_params),
        _mega(report.total_params),
        str(report.total_flops),
        _giga(report.total_flops),
    )
    widths = [
        max(len(row[i]) for row in [header, *body, total]) for i in range(len(header))
    ]

    def fmt(row):
        name = row[0].ljust(widths[0])
        cells = [row[i].rjust(widths[i]) for i in range(1, len(row))]
        return "  ".join([name, *cells])

    lines = [
        f"cost report @ {report.input_height}x{report.input_width} ({report.convention})",
        fmt(header),
        "-" * (sum(widths) + 2 * (len(widths) - 1)),
    ]
    lines += [fmt(row) for row in body]
    lines.append(fmt(total))
    return "\n".join(lines)
