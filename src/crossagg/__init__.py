"""Rectangle/axial window attention for image restoration.

A framework-free implementation of a windowed-attention restoration
transformer: horizontal and vertical rectangle windows split across the
attention heads, cyclic axial shifts with wrap masking, a depthwise
convolution complementing attention on the value map, an analytic
FLOPs/parameter analyzer, and a PSNR/SSIM evaluation harness. Everything
runs on a small record-replay gradient tape over numpy.
"""

from .autodiff import (
    AdamState,
    GradientTape,
    GraphError,
    OptimizerHyper,
    ShapeError,
    Tensor,
    adam_step,
    backward,
    conv2d_3x3,
    gelu,
    init_adam_state,
    layer_norm,
    linear,
    matmul,
    pixel_shuffle,
    softmax_lastdim,
)
from .windowing import (
    HORIZONTAL,
    MASK_VALUE,
    VERTICAL,
    WindowGeometry,
    WindowSpec,
    build_shift_mask,
    cyclic_shift,
    merge,
    partition,
    resolve_geometry,
)
from .attention import (
    locality_complement,
    relative_position_bias,
    rwin_self_attention,
)
from .model import (
    ConfigError,
    ModelConfig,
    WeightFormatError,
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
from .analysis import CostReport, CostRow, attention_flops, model_flops, report_render
from .imaging import (
    ImageFormatError,
    ImageU8,
    MetricError,
    bicubic_resize,
    load_image,
    psnr,
    rgb_to_y,
    save_image,
    ssim,
)
from .harness import (
    OverfitResult,
    dihedral_inverse,
    dihedral_transform,
    restore_image,
    run_overfit,
    self_ensemble_infer,
)

__version__ = "0.1.0"
