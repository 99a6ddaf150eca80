"""Model assembly: attention blocks, residual groups, task heads, parameter
initialization/counting, and bit-exact weight serialization.

The graph is: a 3x3 convolution lifts the input image to C channels; a stack
of residual groups (each: blocks_per_group attention blocks, every odd block
shifted, followed by a 3x3 convolution and a group-level residual) plus one
aggregation convolution forms the deep feature, added back to the shallow
feature; a task head reconstructs the output. Super-resolution uses a staged
sub-pixel head (conv to head_width, conv + pixel shuffle per stage, conv to
the output channels); artifact reduction uses a single channel-adjusting
convolution plus a global residual from the input.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import typing
from collections import Counter
from collections.abc import Mapping
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .attention import POS_HIDDEN, rwin_self_attention
from .windowing import WindowSpec

__all__ = [
    "ModelConfig",
    "ConfigError",
    "WeightFormatError",
    "parameter_schema",
    "init_params",
    "count_params",
    "catb_forward",
    "residual_group_forward",
    "cat_forward",
    "save_weights",
    "load_weights",
    "parse_config",
    "parse_config_text",
    "preset_config",
    "PRESET_NAMES",
]


class ConfigError(ValueError):
    """Malformed or inconsistent model configuration."""


class WeightFormatError(ValueError):
    """Malformed, truncated, or mismatching weight file."""


TASK_SR = "sr"
TASK_CAR = "car"


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    ``num_groups`` may be zero for accounting edge cases; building or running
    an actual model requires at least one group.
    """

    task: str
    channels: int
    num_groups: int
    blocks_per_group: int
    num_heads: int
    mlp_ratio: float
    window_kind: str  # "regular" | "axial"
    scale: int = 1
    in_channels: int = 3
    out_channels: int = 3
    window_height: int = 0
    window_width: int = 0
    axial_lengths: tuple[int, ...] = ()
    use_lcm: bool = True
    head_width: int = 64

    def __post_init__(self):
        if self.task not in (TASK_SR, TASK_CAR):
            raise ConfigError(f"unknown task {self.task!r}")
        if self.task == TASK_SR and self.scale not in (2, 3, 4):
            raise ConfigError(f"super-resolution scale must be 2, 3, or 4, got {self.scale}")
        if self.channels < 1 or self.num_groups < 0 or self.blocks_per_group < 1:
            raise ConfigError("channels and blocks_per_group must be positive")
        if self.num_heads < 2 or self.num_heads % 2 != 0:
            raise ConfigError(f"head count must be even and >= 2, got {self.num_heads}")
        if self.channels % self.num_heads != 0:
            raise ConfigError(f"channels {self.channels} not divisible by {self.num_heads} heads")
        if not math.isfinite(self.mlp_ratio) or self.mlp_ratio <= 0:
            raise ConfigError(f"mlp_ratio must be positive and finite, got {self.mlp_ratio}")
        if self.mlp_hidden < 1:
            raise ConfigError(
                f"mlp_ratio {self.mlp_ratio:g} gives an MLP hidden width of {self.mlp_hidden} "
                f"for {self.channels} channels; it must be >= 1"
            )
        if self.head_width < 1 or self.in_channels < 1 or self.out_channels < 1:
            raise ConfigError("channel counts must be positive")
        if self.window_kind == "regular":
            if self.window_height < 1 or self.window_width < 1:
                raise ConfigError("regular windows need window_height and window_width >= 1")
        elif self.window_kind == "axial":
            if len(self.axial_lengths) != self.num_groups:
                raise ConfigError(
                    f"axial_lengths has {len(self.axial_lengths)} entries for "
                    f"{self.num_groups} groups"
                )
            if any(s < 1 for s in self.axial_lengths):
                raise ConfigError("axial lengths must be >= 1")
        else:
            raise ConfigError(f"unknown window kind {self.window_kind!r}")
        unused = ("axial_lengths",) if self.window_kind == "regular" else ("window_height", "window_width")
        if self.task == TASK_CAR:
            unused += ("scale", "head_width")
        for name in unused:
            value = getattr(self, name)
            if value != self.__dataclass_fields__[name].default:
                raise ConfigError(
                    f"{self.task} models with {self.window_kind} windows do not use key {name!r} "
                    f"(set to {value!r})"
                )

    @property
    def mlp_hidden(self) -> int:
        return int(round(self.mlp_ratio * self.channels))

    def spec_for_group(self, group: int) -> WindowSpec:
        if self.window_kind == "regular":
            return WindowSpec.regular(self.window_height, self.window_width)
        return WindowSpec.axial(self.axial_lengths[group])

    def upsample_stages(self) -> tuple[int, ...]:
        if self.task != TASK_SR:
            return ()
        return {2: (2,), 3: (3,), 4: (2, 2)}[self.scale]


# ---------------------------------------------------------------------------
# Parameter schema
# ---------------------------------------------------------------------------

_NORMAL, _ZEROS, _ONES = "normal", "zeros", "ones"


def parameter_schema(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Every parameter the model owns: (name, shape, init kind)."""
    c = config.channels
    hidden = config.mlp_hidden
    schema: list[tuple[str, tuple[int, ...], str]] = [
        ("shallow.conv.weight", (3, 3, config.in_channels, c), _NORMAL),
        ("shallow.conv.bias", (c,), _ZEROS),
        ("posbias.fc1.weight", (2, POS_HIDDEN), _NORMAL),
        ("posbias.fc1.bias", (POS_HIDDEN,), _ZEROS),
        ("posbias.fc2.weight", (POS_HIDDEN, POS_HIDDEN), _NORMAL),
        ("posbias.fc2.bias", (POS_HIDDEN,), _ZEROS),
        ("posbias.fc3.weight", (POS_HIDDEN, config.num_heads), _NORMAL),
        ("posbias.fc3.bias", (config.num_heads,), _ZEROS),
    ]
    for i in range(config.num_groups):
        for j in range(config.blocks_per_group):
            p = f"body.group{i}.block{j}"
            schema += [
                (f"{p}.norm1.gamma", (c,), _ONES),
                (f"{p}.norm1.beta", (c,), _ZEROS),
                (f"{p}.attn.qkv.weight", (c, 3 * c), _NORMAL),
                (f"{p}.attn.qkv.bias", (3 * c,), _ZEROS),
                (f"{p}.attn.proj.weight", (c, c), _NORMAL),
                (f"{p}.attn.proj.bias", (c,), _ZEROS),
            ]
            if config.use_lcm:
                schema += [
                    (f"{p}.attn.lcm.weight", (3, 3, c, 1), _NORMAL),
                    (f"{p}.attn.lcm.bias", (c,), _ZEROS),
                ]
            schema += [
                (f"{p}.norm2.gamma", (c,), _ONES),
                (f"{p}.norm2.beta", (c,), _ZEROS),
                (f"{p}.mlp.fc1.weight", (c, hidden), _NORMAL),
                (f"{p}.mlp.fc1.bias", (hidden,), _ZEROS),
                (f"{p}.mlp.fc2.weight", (hidden, c), _NORMAL),
                (f"{p}.mlp.fc2.bias", (c,), _ZEROS),
            ]
        schema += [
            (f"body.group{i}.conv.weight", (3, 3, c, c), _NORMAL),
            (f"body.group{i}.conv.bias", (c,), _ZEROS),
        ]
    schema += [
        ("body.conv.weight", (3, 3, c, c), _NORMAL),
        ("body.conv.bias", (c,), _ZEROS),
    ]
    if config.task == TASK_SR:
        hw = config.head_width
        schema += [
            ("head.pre.weight", (3, 3, c, hw), _NORMAL),
            ("head.pre.bias", (hw,), _ZEROS),
        ]
        for s, r in enumerate(config.upsample_stages()):
            schema += [
                (f"head.up{s}.weight", (3, 3, hw, hw * r * r), _NORMAL),
                (f"head.up{s}.bias", (hw * r * r,), _ZEROS),
            ]
        schema += [
            ("head.post.weight", (3, 3, hw, config.out_channels), _NORMAL),
            ("head.post.bias", (config.out_channels,), _ZEROS),
        ]
    else:
        schema += [
            ("head.conv.weight", (3, 3, c, config.out_channels), _NORMAL),
            ("head.conv.bias", (config.out_channels,), _ZEROS),
        ]
    return schema


def count_params(config: ModelConfig) -> int:
    """Analytic parameter count; equals the materialized store total exactly."""
    total = 0
    for _, shape, _ in parameter_schema(config):
        total += int(np.prod(shape))
    return total


INIT_STD = 0.02
INIT_BOUND = 2.0  # truncation at +- INIT_BOUND * INIT_STD


def _named_rng(seed: int, name: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))


def _trunc_normal(rng: np.random.Generator, shape, dtype) -> np.ndarray:
    limit = INIT_BOUND * INIT_STD
    out = rng.normal(0.0, INIT_STD, size=shape)
    bad = np.abs(out) > limit
    while bad.any():
        out[bad] = rng.normal(0.0, INIT_STD, size=int(bad.sum()))
        bad = np.abs(out) > limit
    return out.astype(dtype)


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> dict[str, Tensor]:
    """Deterministic initialization, in schema order: each tensor is drawn
    from its own name-keyed generator, so the result depends on (config,
    seed) only."""
    if config.num_groups < 1:
        raise ConfigError("a runnable model needs at least one residual group")
    entries: dict[str, Tensor] = {}
    for name, shape, kind in parameter_schema(config):
        if kind == _NORMAL:
            data = _trunc_normal(_named_rng(seed, name), shape, dtype)
        elif kind == _ONES:
            data = np.ones(shape, dtype=dtype)
        else:
            data = np.zeros(shape, dtype=dtype)
        entries[name] = Tensor(data, dtype=dtype)
    return entries


# ---------------------------------------------------------------------------
# Forward graph
# ---------------------------------------------------------------------------


def catb_forward(
    x: Tensor,
    store: Mapping[str, Tensor],
    prefix: str,
    spec: WindowSpec,
    shifted: bool,
    cache: dict | None = None,
) -> Tensor:
    """One attention block, its tensors read from ``store`` under ``prefix``
    (e.g. ``body.group0.block1``): ``x + proj(attn + lcm)``, attention on
    LN1(x), then ``x + fc2(gelu(fc1(ln2(x))))``. Untaped, the tail is two
    band passes (``ad._bands``) that add each residual a band at a time."""
    # The LN1 output is passed unnamed, so that attention can free it once
    # window attention, its last reader, returns.
    norm1 = (store[f"{prefix}.norm1.gamma"], store[f"{prefix}.norm1.beta"])
    x = rwin_self_attention(ad.layer_norm(x, *norm1), store, prefix, spec, shifted=shifted, cache=cache, residual=x)
    names = ("norm2.gamma", "norm2.beta", "mlp.fc1.weight", "mlp.fc1.bias", "mlp.fc2.weight", "mlp.fc2.bias")
    return _mlp(x, *(store[f"{prefix}.{name}"] for name in names))


def _mlp(x: Tensor, gamma: Tensor, beta: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """x + fc2(GELU(fc1(LN(x)))) through ``ad._bands``: untaped, in bands of
    pixels whose [rows, hidden] map fits WINDOW_CHUNK_BYTES (a band holds
    two such maps, its fc1 output and its GELU output); taped, as one map."""
    def chain(ops, rows):
        return ops.linear(ops.gelu(ops.linear(ops.layer_norm(rows, gamma, beta), w1, b1)), w2, b2)

    return ad._bands((x,), (gamma, beta, w1, b1, w2, b2), w1.shape[1], chain, x)


def residual_group_forward(
    x: Tensor,
    store: Mapping[str, Tensor],
    config: ModelConfig,
    group: int,
    cache: dict | None = None,
) -> Tensor:
    """blocks_per_group attention blocks (odd-indexed ones shifted), a 3x3
    convolution, and a residual from the group input."""
    spec = config.spec_for_group(group)
    # Each block's input is handed over, not kept, so that the block frees it
    # once its attention tail returns (CPython 3.11+ moves call arguments
    # into the callee's frame); block 0's input stays as ``x``.
    y = [x]
    for j in range(config.blocks_per_group):
        prefix = f"body.group{group}.block{j}"
        y.append(catb_forward(y.pop(), store, prefix, spec, shifted=(j % 2 == 1), cache=cache))
    y = ad.conv2d_3x3(y.pop(), store[f"body.group{group}.conv.weight"], store[f"body.group{group}.conv.bias"])
    return ad.add(y, x)


def cat_forward(img: Tensor, store: Mapping[str, Tensor], config: ModelConfig) -> Tensor:
    """Full model: [N, H, W, in_channels] image in [0, 1] to restored output.
    ``store`` must hold exactly the entries of ``parameter_schema(config)``,
    each of its shape and all of one dtype."""
    if config.num_groups < 1:
        raise ConfigError("a runnable model needs at least one residual group")
    if img.ndim != 4 or img.shape[-1] != config.in_channels:
        raise ConfigError(
            f"input shape {img.shape} does not match configured in_channels={config.in_channels}"
        )
    schema = parameter_schema(config)
    _check_names(store, (name for name, _, _ in schema))
    dtype = Counter(store[name].dtype for name, _, _ in schema).most_common(1)[0][0]
    for name, shape, _ in schema:
        if store[name].shape != shape:
            raise WeightFormatError(f"weight '{name}' has shape {store[name].shape}, the config needs {shape}")
        if store[name].dtype != dtype:
            raise WeightFormatError(f"weight '{name}' is {store[name].dtype}, the other weights {dtype}")
    cache: dict = {}
    f0 = ad.conv2d_3x3(img, store["shallow.conv.weight"], store["shallow.conv.bias"])
    y = f0
    for i in range(config.num_groups):
        y = residual_group_forward(y, store, config, i, cache=cache)
    y = ad.conv2d_3x3(y, store["body.conv.weight"], store["body.conv.bias"])
    deep = ad.add(y, f0)

    if config.task == TASK_SR:
        y = ad.conv2d_3x3(deep, store["head.pre.weight"], store["head.pre.bias"])
        for s, r in enumerate(config.upsample_stages()):
            y = ad.conv2d_3x3(y, store[f"head.up{s}.weight"], store[f"head.up{s}.bias"])
            y = ad.pixel_shuffle(y, r)
        return ad.conv2d_3x3(y, store["head.post.weight"], store["head.post.bias"])
    y = ad.conv2d_3x3(deep, store["head.conv.weight"], store["head.conv.bias"])
    return ad.add(y, img)


# ---------------------------------------------------------------------------
# Weight serialization
# ---------------------------------------------------------------------------

_MAGIC = b"CATW"
_VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def save_weights(store: Mapping[str, Tensor], path: str) -> None:
    """Little-endian container: magic, version, count, then per entry the
    name, dtype code (0 = float32, 1 = float64), rank, dims, raw elements,
    each entry written straight from its array."""
    for name, t in store.items():
        if t.dtype not in _DTYPE_CODES:
            raise WeightFormatError(f"unsupported dtype {t.dtype} for '{name}'")
    with open(path, "wb") as f:
        f.write(_MAGIC + struct.pack("<II", _VERSION, len(store)))
        for name, t in store.items():
            raw = name.encode("utf-8")
            code = _DTYPE_CODES[t.dtype]
            f.write(struct.pack("<H", len(raw)) + raw + struct.pack(f"<BB{t.ndim}I", code, t.ndim, *t.shape))
            f.write(np.ascontiguousarray(t.data, dtype=_CODE_DTYPES[code]))


class _Reader:
    """Reads a weight file in order, checking each read against the bytes left."""

    def __init__(self, f):
        self.f, self.size, self.off = f, os.fstat(f.fileno()).st_size, 0

    def take(self, n: int, what: str, dtype: np.dtype | None = None):
        if self.off + n > self.size:
            raise WeightFormatError(f"truncated weight file while reading {what} at offset {self.off}")
        self.off += n
        return self.f.read(n) if dtype is None else np.fromfile(self.f, dtype=dtype, count=n // dtype.itemsize)


def load_weights(path: str, expected_names=None) -> dict[str, Tensor]:
    """Strict load, in file order; with ``expected_names`` given, the file must
    contain exactly those entries (an unknown extra entry is rejected by name)."""
    with open(path, "rb") as f:
        r = _Reader(f)
        if r.take(4, "magic") != _MAGIC:
            raise WeightFormatError("bad magic: not a weight file")
        (version,) = struct.unpack("<I", r.take(4, "version"))
        if version != _VERSION:
            raise WeightFormatError(f"unsupported weight file version {version}")
        (count,) = struct.unpack("<I", r.take(4, "entry count"))
        entries: dict[str, Tensor] = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", r.take(2, "name length"))
            raw = r.take(name_len, "name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise WeightFormatError(f"entry name {raw!r} at offset {r.off - name_len} is not UTF-8") from None
            code, rank = struct.unpack("<BB", r.take(2, f"header of '{name}'"))
            if code not in _CODE_DTYPES:
                raise WeightFormatError(f"unknown dtype code {code} for '{name}'")
            dims = struct.unpack(f"<{rank}I", r.take(4 * rank, f"dims of '{name}'"))
            if any(d < 1 for d in dims):
                raise WeightFormatError(f"non-positive extent in dims {dims} of '{name}'")
            dt = _CODE_DTYPES[code]
            # Exact integer count: a product that wraps in int64 would read the wrong number of bytes.
            data = r.take(math.prod(dims) * dt.itemsize, f"data of '{name}'", dt).reshape(dims)
            if name in entries:
                raise WeightFormatError(f"duplicate entry '{name}'")
            entries[name] = ad._freeze(data.astype(dt.newbyteorder("="), copy=False))
    if r.off != r.size:
        raise WeightFormatError(f"{r.size - r.off} trailing bytes after last entry")
    if expected_names is not None:
        _check_names(entries, expected_names)
    return entries


def _check_names(entries: Mapping[str, Tensor], expected_names) -> None:
    """Reject ``entries`` unless it holds exactly ``expected_names``, naming
    the first unknown extra entry, else the first missing one."""
    expected = set(expected_names)
    extra = sorted(set(entries) - expected)
    if extra:
        raise WeightFormatError(f"unknown extra entry '{extra[0]}'")
    missing = sorted(expected - set(entries))
    if missing:
        raise WeightFormatError(f"missing entry '{missing[0]}'")


# ---------------------------------------------------------------------------
# Config text format
# ---------------------------------------------------------------------------

# One key per ModelConfig field, in field order; the file spells ``window_kind`` as ``window``.
_CONFIG_FIELDS = {("window" if f.name == "window_kind" else f.name): f for f in fields(ModelConfig)}
_FIELD_TYPES = typing.get_type_hints(ModelConfig)
# Keys a task or window kind reads although their fields have defaults.
_REQUIRED_BY = {
    TASK_SR: ("scale",),
    "regular": ("window_height", "window_width"),
    "axial": ("axial_lengths",),
}


def _convert(key: str, kind, value: str):
    if kind is bool:
        if value.lower() not in ("true", "false"):
            raise ConfigError(f"key {key!r}: expected true or false, got {value!r}")
        return value.lower() == "true"
    if kind == tuple[int, ...]:
        return tuple(_convert(key, int, p.strip()) for p in value.split(",") if p.strip())
    try:
        return kind(value)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"key {key!r}: expected {expected}, got {value!r}") from None


def parse_config_text(text: str) -> ModelConfig:
    """Parse `key = value` lines, one key per :class:`ModelConfig` field, each
    value read as its field's type; blank lines and `#` comments are allowed,
    unknown or repeated keys are rejected. Car models default to one input
    and one output channel."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
        raw[key] = value

    required = {name for kind in (raw.get("task"), raw.get("window")) for name in _REQUIRED_BY.get(kind, ())}
    kwargs: dict = {"in_channels": 1, "out_channels": 1} if raw.get("task") == TASK_CAR else {}
    for key, f in _CONFIG_FIELDS.items():
        if key in raw:
            kwargs[f.name] = _convert(key, _FIELD_TYPES[f.name], raw[key])
        elif f.default is MISSING or f.name in required:
            raise ConfigError(f"missing required key {key!r}")
    return ModelConfig(**kwargs)


def parse_config(path: str) -> ModelConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read())


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


def _base_sr(scale: int) -> dict:
    return dict(
        task=TASK_SR,
        scale=scale,
        in_channels=3,
        out_channels=3,
        channels=180,
        num_groups=6,
        blocks_per_group=6,
        num_heads=6,
        mlp_ratio=4.0,
        use_lcm=True,
        head_width=64,
    )


def preset_config(name: str) -> ModelConfig:
    """Named stock configurations (regular/axial windows, SR and artifact
    reduction, plus a tiny trainable-on-a-laptop demo model)."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}")
    if name.startswith("cat_r_x"):
        scale = int(name.removeprefix("cat_r_x"))
        return ModelConfig(window_kind="regular", window_height=4, window_width=16, **_base_sr(scale))
    if name.startswith("cat_a_x"):
        scale = int(name.removeprefix("cat_a_x"))
        return ModelConfig(window_kind="axial", axial_lengths=(2, 2, 2, 4, 4, 4), **_base_sr(scale))
    if name == "cat_a_car":
        return ModelConfig(
            task=TASK_CAR,
            in_channels=1,
            out_channels=1,
            channels=180,
            num_groups=6,
            blocks_per_group=6,
            num_heads=6,
            mlp_ratio=4.0,
            window_kind="axial",
            axial_lengths=(2, 2, 2, 4, 4, 4),
            use_lcm=True,
        )
    # tiny_sr_x2
    return ModelConfig(
        task=TASK_SR,
        scale=2,
        in_channels=3,
        out_channels=3,
        channels=16,
        num_groups=1,
        blocks_per_group=1,
        num_heads=2,
        mlp_ratio=2.0,
        window_kind="regular",
        window_height=2,
        window_width=4,
        use_lcm=True,
        head_width=16,
    )


PRESET_NAMES = (
    "cat_r_x2",
    "cat_r_x3",
    "cat_r_x4",
    "cat_a_x2",
    "cat_a_x3",
    "cat_a_x4",
    "cat_a_car",
    "tiny_sr_x2",
)
