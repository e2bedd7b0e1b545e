"""The SeizureFormer network.

Per channel: slice the lookback series into strided patches, embed each patch
with a bank of parallel 1D convolutions (multiple kernel widths, mean-pooled
per patch, concatenated), project to the working width and add a learnable
positional table, all as one folded linear map.  The stacked (channel, patch)
grid then passes through a shared 2D cross-variable/temporal convolution, a pre-norm multi-head
self-attention encoder applied independently per channel, a
squeeze-and-excitation gate over channels, and finally a flatten + linear +
sigmoid head.  Each of the three enrichment blocks can be ablated: the CNN
embedding falls back to a single linear map per patch, the 2D convolution and
the SE gate fall back to identity.
"""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import kv
from .tensor import (
    Tensor,
    _accum,
    _recording,
    _result,
    conv2d,
    dropout,
    encoder_layer,
    folded_embed,
    matmul,
    mean,
    mul,
    relu,
    reshape,
    sigmoid,
)

LOSS_EPS = 1e-7       # probability clamp so log never sees 0
LAYERNORM_EPS = 1e-5

VARIANT_FULL = "Full Model"
VARIANT_NO_CNN = "w/o CNN Patch Embedding"
VARIANT_NO_SE = "w/o SE Block"
VARIANT_NO_CVT = "w/o Cross-Variable Temporal convolution"
VARIANT_NO_ALL = "w/o All Modules"


@dataclass
class ModelConfig:
    lookback: int = 30
    channels: int = 2
    patch_length: int = 4
    stride: int = 2
    kernel_sizes: tuple[int, ...] = (3, 5, 7)
    embed_features: int = 16   # per-kernel feature count; all kernels equal
    embed_dim: int = 32
    heads: int = 2
    encoder_layers: int = 2
    ffn_dim: int = 128
    dropout_rate: float = 0.2
    cvt_kernel: tuple[int, int] = (3, 3)
    se_reduction: int | None = None  # None -> max(2, channels)
    use_cnn_embed: bool = True
    use_cvt: bool = True
    use_se: bool = True

    def __post_init__(self):
        if self.se_reduction is None:
            self.se_reduction = max(2, self.channels)
        self.kernel_sizes = tuple(int(k) for k in self.kernel_sizes)
        self.cvt_kernel = tuple(int(k) for k in self.cvt_kernel)

    @classmethod
    def reference_preset(cls, **overrides) -> "ModelConfig":
        """Full-scale reference configuration (the plain defaults are laptop-sized)."""
        base = dict(embed_dim=128, encoder_layers=3, heads=2, ffn_dim=1024, dropout_rate=0.2)
        base.update(overrides)
        return cls(**base)

    @property
    def patch_count(self) -> int:
        return (self.lookback - self.patch_length) // self.stride + 1

    @property
    def embed_width(self) -> int:
        """d' = total feature width after the multi-kernel embedding."""
        return len(self.kernel_sizes) * self.embed_features

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.heads

    @property
    def flat_dim(self) -> int:
        return self.channels * self.patch_count * self.embed_dim

    def validate(self) -> None:
        if self.patch_length > self.lookback:
            raise ValueError(f"patch_length {self.patch_length} exceeds lookback {self.lookback}")
        if self.patch_length < 1 or self.stride < 1:
            raise ValueError("patch_length and stride must be >= 1")
        if self.channels < 1:
            raise ValueError("need at least one channel")
        for key in ("embed_dim", "heads"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if self.embed_dim % self.heads != 0:
            raise ValueError(f"embed_dim {self.embed_dim} must divide evenly into {self.heads} heads")
        if not self.kernel_sizes or any(k < 1 for k in self.kernel_sizes):
            raise ValueError("kernel_sizes must be positive")
        if self.embed_features < 1 or self.ffn_dim < 1 or self.encoder_layers < 1:
            raise ValueError("embed_features, ffn_dim, encoder_layers must be >= 1")
        if len(self.cvt_kernel) != 2 or any(k < 1 or k % 2 == 0 for k in self.cvt_kernel):
            raise ValueError(f"cvt_kernel extents must be odd and positive, got {self.cvt_kernel}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.se_reduction < 1:
            raise ValueError("se_reduction must be >= 1")

    @property
    def variant(self) -> str:
        if self.use_cnn_embed and self.use_cvt and self.use_se:
            return VARIANT_FULL
        if not (self.use_cnn_embed or self.use_cvt or self.use_se):
            return VARIANT_NO_ALL
        if not self.use_cnn_embed:
            return VARIANT_NO_CNN
        if not self.use_se:
            return VARIANT_NO_SE
        return VARIANT_NO_CVT


def _uniform(rng: np.random.Generator | None, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return np.zeros(shape) if rng is None else rng.uniform(-bound, bound, size=shape)


def init_params(cfg: ModelConfig, rng: np.random.Generator | None) -> dict[str, Tensor]:
    """Draw all learnable weights in a fixed order so seeds reproduce runs.

    Weight matrices and kernels start uniform(-1/sqrt(fan_in), +1/sqrt(fan_in));
    the positional table and every bias start at zero.  With no generator every weight
    is zero too: the names, shapes and order alone, which ``load_checkpoint`` reads against.
    """
    cfg.validate()
    p: dict[str, Tensor] = {}

    def param(name: str, values: np.ndarray) -> None:
        p[name] = Tensor(values, requires_grad=True)

    if cfg.use_cnn_embed:
        for i, k in enumerate(cfg.kernel_sizes):
            param(f"embed.conv{i}.weight", _uniform(rng, (cfg.embed_features, k), k))
            param(f"embed.conv{i}.bias", np.zeros(cfg.embed_features))
    else:
        param("embed.linear.weight", _uniform(rng, (cfg.patch_length, cfg.embed_width), cfg.patch_length))

    param("proj.weight", _uniform(rng, (cfg.embed_width, cfg.embed_dim), cfg.embed_width))
    param("proj.pos", np.zeros((cfg.patch_count, cfg.embed_dim)))

    if cfg.use_cvt:
        kd, kp = cfg.cvt_kernel
        param("cvt.kernel", _uniform(rng, (kd, kp), kd * kp))

    d, dk = cfg.embed_dim, cfg.head_dim
    for layer in range(cfg.encoder_layers):
        base = f"encoder{layer}"
        param(f"{base}.ln1.gamma", np.ones(d))
        param(f"{base}.ln1.beta", np.zeros(d))
        for j in range(cfg.heads):
            param(f"{base}.attn.head{j}.wq", _uniform(rng, (d, dk), d))
            param(f"{base}.attn.head{j}.wk", _uniform(rng, (d, dk), d))
            param(f"{base}.attn.head{j}.wv", _uniform(rng, (d, dk), d))
        param(f"{base}.attn.wo", _uniform(rng, (cfg.heads * dk, d), cfg.heads * dk))
        param(f"{base}.ln2.gamma", np.ones(d))
        param(f"{base}.ln2.beta", np.zeros(d))
        param(f"{base}.ffn.w1", _uniform(rng, (d, cfg.ffn_dim), d))
        param(f"{base}.ffn.b1", np.zeros(cfg.ffn_dim))
        param(f"{base}.ffn.w2", _uniform(rng, (cfg.ffn_dim, d), cfg.ffn_dim))
        param(f"{base}.ffn.b2", np.zeros(d))

    if cfg.use_se:
        param("se.w1", _uniform(rng, (cfg.channels, cfg.se_reduction), cfg.channels))
        param("se.w2", _uniform(rng, (cfg.se_reduction, cfg.channels), cfg.se_reduction))

    param("head.weight", _uniform(rng, (cfg.flat_dim, 1), cfg.flat_dim))
    param("head.bias", np.zeros(1))
    return p


# -- stages -----------------------------------------------------------------


def patchify(x: Tensor, patch_length: int, stride: int) -> Tensor:
    """Slice the last axis into overlapping patches: (..., N) -> (..., p, P), forward only.

    The model's input never requires a gradient, so, like ``conv1d``, recording a
    graph through it raises rather than leave a gradient silently zero.  One index
    gather copies the patches, in half the time a strided window view's copy took (2 vCPUs)."""
    if _recording.get() and x.requires_grad:
        raise ValueError("patchify is forward-only: call it under no_grad() or on a tensor that does not require gradients")
    n = x.shape[-1]
    if patch_length > n:
        raise ValueError(f"patch_length {patch_length} exceeds series length {n}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    count = (n - patch_length) // stride + 1
    return _result(x.data[..., stride * np.arange(count)[:, None] + np.arange(patch_length)], (), None)


def _mean_band(length: int, k: int) -> np.ndarray:
    """(length, k) map from a k-tap kernel to its same-padded response mean-pooled
    over ``length`` positions: input t meets tap j at output t - j + (k - 1) // 2."""
    out_pos = np.arange(length)[:, None] - np.arange(k)[None, :] + (k - 1) // 2
    return ((out_pos >= 0) & (out_pos < length)) / length


def embed_patches(patches: Tensor, cfg: ModelConfig, params: dict[str, Tensor]) -> Tensor:
    """Patch embedding, projection and positional table: (..., p, P) -> (..., p, D).

    Each kernel runs same-padded over the patch positions and is mean-pooled back
    to one feature vector per patch; the banks concatenate, project to D and add
    ``proj.pos`` (w/o CNN, ``embed.linear.weight`` maps each patch instead).  No
    nonlinearity sits in between, so this runs as one (P, D) map plus a constant.
    """
    if cfg.use_cnn_embed:
        banks = [(params[f"embed.conv{i}.weight"], _mean_band(cfg.patch_length, k))
                 for i, k in enumerate(cfg.kernel_sizes)]
        biases = [params[f"embed.conv{i}.bias"] for i in range(len(cfg.kernel_sizes))]
    else:
        banks, biases = [(params["embed.linear.weight"], None)], []
    return folded_embed(patches, banks, biases, params["proj.weight"], params["proj.pos"])


def mhsa_encoder(
    x: Tensor,
    cfg: ModelConfig,
    params: dict[str, Tensor],
    training: bool = False,
    rng: np.random.Generator | None = None,
    attn_sink: list[Tensor] | None = None,
) -> Tensor:
    """Pre-norm transformer encoder over the patch axis: (N, p, D) -> same.

    The N rows are independent sequences (one per sample-channel); each layer
    is one ``encoder_layer`` op.  When ``attn_sink`` is given, every layer/head's
    softmax matrix is appended to it, layer-major.
    """
    for layer in range(cfg.encoder_layers):
        base = f"encoder{layer}"
        x = encoder_layer(
            x, (params[f"{base}.ln1.gamma"], params[f"{base}.ln1.beta"]),
            [tuple(params[f"{base}.attn.head{j}.{w}"] for w in ("wq", "wk", "wv")) for j in range(cfg.heads)],
            params[f"{base}.attn.wo"], (params[f"{base}.ln2.gamma"], params[f"{base}.ln2.beta"]),
            tuple(params[f"{base}.ffn.{w}"] for w in ("w1", "b1", "w2", "b2")),
            LAYERNORM_EPS, cfg.dropout_rate, training, rng, attn_sink,
        )
    return x


def se_recalibrate(x: Tensor, w1: Tensor, w2: Tensor) -> tuple[Tensor, Tensor]:
    """Pool each channel over (patch, feature), gate it, rescale: returns
    the recalibrated tensor and the (batch, channel) gates."""
    pooled = mean(x, axes=(-2, -1))  # (..., channels)
    gates = sigmoid(matmul(relu(matmul(pooled, w1)), w2))
    scaled = mul(x, reshape(gates, gates.shape + (1, 1)))
    return scaled, gates


def predict_head(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    dropout_rate: float,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Flatten (batch, channel, patch, feature) row-major and squash to (0,1)."""
    batch = x.shape[0]
    flat = reshape(x, (batch, int(np.prod(x.shape[1:]))))
    flat = dropout(flat, dropout_rate, training, rng)
    return sigmoid(matmul(flat, weight, bias))


def forward(
    x: np.ndarray,
    cfg: ModelConfig,
    params: dict[str, Tensor],
    training: bool = False,
    rng: np.random.Generator | None = None,
    attn_sink: list[Tensor] | None = None,
) -> Tensor:
    """Full network over a (batch, channels, lookback) array -> (batch, 1)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3 or x.shape[1:] != (cfg.channels, cfg.lookback) or not len(x):
        raise ValueError(f"expected batch of shape (B, {cfg.channels}, {cfg.lookback}) with B >= 1, got {x.shape}")
    batch = x.shape[0]

    patches = patchify(Tensor(x), cfg.patch_length, cfg.stride)  # (B, d, p, P)
    grid = embed_patches(patches, cfg, params)  # (B, d, p, D)
    if cfg.use_cvt:
        grid = conv2d(grid, params["cvt.kernel"])  # shared over the (channel, patch) grid

    stacked = reshape(grid, (batch * cfg.channels, cfg.patch_count, cfg.embed_dim))
    encoded = mhsa_encoder(stacked, cfg, params, training, rng, attn_sink)
    grid = reshape(encoded, (batch, cfg.channels, cfg.patch_count, cfg.embed_dim))

    if cfg.use_se:
        grid, _ = se_recalibrate(grid, params["se.w1"], params["se.w2"])

    return predict_head(grid, params["head.weight"], params["head.bias"], cfg.dropout_rate, training, rng)


def weighted_bce(y_hat: Tensor, y: np.ndarray, pos_weight: float = 1.0) -> Tensor:
    """Mean binary cross-entropy with the positive terms scaled by pos_weight, as one
    graph node: -mean(y * log(p) * pos_weight + (1 - y) * log(1 - p)), where p is
    y_hat clamped to [LOSS_EPS, 1 - LOSS_EPS]; pos_weight=1 recovers the plain mean BCE.
    The grad reaches y_hat only where the clamp passes it through.
    """
    if not math.isfinite(pos_weight):
        raise ValueError(f"pos_weight must be finite, got {pos_weight}")
    if pos_weight <= 0:
        raise ValueError(f"pos_weight must be positive, got {pos_weight}")
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if not y_hat.size:
        raise ValueError(f"weighted_bce needs at least one prediction, got y_hat of shape {y_hat.shape}")
    if y_hat.size != y.size:
        raise ValueError(f"y_hat has {y_hat.size} predictions but y has {y.size} labels")
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be 0 or 1")
    yh = y_hat.data.reshape(-1)
    p = np.clip(yh, LOSS_EPS, 1.0 - LOSS_EPS)
    q, not_y = 1.0 - p, 1.0 - y
    terms = y * np.log(p) * pos_weight
    terms += not_y * np.log(q)

    def vjp(g: np.ndarray) -> None:
        g_terms = np.broadcast_to(-g, yh.shape) / yh.size
        g_p = g_terms * pos_weight * y / p - g_terms * not_y / q  # through log(p), then through log(1 - p)
        _accum(y_hat, (g_p * ((yh >= LOSS_EPS) & (yh <= 1.0 - LOSS_EPS))).reshape(y_hat.data.shape))

    return _result(-terms.mean(axis=0), (y_hat,), vjp)


class SeizureFormer:
    """Config + parameters bundle with the forward pass bound in."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        if rng is None:  # init_params would leave every weight zero
            raise TypeError("SeizureFormer needs a generator to draw its weights")
        self.config = config
        self.params = init_params(config, rng)

    def forward(
        self,
        x: np.ndarray,
        training: bool = False,
        rng: np.random.Generator | None = None,
        attn_sink: list[Tensor] | None = None,
    ) -> Tensor:
        return forward(x, self.config, self.params, training, rng, attn_sink)


# -- checkpoint I/O -----------------------------------------------------------

_CHECKPOINT_MAGIC = "risk-model-checkpoint-v3"

# what a model was trained under besides its config; `eval` must match them and config.lookback
PIPELINE_KEYS = {"label_window": int, "label_fraction": float, "min_history": int, "horizon": int}


def save_checkpoint(path: str | Path, cfg: ModelConfig, params: dict[str, Tensor], pipeline: dict) -> None:
    """Self-describing flat text: pipeline and config lines, then per parameter a
    name/shape line and one base64 line of its little-endian float64 bytes (bit-exact)."""
    lines = [f"format={_CHECKPOINT_MAGIC}"]
    lines += [f"pipeline.{name}={kv.format_value(pipeline[name])}" for name in PIPELINE_KEYS]
    for name in kv.field_types(ModelConfig):
        lines.append(f"config.{name}={kv.format_value(getattr(cfg, name))}")
    for name, t in params.items():
        lines.append(f"param={name} shape={kv.format_value(t.data.shape)}")
        lines.append(base64.b64encode(t.data.astype("<f8").tobytes()).decode("ascii"))
    kv.write_atomic(path, "\n".join(lines) + "\n")


def load_checkpoint(path: str | Path) -> tuple[ModelConfig, dict[str, Tensor], dict]:
    """Inverse of ``save_checkpoint``: (config, parameters, pipeline settings).  The file
    is read against the writer's lines, in the writer's order: the format line, the
    ``PIPELINE_KEYS``, the config fields, then per entry of ``init_params`` its exact
    name/shape line and one values line; then the file must end."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if lines[:1] in (["format=risk-model-checkpoint-v1"], ["format=risk-model-checkpoint-v2"]):
        raise ValueError(f"{path} is a {lines[0][-2:]} checkpoint; retrain the model to write v3")
    at = 0  # lines read so far

    def expect(head: str, tail: str = "") -> str:
        """Read the next line, which must start with ``head`` and, unless ``tail`` names
        what follows it, be nothing else; returns what follows ``head``."""
        nonlocal at
        got = lines[at] if at < len(lines) else None
        at += 1
        if got is None or not got.startswith(head) or not tail and got != head:
            shown = "the end of the file" if got is None else repr(got)
            raise ValueError(f"{path}:{at}: expected {head}{tail}, got {shown}")
        return got[len(head):]

    def header(section: str, kinds: dict[str, type]) -> dict:
        return {key: kv.parse_value(key, expect(f"{section}.{key}=", "<value>"), kind) for key, kind in kinds.items()}

    expect(f"format={_CHECKPOINT_MAGIC}")
    pipeline = header("pipeline", PIPELINE_KEYS)
    cfg = ModelConfig(**header("config", kv.field_types(ModelConfig)))
    params = init_params(cfg, None)  # the writer's names, shapes and order, every value zero
    for name, t in params.items():
        expect(f"param={name} shape={kv.format_value(t.shape)}")
        values = expect("", f"the values of parameter {name!r}")
        try:
            raw = base64.b64decode(values, validate=True)
        except ValueError:  # binascii.Error
            raise ValueError(f"{path}:{at}: values for parameter {name!r} are not valid base64") from None
        if len(raw) != 8 * t.size:
            raise ValueError(f"{path}:{at}: parameter {name!r} has {len(raw)} bytes, needs {8 * t.size}")
        t.data[...] = np.frombuffer(raw, "<f8").reshape(t.shape)
        if not np.isfinite(t.data).all():
            raise ValueError(f"{path}:{at}: parameter {name!r} has a non-finite value")
    if at < len(lines):
        raise ValueError(f"{path}:{at + 1}: expected the end of the file after the last parameter, got {lines[at]!r}")
    return cfg, params, pipeline


def model_from_checkpoint(path: str | Path) -> tuple[SeizureFormer, dict]:
    """The stored model and the pipeline settings it was trained under."""
    cfg, params, pipeline = load_checkpoint(path)
    model = SeizureFormer.__new__(SeizureFormer)
    model.config = cfg
    model.params = params
    return model, pipeline
