"""Independent reference implementations used to check the library.

Everything here is written the slow, obvious way (explicit loops, manual
padding, pairwise comparisons) so it shares no code path with the package.
The exceptions are earlier versions of rewritten kernels, kept verbatim as
oracles for their replacements: the per-tap ``conv1d`` and ``conv2d``, the
embed front end composed per kernel from ``conv1d``, ``mean``, ``concat``
and the projection (replaced by the folded ``folded_embed``), the
``concat`` and ``layer_norm`` ops the package no longer calls (the latter
over the fused helpers the encoder uses) and a composed ``layer_norm`` built
from the package's primitive ops, the broadcast ``matmul`` (no weight fold,
no fused bias) with the encoder built from it and ``transpose_last2``, the
``softmax`` op and the graph-level encoder built from it (replaced by the
fused ``encoder_layer``), the recorded ``encoder_layer`` as one pass over
all rows with its one-pass VJP and the accumulating layer-norm VJP
(replaced by row chunks shared with the pool), the record-by-record
``parse_csv`` (replaced by one pass that fills the series' arrays), the per-day
``label_days`` loop, the per-anchor ``make_windows`` loop and the list-based ``split_chronological`` (replaced
by array ops on a ``WindowSet``), the pairwise gap loop over records
(replaced by one diff over ``PatientSeries.dates``), the scalar Poisson
inverse-CDF sampler (replaced by the masked array recurrence), the
dropout keep-mask as one compare-then-divide expression (replaced by draws
compared and scaled in place), and the tie-grouping loops of ``roc_auc`` /
``pr_auc``.  The ops that only the loss, the gradient checks and these
oracles used (``log``, ``clip``, ``sub``, ``neg``, ``power``, ``tsum``, the
last-axis gather ``take_last`` with its scatter VJP, which ``patchify`` ran
through before it became forward-only, and ``mean`` over any axes with
``keepdims``) are kept here, with the composite loss built from them
(replaced by the one-node ``weighted_bce``) and a differentiable ``conv1d`` (the package's forward, the per-tap VJP; the
package's ``conv1d`` is forward-only).  The baseline objectives and their
gradients live here too, since only tests evaluate them, with the
first-order ascents (Barzilai-Borwein logistic, backtracking Poisson) that
the baselines' Newton solver replaced.
"""

import csv
import datetime
import math
from pathlib import Path

import numpy as np

from seizureformer import tensor as T
from seizureformer.data import CSV_HEADER, DailyRecord, DataError, ParseReport, PatientSeries, WindowSample
from seizureformer.model import LOSS_EPS


def naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def naive_conv1d(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None, padding: str) -> np.ndarray:
    """Cross-correlation of a 1-D signal with an (F, k) kernel bank."""
    length = len(x)
    n_feat, k = w.shape
    if padding == "same":
        left, right = (k - 1) // 2, k // 2
    else:
        left = right = 0
    out_len = length + left + right - k + 1
    out = np.zeros((out_len, n_feat))
    for t in range(out_len):
        for f in range(n_feat):
            acc = 0.0
            for j in range(k):
                src = t + j - left
                if 0 <= src < length:
                    acc += x[src] * w[f, j]
            out[t, f] = acc + (bias[f] if bias is not None else 0.0)
    return out


def _conv1d_padding(k: int, padding: str) -> tuple[int, int]:
    return ((k - 1) // 2, k // 2) if padding == "same" else (0, 0)


def per_tap_conv1d(x: np.ndarray, w: np.ndarray, bias: np.ndarray | None, padding: str) -> np.ndarray:
    """conv1d over (..., L) as one broadcast multiply per kernel tap."""
    n_feat, k = w.shape
    left, right = _conv1d_padding(k, padding)
    out_len = x.shape[-1] + left + right - k + 1
    xp = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(left, right)])
    out = np.zeros(x.shape[:-1] + (out_len, n_feat))
    for j in range(k):
        out += xp[..., j : j + out_len, None] * w[:, j]
    if bias is not None:
        out = out + bias
    return out


def per_tap_conv1d_vjp(x: np.ndarray, w: np.ndarray, padding: str, g: np.ndarray):
    """(d_input, d_weight, d_bias) of per_tap_conv1d for upstream gradient g."""
    n_feat, k = w.shape
    length = x.shape[-1]
    left, right = _conv1d_padding(k, padding)
    out_len = length + left + right - k + 1
    xp = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(left, right)])
    g2 = g.reshape(-1, n_feat)
    gw = np.zeros_like(w)
    for j in range(k):
        gw[:, j] = g2.T @ xp[..., j : j + out_len].reshape(-1)
    gxp = np.zeros_like(xp)
    for j in range(k):
        gxp[..., j : j + out_len] += g @ w[:, j]
    return gxp[..., left : left + length], gw, g2.sum(axis=0)


def per_tap_conv2d(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Same-padded conv2d over (..., H, W, D) as one broadcast multiply-add per kernel tap."""
    kh, kw = kernel.shape
    h, w = x.shape[-3], x.shape[-2]
    xp = np.pad(x, [(0, 0)] * (x.ndim - 3) + [(kh // 2, kh // 2), (kw // 2, kw // 2), (0, 0)])
    out = np.zeros_like(x)
    for i in range(kh):
        for j in range(kw):
            out += kernel[i, j] * xp[..., i : i + h, j : j + w, :]
    return out


def per_tap_conv2d_vjp(x: np.ndarray, kernel: np.ndarray, g: np.ndarray):
    """(d_input, d_kernel) of per_tap_conv2d for upstream gradient g."""
    kh, kw = kernel.shape
    h, w = x.shape[-3], x.shape[-2]
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, [(0, 0)] * (x.ndim - 3) + [(ph, ph), (pw, pw), (0, 0)])
    gk = np.zeros_like(kernel)
    gxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            gk[i, j] = np.sum(g * xp[..., i : i + h, j : j + w, :])
            gxp[..., i : i + h, j : j + w, :] += kernel[i, j] * g
    return gxp[..., ph : ph + h, pw : pw + w, :], gk


def sub(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    def vjp(g):
        T._accum(a, T._sum_to_shape(g, a.data.shape))
        T._accum(b, T._sum_to_shape(-g, b.data.shape))

    return T._result(a.data - b.data, (a, b), vjp)


def neg(a: T.Tensor) -> T.Tensor:
    def vjp(g):
        T._accum(a, -g)

    return T._result(-a.data, (a,), vjp)


def tsum(a: T.Tensor) -> T.Tensor:
    """The sum of every element, with the VJP the package's ``tsum`` had."""
    axes = tuple(range(a.ndim))

    def vjp(g):
        for ax in axes:
            g = np.expand_dims(g, ax)
        T._accum(a, np.broadcast_to(g, a.data.shape).copy())

    return T._result(a.data.sum(axis=axes), (a,), vjp)


def log(a: T.Tensor) -> T.Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)

    def vjp(g):
        T._accum(a, g / a.data)

    return T._result(data, (a,), vjp)


def power(a: T.Tensor, exponent: float) -> T.Tensor:
    exponent = float(exponent)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        data = np.power(a.data, exponent)

    def vjp(g):
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            local = exponent * np.power(a.data, exponent - 1.0)
        T._accum(a, g * local)

    return T._result(data, (a,), vjp)


def clip(a: T.Tensor, lo: float, hi: float) -> T.Tensor:
    """Clamp values to [lo, hi]; gradient passes through the interior."""
    def vjp(g):
        T._accum(a, g * ((a.data >= lo) & (a.data <= hi)))

    return T._result(np.clip(a.data, lo, hi), (a,), vjp)


def take_last(a: T.Tensor, idx: np.ndarray) -> T.Tensor:
    """The last-axis gather op as the package had it before ``patchify`` became
    forward-only: output shape is ``a.shape[:-1] + idx.shape``, scatter-add VJP."""
    idx = np.asarray(idx, dtype=np.int64)
    length = a.data.shape[-1]
    if idx.size and (idx.min() < 0 or idx.max() >= length):
        raise ValueError("gather index out of range")
    data = a.data[..., idx]

    def vjp(g):
        if a.requires_grad:
            ga = np.zeros(a.data.shape)  # C-contiguous, so the reshape below is a view
            flat = ga.reshape(-1, length)
            rows = flat.shape[0]
            gb = g.reshape(rows, idx.size)
            np.add.at(flat, (np.arange(rows)[:, None], idx.reshape(-1)[None, :]), gb)
            T._accum(a, ga)

    return T._result(data, (a,), vjp)


def gather_patches(a: T.Tensor, patch_length: int, stride: int) -> T.Tensor:
    """``patchify`` as the package had it: the strided patch indices through ``take_last``."""
    count = (a.shape[-1] - patch_length) // stride + 1
    return take_last(a, stride * np.arange(count)[:, None] + np.arange(patch_length)[None, :])


def _norm_axes(axes, ndim: int) -> tuple:
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    out = []
    for ax in axes:
        if ax < 0:
            ax += ndim
        if not 0 <= ax < ndim:
            raise ValueError(f"axis {ax} out of range for {ndim}-d tensor")
        out.append(ax)
    if len(set(out)) != len(out):
        raise ValueError("duplicate reduction axes")
    return tuple(sorted(out))


def mean(a: T.Tensor, axes=None, keepdims: bool = False) -> T.Tensor:
    """The mean op as the package had it: any axes (all by default), optional ``keepdims``."""
    axes = _norm_axes(axes, a.ndim)
    count = int(np.prod([a.data.shape[ax] for ax in axes])) if axes else 1
    data = a.data.mean(axis=axes, keepdims=keepdims)

    def vjp(g):
        T._accum(a, np.broadcast_to(g if keepdims else np.expand_dims(g, axes), a.data.shape) / count)

    return T._result(data, (a,), vjp)


def composite_weighted_bce(y_hat: T.Tensor, y, pos_weight: float = 1.0) -> T.Tensor:
    """The weighted BCE as the package built it before the one-node loss: an 11-node graph."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    p = clip(T.reshape(y_hat, (y.size,)), LOSS_EPS, 1.0 - LOSS_EPS)
    pos_term = T.mul(T.mul(T.Tensor(y), log(p)), T.Tensor(pos_weight))
    neg_term = T.mul(T.Tensor(1.0 - y), log(sub(T.Tensor(1.0), p)))
    return neg(mean(T.add(pos_term, neg_term)))


def conv1d(a: T.Tensor, weight: T.Tensor, bias: T.Tensor | None = None, padding: str = "same") -> T.Tensor:
    """A differentiable conv1d: the package's forward, then ``per_tap_conv1d_vjp``."""
    with T.no_grad():
        out = T.conv1d(a, weight, bias, padding)

    def vjp(g):
        gx, gw, gb = per_tap_conv1d_vjp(a.data, weight.data, padding, g)
        for t, grad in ((a, gx), (weight, gw), (bias, gb)):
            if t is not None and t.requires_grad:
                T._accum(t, grad)

    return T._result(out.data, (a, weight) if bias is None else (a, weight, bias), vjp)


def concat(tensors, axis: int) -> T.Tensor:
    """The concat op, as the package had it."""
    data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]

    def vjp(g):
        for t, piece in zip(tensors, np.split(g, offsets, axis=axis)):
            T._accum(t, piece)

    return T._result(data, tuple(tensors), vjp)


def composed_embed(patches: T.Tensor, cfg, params: dict) -> T.Tensor:
    """The embed front end as ``model.forward`` composed it before the fold: per
    kernel a same-padded ``conv1d`` mean-pooled over the patch positions, the
    banks concatenated (or the w/o-CNN linear map), then the projection and the
    positional table."""
    if cfg.use_cnn_embed:
        feats = [
            mean(conv1d(patches, params[f"embed.conv{i}.weight"], params[f"embed.conv{i}.bias"]), axes=-2)
            for i in range(len(cfg.kernel_sizes))
        ]
        embedded = concat(feats, axis=-1)
    else:
        embedded = T.matmul(patches, params["embed.linear.weight"])
    return T.add(T.matmul(embedded, params["proj.weight"]), params["proj.pos"])


def layer_norm_vjp(g, xhat, inv, gamma: T.Tensor, beta: T.Tensor) -> np.ndarray:
    """The layer-norm VJP as the package had it before its row sums moved to the caller:
    accumulate the gamma and beta grads, return the (rows, d) input grad
    inv * (dxh - mean(dxh) - xh * mean(dxh * xh)), dxh = g * gamma, row means as GEMVs."""
    d = xhat.shape[-1]
    g, xhat, inv = g.reshape(-1, d), xhat.reshape(-1, d), inv.reshape(-1, 1)
    gx = g * xhat
    T._accum(gamma, gx.sum(axis=0))
    T._accum(beta, g.sum(axis=0))
    gx *= gamma.data  # dxh * xh
    row_mean = np.full((d, 1), 1.0 / d)
    dxhat = g * gamma.data
    np.multiply(xhat, gx @ row_mean, out=gx)
    gx += dxhat @ row_mean
    np.subtract(dxhat, gx, out=dxhat)
    dxhat *= inv
    return dxhat


def layer_norm(x: T.Tensor, gamma: T.Tensor, beta: T.Tensor, eps: float) -> T.Tensor:
    """The layer_norm op, as the package had it: one node over the fused forward
    that ``encoder_layer`` runs and ``layer_norm_vjp``."""
    data, xhat, inv = T._layer_norm_fwd(x.data, gamma.data, beta.data, eps)

    def vjp(g):
        T._accum(x, layer_norm_vjp(g, xhat, inv, gamma, beta).reshape(x.data.shape))

    return T._result(data, (x, gamma, beta), vjp)


def composed_layer_norm(x: T.Tensor, gamma: T.Tensor, beta: T.Tensor, eps: float) -> T.Tensor:
    """Layer norm over the last axis as a graph of primitive ops."""
    mu = mean(x, axes=-1, keepdims=True)
    centered = sub(x, mu)
    var = mean(T.mul(centered, centered), axes=-1, keepdims=True)
    return T.add(T.mul(T.mul(centered, power(T.add(var, T.Tensor(eps)), -0.5)), gamma), beta)


def _sum_to_shape(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def broadcast_matmul_vjp(a: np.ndarray, b: np.ndarray, g: np.ndarray):
    """(d_a, d_b) of np.matmul(a, b) as batched products reduced over broadcast axes."""
    ga = np.matmul(g, np.swapaxes(b, -1, -2))
    gb = np.matmul(np.swapaxes(a, -1, -2), g)
    return _sum_to_shape(ga, a.shape), _sum_to_shape(gb, b.shape)


def broadcast_matmul(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    """The matmul op before the weight fold: np.matmul forward, broadcast VJP."""

    def vjp(g):
        ga, gb = broadcast_matmul_vjp(a.data, b.data, g)
        if a.requires_grad:
            T._accum(a, ga)
        if b.requires_grad:
            T._accum(b, gb)

    return T._result(np.matmul(a.data, b.data), (a, b), vjp)


def transpose_last2(a: T.Tensor) -> T.Tensor:
    def vjp(g):
        if a.requires_grad:
            T._accum(a, np.swapaxes(g, -1, -2))

    return T._result(np.swapaxes(a.data, -1, -2), (a,), vjp)


def softmax(a: T.Tensor) -> T.Tensor:
    """The softmax op over the last axis (max-subtraction), as the package had it."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        if a.requires_grad:
            inner = (g * data).sum(axis=-1, keepdims=True)
            T._accum(a, data * (g - inner))

    return T._result(data, (a,), vjp)


def keep_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    """Training-mode inverted-dropout multipliers, 0 or 1/(1-rate), from the draws ``tensor._keep_mask`` makes."""
    return (rng.random(shape) >= rate) / (1.0 - rate)


def per_head_mhsa_encoder(x: T.Tensor, cfg, params: dict) -> T.Tensor:
    """The eval-mode encoder built from ``broadcast_matmul``, ``transpose_last2``,
    the composed layer norm and separate bias adds."""
    scale = 1.0 / math.sqrt(cfg.head_dim)
    for layer in range(cfg.encoder_layers):
        base = f"encoder{layer}"
        normed = composed_layer_norm(x, params[f"{base}.ln1.gamma"], params[f"{base}.ln1.beta"], 1e-5)
        head_outs = []
        for j in range(cfg.heads):
            q = broadcast_matmul(normed, params[f"{base}.attn.head{j}.wq"])
            k = broadcast_matmul(normed, params[f"{base}.attn.head{j}.wk"])
            v = broadcast_matmul(normed, params[f"{base}.attn.head{j}.wv"])
            attn = softmax(T.mul(broadcast_matmul(q, transpose_last2(k)), T.Tensor(scale)))
            head_outs.append(broadcast_matmul(attn, v))
        x = T.add(x, broadcast_matmul(concat(head_outs, axis=-1), params[f"{base}.attn.wo"]))
        normed = composed_layer_norm(x, params[f"{base}.ln2.gamma"], params[f"{base}.ln2.beta"], 1e-5)
        hidden = T.relu(T.add(broadcast_matmul(normed, params[f"{base}.ffn.w1"]), params[f"{base}.ffn.b1"]))
        x = T.add(x, T.add(broadcast_matmul(hidden, params[f"{base}.ffn.w2"]), params[f"{base}.ffn.b2"]))
    return x


def graph_mhsa_encoder(x: T.Tensor, cfg, params: dict, training=False, rng=None, attn_sink=None) -> T.Tensor:
    """The encoder as a graph of the package's ops, one node per matmul, softmax,
    dropout and residual add, exactly as ``model.mhsa_encoder`` was built; the
    batched products are ``broadcast_matmul`` over ``transpose_last2``."""
    scale = 1.0 / math.sqrt(cfg.head_dim)
    for layer in range(cfg.encoder_layers):
        base = f"encoder{layer}"
        normed = layer_norm(x, params[f"{base}.ln1.gamma"], params[f"{base}.ln1.beta"], 1e-5)
        head_outs = []
        for j in range(cfg.heads):
            q = T.matmul(normed, params[f"{base}.attn.head{j}.wq"])
            k = T.matmul(normed, params[f"{base}.attn.head{j}.wk"])
            v = T.matmul(normed, params[f"{base}.attn.head{j}.wv"])
            attn = softmax(T.mul(broadcast_matmul(q, transpose_last2(k)), T.Tensor(scale)))
            if attn_sink is not None:
                attn_sink.append(attn)
            head_outs.append(broadcast_matmul(attn, v))
        attended = T.matmul(concat(head_outs, axis=-1), params[f"{base}.attn.wo"])
        x = T.add(x, T.dropout(attended, cfg.dropout_rate, training, rng))
        normed = layer_norm(x, params[f"{base}.ln2.gamma"], params[f"{base}.ln2.beta"], 1e-5)
        hidden = T.relu(T.add(T.matmul(normed, params[f"{base}.ffn.w1"]), params[f"{base}.ffn.b1"]))
        ff = T.matmul(hidden, params[f"{base}.ffn.w2"], params[f"{base}.ffn.b2"])
        x = T.add(x, T.dropout(ff, cfg.dropout_rate, training, rng))
    return x


def one_shot_encoder_layer(x: T.Tensor, ln1, heads, wo: T.Tensor, ln2, ffn, eps: float, dropout_rate: float,
                           training: bool = False, rng=None, attn_sink=None) -> T.Tensor:
    """The recorded ``encoder_layer`` as the package had it before it ran in row chunks:
    one forward pass over all rows, then the closed-form VJP over all rows, summing each
    grad as it is made."""
    n, p, d = x.data.shape
    h, dk = len(heads), d // len(heads)
    w1, b1, w2, b2 = ffn
    weights = [w for group in zip(*heads) for w in group]  # every wq, then every wk, then every wv
    wqkv = np.concatenate([w.data for w in weights], axis=1)
    scale = 1.0 / np.sqrt(dk)
    parents = (x, *ln1, *weights, wo, *ln2, *ffn)
    keep1, keep2 = (keep_mask((n * p, d), dropout_rate, rng) if training and dropout_rate else None for _ in range(2))
    out = np.empty((n * p, d))

    xs = x.data.reshape(-1, d)
    n1, xhat1, inv1 = T._layer_norm_fwd(xs, ln1[0].data, ln1[1].data, eps)
    q, k, v = (n1 @ wqkv).reshape(-1, p, 3, h, dk).transpose(2, 0, 3, 1, 4)
    attn = np.matmul(q, k.swapaxes(-1, -2))  # (n, h, p, p); the softmax runs in place
    attn *= scale
    amax = attn[..., :1].copy()  # row max as p-1 elementwise maxima; numpy's short-axis max is slow
    for j in range(1, p):
        np.maximum(amax, attn[..., j : j + 1], out=amax)
    attn -= amax
    np.exp(attn, out=attn)
    attn /= attn.sum(axis=-1, keepdims=True)
    ctx = np.matmul(attn, v).transpose(0, 2, 1, 3).reshape(-1, d)
    x1 = ctx @ wo.data
    if keep1 is not None:
        x1 *= keep1
    x1 += xs
    n2, xhat2, inv2 = T._layer_norm_fwd(x1, ln2[0].data, ln2[1].data, eps)
    hidden = n2 @ w1.data
    hidden += b1.data
    np.maximum(hidden, 0.0, out=hidden)
    y = np.matmul(hidden, w2.data, out=out)
    y += b2.data
    if keep2 is not None:
        y *= keep2
    y += x1
    if attn_sink is not None:
        attn_sink.extend(T.Tensor(attn[:, j]) for j in range(h))

    def vjp(g):
        g = g.reshape(-1, d)
        gff = g if keep2 is None else g * keep2
        T._accum(b2, np.sum(gff, 0))
        T._accum(w2, hidden.T @ gff)
        ghid = gff @ w2.data.T
        ghid *= hidden > 0
        T._accum(b1, np.sum(ghid, 0))
        T._accum(w1, n2.T @ ghid)
        gx1 = layer_norm_vjp(ghid @ w1.data.T, xhat2, inv2, *ln2)
        gx1 += g
        gatt = gx1 if keep1 is None else gx1 * keep1
        T._accum(wo, ctx.T @ gatt)
        gctx = (gatt @ wo.data.T).reshape(n, p, h, dk).transpose(0, 2, 1, 3)
        gqkv = np.empty((n, p, 3, h, dk))
        gq, gk, gv = gqkv.transpose(2, 0, 3, 1, 4)
        np.matmul(attn.swapaxes(-1, -2), gctx, out=gv)
        gs = np.matmul(gctx, v.swapaxes(-1, -2))  # softmax VJP: s * (g - sum(g * s)) * scale
        gs -= (gs * attn).sum(axis=-1, keepdims=True)
        gs *= attn
        gs *= scale
        np.matmul(gs, k, out=gq)
        np.matmul(gs.swapaxes(-1, -2), q, out=gk)
        gqkv = gqkv.reshape(-1, 3 * d)
        T._accum_split(weights, n1.T @ gqkv)
        gx = layer_norm_vjp(gqkv @ wqkv.T, xhat1, inv1, *ln1)
        gx += gx1
        T._accum(x, gx.reshape(x.data.shape))

    return T._result(out.reshape(n, p, d), parents, vjp)


def record_parse_csv(path, patient_id=None) -> tuple:
    """The canonical CSV read one validated ``DailyRecord`` per row, sorted, then checked as a series."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise DataError(f"{path}: expected header {','.join(CSV_HEADER)}, got {','.join(header)}")
        records = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise DataError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:  # DailyRecord's own DataError (a negative count) is a ValueError too
                records.append(DailyRecord(datetime.date.fromisoformat(row[0].strip()), *(int(v) for v in row[1:])))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None

    ordered = sorted(records, key=lambda r: r.date)
    try:
        series = PatientSeries(patient_id or path.stem, ordered)
    except DataError as exc:  # once sorted, only a repeated date breaks the order
        raise DataError(f"{path}: duplicate date ({exc})") from None
    return series, ParseReport(reordered=ordered != records, gaps=pairwise_gaps(ordered))


def loop_label_days(le: np.ndarray, window: int, fraction: float, min_history: int) -> np.ndarray:
    """Per-day labels: 1 iff le[i] > fraction * mean of the prior window, -1 before min_history."""
    le = np.asarray(le, dtype=np.float64)
    labels = np.full(len(le), -1, dtype=np.int8)
    for i in range(len(le)):
        if i < min_history:
            continue
        history = le[max(0, i - window) : i]
        threshold = fraction * history.mean()
        labels[i] = 1 if le[i] > threshold else 0
    return labels


def loop_make_windows(normalized, labels, lookback: int, horizon: int) -> list:
    """Per-anchor window loop: one ``WindowSample`` and one copied matrix per kept window."""
    total = len(normalized.dates)
    if total < lookback + horizon:
        raise DataError(f"series of {total} days is shorter than lookback+horizon={lookback + horizon}")
    dates = normalized.dates.tolist()
    le = labels.le_counts
    samples = []
    for i in range(lookback - 1, total - horizon):
        start = i - lookback + 1
        end = i + horizon
        # contiguity over the whole span rules out calendar gaps
        if (dates[end] - dates[start]).days != lookback + horizon - 1:
            continue
        horizon_labels = labels.labels[i + 1 : i + horizon + 1]
        if np.any(horizon_labels == -1):
            continue
        samples.append(
            WindowSample(
                x=normalized.z[start : i + 1].copy(),
                y=int(np.any(horizon_labels == 1)),
                horizon=horizon,
                anchor_date=dates[i],
                horizon_le_sum=int(le[i + 1 : i + horizon + 1].sum()),
            )
        )
    return samples


def pairwise_gaps(records) -> list:
    """Adjacent record pairs separated by more than one calendar day."""
    pairs = zip(records, records[1:])
    return [(prev.date, cur.date) for prev, cur in pairs if (cur.date - prev.date).days > 1]


def scalar_poisson_icdf(lam: float, u: float) -> int:
    """Smallest k with CDF(k) >= u, via the pmf recurrence p_k = p_{k-1}*lam/k."""
    if lam <= 0.0:
        return 0
    p = math.exp(-lam)
    cdf = p
    k = 0
    cap = int(lam + 12.0 * math.sqrt(lam + 1.0) + 30.0)
    while u > cdf and k < cap:
        k += 1
        p *= lam / k
        cdf += p
    return k


def list_split_chronological(samples: list, train_frac: float = 0.7, val_frac: float = 0.1) -> tuple:
    """70/10/20 blocks of a sample list, dropping samples whose horizon reaches the next block."""
    if len(samples) < 10:
        raise DataError(f"need at least 10 samples to split, got {len(samples)}")
    for a, b in zip(samples, samples[1:]):
        if b.anchor_date < a.anchor_date:
            raise DataError("samples must be ordered by anchor date")
    n = len(samples)
    k1 = int(n * train_frac + 1e-9)
    k2 = k1 + int(n * val_frac + 1e-9)
    train, val, test = samples[:k1], samples[k1:k2], samples[k2:]

    def trim(block, nxt):
        if not block or not nxt:
            return block
        boundary = nxt[0].anchor_date
        return [s for s in block if s.anchor_date + datetime.timedelta(days=s.horizon) < boundary]

    return trim(train, val), trim(val, test), test


def loop_roc_auc(s: np.ndarray, y: np.ndarray) -> float:
    """Average ranks by walking tie groups of the sorted scores."""
    n_pos = int(y.sum())
    n_neg = len(y) - n_pos
    order = np.argsort(s, kind="mergesort")
    sorted_s = s[order]
    ranks = np.empty(len(s), dtype=np.float64)
    i = 0
    while i < len(s):
        j = i
        while j < len(s) and sorted_s[j] == sorted_s[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + 1 + j)  # average of 1-based ranks i+1..j
        i = j
    rank_sum = ranks[y == 1].sum()
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def loop_pr_auc(s: np.ndarray, y: np.ndarray) -> float:
    """Average precision, one tie group of the descending scores at a time."""
    n_pos = int(y.sum())
    order = np.argsort(-s, kind="mergesort")
    y_sorted = y[order]
    s_sorted = s[order]
    tp = 0
    fp = 0
    ap = 0.0
    prev_recall = 0.0
    i = 0
    while i < len(s_sorted):
        j = i
        while j < len(s_sorted) and s_sorted[j] == s_sorted[i]:
            j += 1
        group_pos = int(y_sorted[i:j].sum())
        tp += group_pos
        fp += (j - i) - group_pos
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
        i = j
    return ap


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    t = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def _unpenalized_intercept(w: np.ndarray) -> np.ndarray:
    out = w.copy()
    out[-1] = 0.0
    return out


def logistic_gradient(w: np.ndarray, x: np.ndarray, y: np.ndarray, l2: float = 1e-4) -> np.ndarray:
    """Gradient of the mean Bernoulli log-likelihood minus (l2/2)||w[:-1]||^2."""
    y = np.asarray(y, dtype=np.float64)
    return x.T @ (y - _stable_sigmoid(x @ w)) / len(y) - l2 * _unpenalized_intercept(w)


def poisson_gradient(w: np.ndarray, x: np.ndarray, targets: np.ndarray, l2: float = 1e-4) -> np.ndarray:
    """Gradient of the mean log-link Poisson log-likelihood minus (l2/2)||w[:-1]||^2."""
    t = np.asarray(targets, dtype=np.float64)
    return x.T @ (t - np.exp(x @ w)) / len(t) - l2 * _unpenalized_intercept(w)


def logistic_objective(w: np.ndarray, x: np.ndarray, y: np.ndarray, l2: float = 1e-4) -> float:
    """Mean Bernoulli log-likelihood minus (l2/2)||w[:-1]||^2."""
    y = np.asarray(y, dtype=np.float64)
    eta = x @ w
    return float(np.mean(y * eta - np.logaddexp(0.0, eta)) - 0.5 * l2 * np.sum(_unpenalized_intercept(w) ** 2))


def poisson_objective(w: np.ndarray, x: np.ndarray, targets: np.ndarray, l2: float = 1e-4) -> float:
    """Mean log-link Poisson log-likelihood (without the log t! constant) minus (l2/2)||w[:-1]||^2."""
    t = np.asarray(targets, dtype=np.float64)
    eta = x @ w
    return float(np.mean(t * eta - np.exp(eta)) - 0.5 * l2 * np.sum(_unpenalized_intercept(w) ** 2))


ASCENT_GRAD_TOL = 1e-6
ASCENT_MAX_ITER = 10_000


def _lipschitz_bound(x: np.ndarray, curvature: float, l2: float) -> float:
    # power iteration on X^T X gives the top eigenvalue deterministically
    v = np.ones(x.shape[1]) / np.sqrt(x.shape[1])
    lam = 1.0
    for _ in range(50):
        v = x.T @ (x @ v)
        lam = np.linalg.norm(v)
        if lam == 0:
            return l2 + 1e-12
        v = v / lam
    return curvature * lam / x.shape[0] + l2


def bb_logistic_ascent(x: np.ndarray, y: np.ndarray, l2: float = 1e-4) -> tuple[np.ndarray, bool]:
    """The first-order logistic fit the Newton solver replaced: (weights, converged).

    Full-batch gradient ascent with Barzilai-Borwein step sizes (falling back
    to 1/L when the curvature estimate is unusable).
    """
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    w = np.zeros(x.shape[1])
    base_lr = 1.0 / _lipschitz_bound(x, 0.25, l2)
    w_prev = grad_prev = None
    converged = False
    for _ in range(ASCENT_MAX_ITER):
        grad = x.T @ (y - _stable_sigmoid(x @ w)) / n - l2 * _unpenalized_intercept(w)
        if np.linalg.norm(grad) < ASCENT_GRAD_TOL:
            converged = True
            break
        if grad_prev is None:
            alpha = base_lr
        else:
            s = w - w_prev
            curve = s @ (grad_prev - grad)
            alpha = min(s @ s / curve, 1e8) if curve > 1e-30 else base_lr
        w_prev, grad_prev = w, grad
        w = w + alpha * grad
    return w, converged


def backtracking_poisson_ascent(x: np.ndarray, targets: np.ndarray, l2: float = 1e-4) -> tuple[np.ndarray, bool]:
    """The first-order Poisson fit the Newton solver replaced: (weights, converged).

    Gradient ascent with halving backtracking from step 1 on every iteration,
    which keeps exp(X w) finite.
    """
    t = np.asarray(targets, dtype=np.float64)
    n = len(t)

    def objective(w: np.ndarray) -> float:
        eta = x @ w
        with np.errstate(over="ignore"):
            lam = np.exp(eta)
        if not np.all(np.isfinite(lam)):
            return -np.inf
        return float((t * eta - lam).mean() - 0.5 * l2 * np.sum(_unpenalized_intercept(w) ** 2))

    w = np.zeros(x.shape[1])
    current = objective(w)
    converged = False
    for _ in range(ASCENT_MAX_ITER):
        with np.errstate(over="ignore"):
            lam = np.exp(x @ w)
        grad = x.T @ (t - lam) / n - l2 * _unpenalized_intercept(w)
        gnorm = np.linalg.norm(grad)
        if gnorm < ASCENT_GRAD_TOL:
            converged = True
            break
        step = 1.0
        proposal = objective(w + step * grad)
        while proposal < current + 1e-4 * step * gnorm**2 and step > 1e-18:
            step *= 0.5
            proposal = objective(w + step * grad)
        w = w + step * grad
        current = proposal
    return w, converged


def naive_conv2d(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Same-padded cross-correlation over (H, W) with features along the last axis."""
    h, w, d = x.shape
    kh, kw = kernel.shape
    ph, pw = kh // 2, kw // 2
    out = np.zeros_like(x)
    for i in range(h):
        for j in range(w):
            for c in range(d):
                acc = 0.0
                for a in range(kh):
                    for b in range(kw):
                        si, sj = i + a - ph, j + b - pw
                        if 0 <= si < h and 0 <= sj < w:
                            acc += kernel[a, b] * x[si, sj, c]
                out[i, j, c] = acc
    return out


def pairwise_roc_auc(scores, labels) -> float:
    """O(N^2) Mann-Whitney: concordant pairs plus half the ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    concordant = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                concordant += 1.0
            elif sp == sn:
                concordant += 0.5
    return concordant / (len(pos) * len(neg))


def sweep_pr_auc(scores, labels) -> float:
    """Average precision by enumerating every distinct score as a threshold."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    n_pos = int(labels.sum())
    thresholds = sorted(set(scores.tolist()), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for theta in thresholds:
        predicted = scores >= theta
        tp = int(np.sum(predicted & (labels == 1)))
        fp = int(np.sum(predicted & (labels == 0)))
        recall = tp / n_pos
        precision = tp / (tp + fp)
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def plain_bce(probs, labels) -> float:
    """Unweighted mean binary cross-entropy via math.log."""
    total = 0.0
    for p, y in zip(probs, labels):
        total += y * math.log(p) + (1 - y) * math.log(1 - p)
    return -total / len(probs)
