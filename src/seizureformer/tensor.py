"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation returns a new :class:`Tensor` carrying a vector-Jacobian
closure; calling ``backward()`` on a scalar result walks the recorded graph
in reverse topological order and accumulates ``.grad`` on every tensor that
requires gradients.  The op set is only what the patch-attention classifier
runs: add/mul, matmul by a 2-D weight, reshape, mean, sigmoid/relu, dropout,
2D cross-correlation, a folded linear patch embedding and a whole pre-norm
encoder layer (the loss is one node and the patch gather forward-only, both in
``model``), plus a forward-only 1D cross-correlation and a finite-difference
checker.

Inside a ``with no_grad():`` block operations record nothing: results carry
no parents and no closure, so each intermediate is freed as soon as the next
operation has consumed it.  Values are the same bytes either way, up to the
BLAS's kernel choice in ``encoder_layer``, which then runs in row chunks.

Only ``encoder_layer`` shares its work with a thread pool (``_run_chunks``);
every grad is summed on the calling thread, in walk order.  A ``backward``
that raises keeps the grads summed before the error, and its graph is spent.

Numerical policy: all values are float64, and any operation that produces a
NaN/Inf from finite inputs raises ``FloatingPointError`` instead of letting
the poison propagate.
"""

from __future__ import annotations

import ctypes
import glob
import math
import os
import threading
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

Array = np.ndarray

_CONV2D_CHUNK = 32  # batch slices per step of conv2d's kernel-grad sum
_CHUNK_ROWS = 1024  # per encoder chunk, forward and backward: two at default widths and batch 64
_pool = None  # (size, ThreadPoolExecutor), started by the first call that has work for a worker
_pool_lock = threading.Lock()


def _execution_config() -> tuple[str, int]:
    """(BLAS thread count in force, pool threads beside the caller), fixed at import.  numpy's
    bundled OpenBLAS is set to one thread, so no environment variable picks a code path or a byte.
    A build without it (MKL, Accelerate) keeps the environment's count, and a pool only beside one
    BLAS thread: a BLAS with a thread per CPU keeps every core busy, and pool threads only contend."""
    try:
        lib = ctypes.CDLL(glob.glob(os.path.dirname(np.__file__) + ".libs/libscipy_openblas64_*.so")[0])
        lib.scipy_openblas_set_num_threads64_(ctypes.c_int(1))
        blas = str(lib.scipy_openblas_get_num_threads64_())  # returns a C int, ctypes' default
    except (IndexError, OSError, AttributeError):
        blas = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unset"
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return blas, cpus - 1 if blas == "1" else 0


BLAS_THREADS, _WORKERS = _execution_config()  # every manifest records BLAS_THREADS; tests set _WORKERS
_recording: ContextVar[bool] = ContextVar("recording", default=True)


@contextmanager
def no_grad() -> Iterator[None]:
    """Run operations without recording a graph; restores the previous mode on exit."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


class Tensor:
    """A float64 array plus an optional gradient of identical shape.

    ``requires_grad=True`` marks a leaf whose gradient should be populated by
    ``backward()``; tensors produced by operations inherit the flag from their
    inputs.  Graphs are single-use: rerunning ``backward()`` on the same root, or
    reaching a spent ``encoder_layer`` from another root, without rebuilding the
    graph is an error, even after a failed one.
    """

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_vjp", "_backward_done", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor values must be finite")
        self.data = arr
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._prev: tuple[Tensor, ...] = ()
        self._vjp: Callable[[Array], None] | None = None
        self._backward_done = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a single-element tensor")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        """Populate ``.grad`` on every reachable tensor requiring gradients.

        The root must be a scalar produced by recorded operations.  Each node
        is visited exactly once, in reverse topological order, and each VJP sums
        its grads before the next one runs.  An error stops the walk where it
        is raised: grads summed before it stay, and the graph counts as used.
        """
        if self.data.size != 1:
            raise ValueError("backward requires a scalar root")
        if self._backward_done:
            raise RuntimeError("backward already ran for this graph; rebuild it first")
        if not self.requires_grad:
            raise ValueError("root does not depend on any tensor requiring gradients")
        self._backward_done = True  # before the walk: a retry after an error would sum its grads twice

        # Iterative postorder; nodes are marked visited at expansion (not
        # discovery) so shared subgraphs still topo-sort correctly.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._vjp is not None:
                node._vjp(node.grad)
        for node in order:
            if node.grad is not None and not np.all(np.isfinite(node.grad)):
                raise FloatingPointError("backward produced non-finite gradients")


def _result(data: Array, parents: tuple[Tensor, ...], vjp: Callable[[Array], None]) -> Tensor:
    if not np.all(np.isfinite(data)):
        raise FloatingPointError("operation produced non-finite values")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._backward_done = False
    if _recording.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._prev = parents
        out._vjp = vjp
    else:
        out.requires_grad = False
        out._prev = ()
        out._vjp = None
    return out


def _accum(t: Tensor, g: Array) -> None:
    if t.requires_grad:
        t.grad = g if t.grad is None else t.grad + g


def _accum_split(targets: Sequence[Tensor], g: Array) -> None:
    for t, part in zip(targets, np.split(g, len(targets), axis=-1) if len(targets) > 1 else (g,)):
        _accum(t, part)


def _sum_to_shape(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to the original operand shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def zero_grad(params: dict[str, Tensor]) -> None:
    """Clear the gradients of a name -> tensor parameter store."""
    for t in params.values():
        t.grad = None


# -- arithmetic ----------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data

    def vjp(g: Array) -> None:
        _accum(a, _sum_to_shape(g, a.data.shape))
        _accum(b, _sum_to_shape(g, b.data.shape))

    return _result(data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def vjp(g: Array) -> None:
        _accum(a, _sum_to_shape(g * b.data, a.data.shape))
        _accum(b, _sum_to_shape(g * a.data, b.data.shape))

    return _result(data, (a, b), vjp)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Product of ``a`` (..., k) and a 2-D weight ``b`` (k, n), plus ``bias`` (n,)
    in place when given.  Every leading axis of ``a`` folds into the rows of one
    GEMM, so dA = dC @ W^T and dW = A^T @ dC need no batched temporary."""
    if a.ndim < 2 or b.ndim != 2:
        raise ValueError(f"matmul takes an input of 2 or more dimensions and a 2-D weight, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[0]:
        raise ValueError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    a2 = a.data.reshape(-1, b.data.shape[0])
    data = a2 @ b.data
    if bias is not None:
        if bias.data.shape != b.data.shape[1:]:
            raise ValueError(f"matmul bias must have shape ({b.data.shape[1]},)")
        data += bias.data

    def vjp(g: Array) -> None:
        g = g.reshape(data.shape)
        if bias is not None and bias.requires_grad:
            _accum(bias, g.sum(axis=0))
        if a.requires_grad:
            _accum(a, (g @ b.data.T).reshape(a.data.shape))
        if b.requires_grad:
            _accum(b, a2.T @ g)

    return _result(data.reshape(a.data.shape[:-1] + b.data.shape[1:]), (a, b) if bias is None else (a, b, bias), vjp)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    data = a.data.reshape(shape)

    def vjp(g: Array) -> None:
        _accum(a, g.reshape(a.data.shape))

    return _result(data, (a,), vjp)


# -- reductions ----------------------------------------------------------


def mean(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    """The mean over ``axes``, which numpy checks; the reduced axes are dropped."""
    data = a.data.mean(axis=axes)
    count = math.prod(a.data.shape[ax] for ax in axes)

    def vjp(g: Array) -> None:
        _accum(a, np.broadcast_to(np.expand_dims(g, axes), a.data.shape) / count)

    return _result(data, (a,), vjp)


# -- nonlinearities -------------------------------------------------------


def _sigmoid(z: Array) -> Array:
    """1 / (1 + exp(-z)) from exp(-|z|), which never overflows, so both branches stay finite."""
    t = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


def sigmoid(a: Tensor) -> Tensor:
    data = _sigmoid(a.data)

    def vjp(g: Array) -> None:
        _accum(a, g * data * (1.0 - data))

    return _result(data, (a,), vjp)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def vjp(g: Array) -> None:
        _accum(a, g * (a.data > 0))

    return _result(data, (a,), vjp)


def _layer_norm_fwd(x: Array, gamma: Array, beta: Array, eps: float, out: Array | None = None,
                    xhat: Array | None = None, inv: Array | None = None) -> tuple[Array, Array, Array]:
    """(xhat * gamma + beta, xhat, inv): xhat = (x - mean) * inv over the last axis,
    each written into the given array, or a fresh one when it is None."""
    # in-place updates: each new full-size temporary costs page faults
    xhat = np.subtract(x, x.mean(axis=-1, keepdims=True), out=xhat)
    out = np.multiply(xhat, xhat, out=out)  # the squares, in the result's space
    inv = np.power(out.mean(axis=-1, keepdims=True) + eps, -0.5, out=inv)
    xhat *= inv
    np.multiply(xhat, gamma, out=out)
    out += beta
    return out, xhat, inv


def _layer_norm_vjp(g: Array, xhat: Array, inv: Array, gamma: Array) -> Array:
    """The (rows, d) input grad inv * (dxh - mean(dxh) - xh * mean(dxh * xh)), dxh = g * gamma,
    row means as GEMVs; the gamma and beta grads are row sums the caller takes."""
    d = xhat.shape[-1]
    g, xhat, inv = g.reshape(-1, d), xhat.reshape(-1, d), inv.reshape(-1, 1)
    gx = g * xhat
    gx *= gamma  # dxh * xh
    row_mean = np.full((d, 1), 1.0 / d)
    dxhat = g * gamma
    np.multiply(xhat, gx @ row_mean, out=gx)
    gx += dxhat @ row_mean
    np.subtract(dxhat, gx, out=dxhat)
    dxhat *= inv
    return dxhat


def _run_chunks(fn: Callable[[int], None], count: int) -> None:
    """Call ``fn(i)`` for i in range(count), shared between the calling thread and up to
    ``_WORKERS`` threads of the one shared pool, started (or grown) first, never more
    threads than calls.  Returns once every started call has finished, so no worker
    still writes; then the first error re-raises, the caller's own first.  Workers call
    no traced op: the tracer keeps one span stack."""
    global _pool
    workers = min(_WORKERS, count - 1)
    todo, lock = iter(range(count)), threading.Lock()

    def drain() -> None:
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            fn(i)

    futures = []
    if workers > 0:
        with _pool_lock:  # a resize shuts the old pool down: nobody may submit to it meanwhile
            if _pool is None or _pool[0] < workers:
                from concurrent.futures import ThreadPoolExecutor  # not at import: it loads logging (~11 ms)

                if _pool is not None:
                    _pool[1].shutdown()
                _pool = (workers, ThreadPoolExecutor(workers, thread_name_prefix="encoder"))
            futures = [_pool[1].submit(drain) for _ in range(workers)]
    try:
        drain()
    finally:  # a worker not yet started (or lost to a fork) has nothing left; wait for the others
        errors = [f.exception() for f in futures if not f.cancel()]
    for exc in errors:
        if exc is not None:
            raise exc


def encoder_layer(
    x: Tensor, ln1: tuple[Tensor, Tensor], heads: Sequence[tuple[Tensor, Tensor, Tensor]], wo: Tensor,
    ln2: tuple[Tensor, Tensor], ffn: tuple[Tensor, Tensor, Tensor, Tensor], eps: float, dropout_rate: float,
    training: bool = False, rng: np.random.Generator | None = None, attn_sink: list[Tensor] | None = None,
) -> Tensor:
    """One pre-norm transformer layer over (N, p, d) rows as one graph node with a
    closed-form backward: x1 = x + drop(concat_j(softmax(q_j k_j^T / sqrt(dk)) v_j) @ wo)
    with q/k/v from LN1(x), then x1 + drop(relu(LN2(x1) @ w1 + b1) @ w2 + b2).
    ``heads`` holds each head's (wq, wk, wv), packed per call into one (d, 3d) GEMM;
    the heads run batched as (N, h, p, dk).  ``ffn`` is (w1, b1, w2, b2).  Keep-masks
    are drawn as ``dropout`` draws them, attention first; each head's (N, p, p)
    softmax goes to ``attn_sink``.  The forward splits the sequences evenly into chunks
    of at most ``_CHUNK_ROWS // p``, shared with the pool (``_run_chunks``), with interior
    bounds moved down to multiples of 4 sequences; when a graph is recorded, each chunk
    writes its rows of what the VJP cannot rebuild to the same bytes in place: the LN1
    and LN2 scales, q/k/v, the softmax maps, LN2's xhat and the FFN hidden; the masks
    are kept as bool.  The VJP runs the input-gradient chain over the same chunks,
    rebuilding LN1's xhat from ``x.data`` and both norms' outputs and the attention
    context with the forward's own calls, then the parameter grads as whole-batch
    products side by side, and sums every grad on the caller.  It writes the q/k/v grads
    over q/k/v, so it consumes the graph: a second call raises.  Rows are independent and
    the bounds follow from the shapes, so the bytes never depend on the worker count;
    against one pass over all rows they differ only where the BLAS picks its GEMM
    kernel by row count."""
    n, p, d = x.data.shape
    h, dk = len(heads), d // len(heads)
    w1, b1, w2, b2 = ffn
    ffn_dim = w1.data.shape[1]
    weights = [w for group in zip(*heads) for w in group]  # every wq, then every wk, then every wv
    wqkv = np.concatenate([w.data for w in weights], axis=1)
    scale = 1.0 / np.sqrt(dk)
    parents = (x, *ln1, *weights, wo, *ln2, *ffn)
    keep1, keep2 = (_keep_mask((n * p, d), dropout_rate, training, rng) for _ in range(2))
    recorded = _recording.get() and any(t.requires_grad for t in parents)
    # bounds fall on whole units of 4 sequences: the VJP's row-mean GEMVs round a call's last
    # rows by the call's length mod 4, so a chunk must end where the whole batch would
    units = -(-n // 4)
    parts = min(units, -(-n // max(1, _CHUNK_ROWS // p)))
    bounds = [min(n, 4 * (units * i // parts)) for i in range(parts + 1)]  # even: no lone row takes numpy's vector path
    # what the VJP reads and cannot rebuild to the same bytes, full-size; unrecorded, each chunk makes its own rows
    inv1, qkv, xhat2, inv2, hidden = (
        np.empty((n * p, width)) if recorded else None for width in (1, 3 * d, d, 1, ffn_dim))
    attn = np.empty((n, h, p, p)) if recorded or attn_sink is not None else None
    out = np.empty((n * p, d))

    def chunk(i: int) -> None:
        """The forward over sequences [lo, hi): writes their rows of ``out`` and of each saved activation."""
        lo, hi = bounds[i], bounds[i + 1]
        rows = slice(lo * p, hi * p)

        def at(a: Array | None) -> Array | None:  # this chunk's rows of a saved activation
            return None if a is None else a[rows]

        xs = x.data[lo:hi].reshape(-1, d)
        normed = _layer_norm_fwd(xs, ln1[0].data, ln1[1].data, eps, None, None, at(inv1))[0]
        q, k, v = np.matmul(normed, wqkv, out=at(qkv)).reshape(-1, p, 3, h, dk).transpose(2, 0, 3, 1, 4)
        s = np.matmul(q, k.swapaxes(-1, -2), out=None if attn is None else attn[lo:hi])  # the softmax runs in place
        s *= scale
        amax = s[..., :1].copy()  # row max as p-1 elementwise maxima; numpy's short-axis max is slow
        for j in range(1, p):
            np.maximum(amax, s[..., j : j + 1], out=amax)
        s -= amax
        np.exp(s, out=s)
        s /= s.sum(axis=-1, keepdims=True)
        c = np.empty(xs.shape)
        np.matmul(s, v, out=c.reshape(-1, p, h, dk).transpose(0, 2, 1, 3))  # the heads side by side
        x1 = c @ wo.data
        del q, k, v, s, c  # an unrecorded chunk's scratch goes before the FFN's (rows, ffn) hidden
        if keep1 is not None:
            _drop(x1, keep1[rows], dropout_rate, x1)
        x1 += xs
        normed = _layer_norm_fwd(x1, ln2[0].data, ln2[1].data, eps, None, at(xhat2), at(inv2))[0]
        hid = np.matmul(normed, w1.data, out=at(hidden))
        hid += b1.data
        np.maximum(hid, 0.0, out=hid)
        y = np.matmul(hid, w2.data, out=out[rows])
        y += b2.data
        if keep2 is not None:
            _drop(y, keep2[rows], dropout_rate, y)
        y += x1

    _run_chunks(chunk, parts)
    if attn_sink is not None:
        attn_sink.extend(Tensor(attn[:, j]) for j in range(h))
    spent = False

    def vjp(g: Array) -> None:
        nonlocal spent
        if spent:  # the first call wrote the q, k and v grads over q, k and v
            raise RuntimeError("encoder_layer's backward already ran for this graph; rebuild it first")
        spent = True
        g = g.reshape(-1, d)
        gff = g if keep2 is None else np.empty(g.shape)
        ghid = np.empty((n * p, ffn_dim))
        gn2, gatt, gn1, gx, n1, xhat1, n2, ctx = (np.empty((n * p, d)) for _ in range(8))

        def chunk_vjp(i: int) -> None:
            """The input-gradient chain over sequences [lo, hi): rebuilds their rows of ``n1``,
            ``xhat1``, ``n2`` and ``ctx`` with the forward's own calls, so to the same bytes,
            and writes their rows of every grad above, with gq, gk and gv over q, k and v."""
            lo, hi = bounds[i], bounds[i + 1]
            rows = slice(lo * p, hi * p)
            xs = x.data[lo:hi].reshape(-1, d)
            xh = np.subtract(xs, xs.mean(axis=-1, keepdims=True), out=xhat1[rows])
            xh *= inv1[rows]
            for xhat, (gamma, beta), normed in ((xh, ln1, n1[rows]), (xhat2[rows], ln2, n2[rows])):
                np.multiply(xhat, gamma.data, out=normed)
                normed += beta.data
            gf = gff[rows] if keep2 is None else _drop(g[rows], keep2[rows], dropout_rate, gff[rows])
            gh = np.matmul(gf, w2.data.T, out=ghid[rows])
            gh *= hidden[rows] > 0
            gm = np.matmul(gh, w1.data.T, out=gn2[rows])
            gx1 = _layer_norm_vjp(gm, xhat2[rows], inv2[rows], ln2[0].data)
            gx1 += g[rows]
            ga = (np.multiply(gx1, 1.0, out=gatt[rows]) if keep1 is None  # x * 1.0 is x, bit for bit
                  else _drop(gx1, keep1[rows], dropout_rate, gatt[rows]))
            gctx = (ga @ wo.data.T).reshape(-1, p, h, dk).transpose(0, 2, 1, 3)
            q, k, v = qkv[rows].reshape(-1, p, 3, h, dk).transpose(2, 0, 3, 1, 4)
            s = attn[lo:hi]
            np.matmul(s, v, out=ctx[rows].reshape(-1, p, h, dk).transpose(0, 2, 1, 3))
            gs = np.matmul(gctx, v.swapaxes(-1, -2))  # softmax VJP: s * (g - sum(g * s)) * scale
            np.matmul(s.swapaxes(-1, -2), gctx, out=v)  # gv, now that nothing reads v
            gs -= (gs * s).sum(axis=-1, keepdims=True)
            gs *= s
            gs *= scale
            gq = gs @ k  # gk reads q, so gq waits in a chunk-local temporary
            np.matmul(gs.swapaxes(-1, -2), q, out=k)
            q[...] = gq
            gm = np.matmul(qkv[rows], wqkv.T, out=gn1[rows])
            np.add(_layer_norm_vjp(gm, xhat1[rows], inv1[rows], ln1[0].data), gx1, out=gx[rows])

        _run_chunks(chunk_vjp, parts)
        # the parameter grads as whole-batch products, run side by side and summed here in walk order
        products = [((b2,), lambda: gff.sum(axis=0)), ((w2,), lambda: hidden.T @ gff),
                    ((b1,), lambda: ghid.sum(axis=0)), ((w1,), lambda: n2.T @ ghid),
                    ((ln2[0],), lambda: (gn2 * xhat2).sum(axis=0)), ((ln2[1],), lambda: gn2.sum(axis=0)),
                    ((wo,), lambda: ctx.T @ gatt), (weights, lambda: n1.T @ qkv),
                    ((ln1[0],), lambda: (gn1 * xhat1).sum(axis=0)), ((ln1[1],), lambda: gn1.sum(axis=0))]
        products = [(targets, fn) for targets, fn in products if any(t.requires_grad for t in targets)]
        grads = [None] * len(products)

        def product(i: int) -> None:
            grads[i] = products[i][1]()

        _run_chunks(product, len(products))
        for (targets, _), grad in zip(products, grads):
            _accum_split(targets, grad)
        _accum(x, gx.reshape(x.data.shape))

    return _result(out.reshape(n, p, d), parents, vjp)  # vjp is kept only when recorded


def _keep_mask(shape: tuple[int, ...], rate: float, training: bool, rng: np.random.Generator | None) -> Array | None:
    """Inverted dropout's survivors as a bool array (see ``_drop``), or None when dropout is the identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return None
    if rng is None:
        raise ValueError("training-mode dropout needs an explicit rng")
    return rng.random(shape) >= rate


def _drop(a: Array, keep: Array, rate: float, out: Array | None = None) -> Array:
    """``a`` times the multipliers 0 and 1/(1-rate), as a * keep * (1/(1-rate)): x * 1.0 is x,
    so the bytes are those of one product with float multipliers, at an eighth of their memory."""
    out = np.multiply(a, keep, out=out)
    out *= 1.0 / (1.0 - rate)
    return out


def dropout(a: Tensor, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: survivors scale by 1/(1-rate); identity in eval mode."""
    keep = _keep_mask(a.data.shape, rate, training, rng)
    if keep is None:
        return a

    def vjp(g: Array) -> None:
        _accum(a, _drop(g, keep, rate))

    return _result(_drop(a.data, keep, rate), (a,), vjp)


# -- convolutions ----------------------------------------------------------


def conv1d(a: Tensor, weight: Tensor, bias: Tensor | None = None, padding: str = "same") -> Tensor:
    """Cross-correlate the last axis with a bank of kernels, forward only.

    ``a`` is (..., L), ``weight`` is (features, k), ``bias`` is (features,).
    Returns (..., L_out, features) where L_out = L for "same" padding and
    L - k + 1 for "valid".  The model folds its kernels into ``folded_embed``,
    so this op has no VJP: recording a graph through it raises rather than
    leave a gradient silently zero.
    """
    if _recording.get() and any(t is not None and t.requires_grad for t in (a, weight, bias)):
        raise ValueError("conv1d is forward-only: call it under no_grad() or on tensors that do not require gradients")
    if weight.ndim != 2:
        raise ValueError("conv1d weight must be (features, k)")
    n_feat, k = weight.data.shape
    length = a.data.shape[-1]
    if k < 1:
        raise ValueError("kernel must have at least one tap")
    if padding == "same":
        left, right = (k - 1) // 2, k // 2
    elif padding == "valid":
        left = right = 0
    else:
        raise ValueError(f"unknown padding mode {padding!r}")
    out_len = length + left + right - k + 1
    if out_len < 1:
        raise ValueError(f"kernel of {k} taps exceeds padded input of length {length + left + right}")
    if bias is not None and bias.data.shape != (n_feat,):
        raise ValueError("bias shape must match the feature count")

    pad_spec = [(0, 0)] * (a.ndim - 1) + [(left, right)]
    xp = np.pad(a.data, pad_spec)
    # im2col: one row of k taps per output position, then a single GEMM
    cols = sliding_window_view(xp, k, axis=-1).reshape(-1, k)
    out = cols @ weight.data.T
    if bias is not None:
        out += bias.data
    return _result(out.reshape(a.data.shape[:-1] + (out_len, n_feat)), (), None)


def conv2d(a: Tensor, kernel: Tensor) -> Tensor:
    """Cross-correlate a (..., H, W, D) grid with one shared (kh, kw) kernel.

    The feature axis D passes through untouched; zero "same" padding keeps the
    spatial extents, which is why both kernel extents must be odd.  The kernel
    becomes one (H*W, H*W) band matrix M applied to every (H*W, D) slice by one
    matmul; the VJP is M^T g, and sum_b g_b x_b^T binned back to the taps.
    """
    if a.ndim < 3:
        raise ValueError("conv2d input must be (..., H, W, D)")
    if kernel.ndim != 2:
        raise ValueError("conv2d kernel must be 2-dimensional")
    kh, kw = kernel.data.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d kernel extents must be odd, got {kh}x{kw}")
    h, w = a.data.shape[-3], a.data.shape[-2]
    row, col = np.divmod(np.arange(h * w), w)  # grid coordinates of each cell
    ti, tj = row - row[:, None] + kh // 2, col - col[:, None] + kw // 2  # [output cell, source cell] -> tap
    taps = np.where((ti >= 0) & (ti < kh) & (tj >= 0) & (tj < kw), ti * kw + tj, kh * kw)
    band = np.append(kernel.data.ravel(), 0.0)[taps]  # index kh*kw is off the band
    x3 = a.data.reshape(-1, h * w, a.data.shape[-1])
    out = np.matmul(band, x3).reshape(a.data.shape)

    def vjp(g: Array) -> None:
        g3 = g.reshape(x3.shape)
        if kernel.requires_grad:
            gband = np.zeros(band.shape)
            for s in range(0, len(x3), _CONV2D_CHUNK):  # fixed-size chunks: no temporary grows with the batch
                gband += np.matmul(g3[s : s + _CONV2D_CHUNK], x3[s : s + _CONV2D_CHUNK].swapaxes(1, 2)).sum(axis=0)
            _accum(kernel, np.bincount(taps.ravel(), gband.ravel(), kh * kw + 1)[:-1].reshape(kh, kw))
        if a.requires_grad:
            _accum(a, np.matmul(band.T, g3).reshape(a.data.shape))

    return _result(out, (a, kernel), vjp)


# -- linear patch embedding ---------------------------------------------------


def folded_embed(x: Tensor, banks: Sequence[tuple[Tensor, Array | None]], biases: Sequence[Tensor], proj: Tensor,
                 pos: Tensor) -> Tensor:
    """A linear embedding of (..., P) rows, its projection and a positional table as
    one node and one GEMM: x @ (E @ proj) + (b @ proj + pos), shape (..., D).  Each
    bank (weight, band) adds the column block ``band @ weight.T`` (``weight`` itself
    when ``band`` is None) to the (P, d') map E; b concatenates ``biases``, or is zero
    when there are none.  So every parameter grad comes from (P, D) and (d', D) products."""
    blocks = [w.data if band is None else band @ w.data.T for w, band in banks]
    e = np.concatenate(blocks, axis=1)
    b = np.concatenate([bias.data for bias in biases]) if biases else np.zeros(e.shape[1])
    m = e @ proj.data
    x2 = x.data.reshape(-1, m.shape[0])
    out = (x2 @ m).reshape(x.data.shape[:-1] + m.shape[1:])
    out += b @ proj.data + pos.data

    def vjp(g: Array) -> None:
        g2 = g.reshape(x2.shape[0], -1)
        _accum(pos, gpos := _sum_to_shape(g, pos.data.shape))
        gc = gpos.reshape(-1, g2.shape[1]).sum(axis=0)  # grad of b @ proj, which every row adds
        gm = x2.T @ g2
        _accum(proj, e.T @ gm + np.outer(b, gc))
        offsets = np.cumsum([blk.shape[1] for blk in blocks])[:-1]
        for (w, band), ge in zip(banks, np.split(gm @ proj.data.T, offsets, axis=1)):
            _accum(w, ge if band is None else ge.T @ band)
        for bias, gb in zip(biases, np.split(proj.data @ gc, np.cumsum([len(t.data) for t in biases])[:-1])):
            _accum(bias, gb)
        if x.requires_grad:
            _accum(x, (g2 @ m.T).reshape(x.data.shape))

    return _result(out, (x, proj, pos, *(w for w, _ in banks), *biases), vjp)


# -- gradient checking ------------------------------------------------------


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, epsilon: float = 1e-5) -> float:
    """Compare analytic gradients of ``f`` at ``x`` against central differences.

    Returns max over coordinates of |analytic - numeric| / max(1, |analytic|).
    ``f`` must be deterministic (checked by evaluating it twice) and return a
    scalar tensor.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    first = f(Tensor(x.data.copy()))
    second = f(Tensor(x.data.copy()))
    if first.data.size != 1:
        raise ValueError("grad_check needs a scalar-valued function")
    if first.data.tobytes() != second.data.tobytes():
        raise ValueError("f is not deterministic; disable dropout before checking")

    leaf = Tensor(x.data.copy(order="K"), requires_grad=True)  # keep the input's memory layout
    out = f(leaf)
    if out.requires_grad:
        out.backward()
    analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)

    flat = x.data.reshape(-1)
    numeric = np.zeros(flat.size)
    for i in range(flat.size):
        bumped = flat.copy()
        bumped[i] += epsilon
        hi = f(Tensor(bumped.reshape(x.data.shape))).item()
        bumped[i] -= 2 * epsilon
        lo = f(Tensor(bumped.reshape(x.data.shape))).item()
        numeric[i] = (hi - lo) / (2 * epsilon)

    a = analytic.reshape(-1)
    rel = np.abs(a - numeric) / np.maximum(1.0, np.abs(a))
    return float(rel.max()) if rel.size else 0.0
