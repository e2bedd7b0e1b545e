"""Dense float64 tensors with reverse-mode automatic differentiation.

Every operation returns a new :class:`Tensor` carrying a vector-Jacobian
closure; calling ``backward()`` on a scalar result walks the recorded graph
in reverse topological order and accumulates ``.grad`` on every tensor that
requires gradients.  The op set is deliberately small: exactly what a
patch-attention classifier needs (add/sub/mul/neg, matmul by a 2-D weight,
reshape, a last-axis gather, sum/mean, sigmoid/relu/log/power/clip, dropout,
1D/2D cross-correlation, a folded linear patch embedding, a whole pre-norm
encoder layer) plus a finite-difference checker.

Inside a ``with no_grad():`` block operations record nothing: results carry
no parents and no closure, so each intermediate is freed as soon as the next
operation has consumed it.  Values are the same bytes either way, up to the
BLAS's kernel choice in ``encoder_layer``, which then runs in row chunks.

Numerical policy: all values are float64, and any operation that produces a
NaN/Inf from finite inputs raises ``FloatingPointError`` instead of letting
the poison propagate.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

Array = np.ndarray

_CONV2D_CHUNK = 32  # batch slices per step of conv2d's kernel-grad sum
_CHUNK_FLOATS = 2**16  # (rows, ffn) hidden floats per no-grad encoder chunk: 512 KB, well inside a 2 MB L2
_WORKERS: int | None = None  # pool threads beside the caller; None: see _workers()
# as this process started, when the BLAS read it; bytes depend on the BLAS thread count
BLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS") or "unset"
_pool = None  # (size, ThreadPoolExecutor), started by the first call that has work for a worker
_pool_lock = threading.Lock()
_IN_FLIGHT = 2  # backward's pooled products left unfinished when the caller hands off another

_AxesArg = int | Sequence[int] | None


_recording: ContextVar[bool] = ContextVar("recording", default=True)
# while backward walks with a pool: every leaf grad as (targets, grad or product, future or None)
_deferred: ContextVar[list | None] = ContextVar("deferred", default=None)


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
    inputs.  Graphs are single-use: rerunning ``backward()`` on the same root
    without rebuilding the graph is an error.
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

    # -- operator sugar -------------------------------------------------

    def __add__(self, other):
        return add(self, _lift(other))

    def __sub__(self, other):
        return sub(self, _lift(other))

    def __rsub__(self, other):
        return sub(_lift(other), self)

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __neg__(self):
        return neg(self)

    def backward(self) -> None:
        """Populate ``.grad`` on every reachable tensor requiring gradients.

        The root must be a scalar produced by recorded operations.  Each node
        is visited exactly once, in reverse topological order.  With a pool
        (``_workers()`` > 0), leaf-parameter products run on pool threads while
        the walk goes on, and every leaf grad is summed after the walk, in walk
        order, so the bytes never depend on the worker count.
        """
        if self.data.size != 1:
            raise ValueError("backward requires a scalar root")
        if self._backward_done:
            raise RuntimeError("backward already ran for this graph; rebuild it first")
        if not self.requires_grad:
            raise ValueError("root does not depend on any tensor requiring gradients")

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
        queue: list = []
        token = _deferred.set(queue) if _workers() > 0 else None
        walked = False
        try:
            for node in reversed(order):
                if node._vjp is not None:
                    node._vjp(node.grad)
            walked = True
        finally:
            if token is not None:
                _deferred.reset(token)
            _join(queue, walked)
        for node in order:
            if node.grad is not None and not np.all(np.isfinite(node.grad)):
                raise FloatingPointError("backward produced non-finite gradients")
        self._backward_done = True


def _lift(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


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
        queue = _deferred.get()
        if queue is not None and t._vjp is None:  # a leaf: summed at backward's join, in walk order
            queue.append(((t,), g, None))
        else:
            t.grad = g if t.grad is None else t.grad + g


def _accum_split(targets: Sequence[Tensor], g: Array) -> None:
    for t, part in zip(targets, np.split(g, len(targets), axis=-1) if len(targets) > 1 else (g,)):
        _accum(t, part)


def _accum_product(targets: Sequence[Tensor], fn: Callable[..., Array], *args: Array) -> None:
    """Accumulate ``fn(*args)`` into ``targets``, split evenly along its last axis when
    there are several.  Inside ``backward`` with a pool, when every target is a leaf, it
    runs on a pool thread while the walk goes on: the caller must not write any of
    ``args`` from then on.  A non-leaf target needs its grad now, so it runs inline."""
    if not any(t.requires_grad for t in targets):
        return
    queue = _deferred.get()
    if queue is not None and all(t._vjp is None for t in targets):
        _settle(queue)
        job = [fn, *args]
        queue.append((targets, job, _submit([lambda: _take(job)], _workers())[0]))
    else:
        _accum_split(targets, fn(*args))


def _settle(queue: list) -> None:
    """Leave at most ``_IN_FLIGHT`` queued products unfinished, waiting for the oldest others
    or running them here if no pool thread has started them: a lagging pool would otherwise
    keep every layer's (rows, ffn) gradient alive until the join."""
    busy = [i for i, (_, _, future) in enumerate(queue) if future is not None and not future.done()]
    for i in busy[: max(0, len(busy) - _IN_FLIGHT)]:
        targets, job, future = queue[i]
        if future.cancel():
            queue[i] = (targets, _take(job), None)
        else:
            future.exception()  # waits; the join reads the result or the error


def _take(job: list) -> Array:
    """Run ``job`` = [fn, *args] and empty it, so its inputs are freed once the product is done, not at the join."""
    fn, *args = job
    job.clear()
    return fn(*args)


def _join(queue: list, walked: bool) -> None:
    """Accumulate backward's queued leaf grads in submission order, then empty the queue.
    A product no pool thread has started is cancelled and run here (a forked child's copy
    of the pool has no threads).  After a failure, or a failed walk, nothing more runs or
    accumulates; a product's error re-raises once every started product has finished,
    and only if the walk, whose own error comes first, succeeded."""
    run, failed = walked, None
    for targets, work, future in queue:
        try:
            if future is not None and future.cancel():  # not started, or lost to a fork
                work = _take(work) if run else None
            elif future is not None:
                work = future.result()
        except Exception as exc:
            run, failed = False, failed or exc
        else:
            if run:
                _accum_split(targets, work)
    queue.clear()
    if walked and failed is not None:
        raise failed


def _sum_to_shape(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to the original operand shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _norm_axes(axes: _AxesArg, ndim: int) -> tuple[int, ...]:
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


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data

    def vjp(g: Array) -> None:
        _accum(a, _sum_to_shape(g, a.data.shape))
        _accum(b, _sum_to_shape(-g, b.data.shape))

    return _result(data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data

    def vjp(g: Array) -> None:
        _accum(a, _sum_to_shape(g * b.data, a.data.shape))
        _accum(b, _sum_to_shape(g * a.data, b.data.shape))

    return _result(data, (a, b), vjp)


def neg(a: Tensor) -> Tensor:
    def vjp(g: Array) -> None:
        _accum(a, -g)

    return _result(-a.data, (a,), vjp)


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


def take_last(a: Tensor, idx: Array) -> Tensor:
    """Fancy-index the last axis; output shape is ``a.shape[:-1] + idx.shape``."""
    idx = np.asarray(idx, dtype=np.int64)
    length = a.data.shape[-1]
    if idx.size and (idx.min() < 0 or idx.max() >= length):
        raise ValueError("gather index out of range")
    data = a.data[..., idx]

    def vjp(g: Array) -> None:
        if a.requires_grad:
            ga = np.zeros(a.data.shape)  # C-contiguous, so the reshape below is a view
            flat = ga.reshape(-1, length)
            rows = flat.shape[0]
            gb = g.reshape(rows, idx.size)
            np.add.at(flat, (np.arange(rows)[:, None], idx.reshape(-1)[None, :]), gb)
            _accum(a, ga)

    return _result(data, (a,), vjp)


# -- reductions ----------------------------------------------------------


def _spread(g: Array, shape: tuple[int, ...], axes: tuple[int, ...], keepdims: bool) -> Array:
    if not keepdims:
        for ax in axes:
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def tsum(a: Tensor, axes: _AxesArg = None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axes, a.ndim)
    data = a.data.sum(axis=axes, keepdims=keepdims)

    def vjp(g: Array) -> None:
        _accum(a, _spread(g, a.data.shape, axes, keepdims).copy())

    return _result(data, (a,), vjp)


def mean(a: Tensor, axes: _AxesArg = None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axes, a.ndim)
    count = int(np.prod([a.data.shape[ax] for ax in axes])) if axes else 1
    data = a.data.mean(axis=axes, keepdims=keepdims)

    def vjp(g: Array) -> None:
        _accum(a, _spread(g, a.data.shape, axes, keepdims) / count)

    return _result(data, (a,), vjp)


# -- nonlinearities -------------------------------------------------------


def sigmoid(a: Tensor) -> Tensor:
    # exp(-|x|) never overflows, so both branches stay finite
    t = np.exp(-np.abs(a.data))
    data = np.where(a.data >= 0, 1.0 / (1.0 + t), t / (1.0 + t))

    def vjp(g: Array) -> None:
        _accum(a, g * data * (1.0 - data))

    return _result(data, (a,), vjp)


def relu(a: Tensor) -> Tensor:
    data = np.maximum(a.data, 0.0)

    def vjp(g: Array) -> None:
        _accum(a, g * (a.data > 0))

    return _result(data, (a,), vjp)


def _layer_norm_fwd(x: Array, gamma: Array, beta: Array, eps: float) -> tuple[Array, Array, Array]:
    """(xhat * gamma + beta, xhat, inv): xhat = (x - mean) * inv over the last axis."""
    # in-place updates on fresh arrays: each new full-size temporary costs page faults
    xhat = x - x.mean(axis=-1, keepdims=True)
    inv = np.power((xhat * xhat).mean(axis=-1, keepdims=True) + eps, -0.5)
    xhat *= inv
    out = xhat * gamma
    out += beta
    return out, xhat, inv


def _layer_norm_vjp(g: Array, xhat: Array, inv: Array, gamma: Tensor, beta: Tensor) -> Array:
    """Accumulate the gamma and beta grads; return the (rows, d) input grad
    inv * (dxh - mean(dxh) - xh * mean(dxh * xh)), dxh = g * gamma, row means as GEMVs."""
    d = xhat.shape[-1]
    g, xhat, inv = g.reshape(-1, d), xhat.reshape(-1, d), inv.reshape(-1, 1)
    gx = g * xhat
    _accum(gamma, gx.sum(axis=0))
    _accum(beta, g.sum(axis=0))
    gx *= gamma.data  # dxh * xh
    row_mean = np.full((d, 1), 1.0 / d)
    dxhat = g * gamma.data
    np.multiply(xhat, gx @ row_mean, out=gx)
    gx += dxhat @ row_mean
    np.subtract(dxhat, gx, out=dxhat)
    dxhat *= inv
    return dxhat


def _workers() -> int:
    """Pool threads beside the caller: ``_WORKERS`` when set; else, when the BLAS runs one
    thread, one per other CPU in the affinity mask.  Left at its default, the BLAS runs one
    thread per CPU already, and pool threads calling it only contend for the cores."""
    if _WORKERS is not None:
        return _WORKERS
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return cpus - 1 if BLAS_THREADS == "1" else 0


def _submit(fns: Sequence[Callable[[], object]], workers: int) -> list:
    """Submit each call to the one shared pool, started (or grown) to ``workers`` threads
    first; returns their futures.  Workers call no traced op: the tracer keeps one span stack."""
    global _pool
    with _pool_lock:  # a resize shuts the old pool down: nobody may submit to it meanwhile
        if _pool is None or _pool[0] < workers:
            from concurrent.futures import ThreadPoolExecutor  # not at import: it loads logging (~11 ms)

            if _pool is not None:
                _pool[1].shutdown()
            _pool = (workers, ThreadPoolExecutor(workers, thread_name_prefix="encoder"))
        return [_pool[1].submit(fn) for fn in fns]


def _run_chunks(fn: Callable[[int], None], count: int) -> None:
    """Call ``fn(i)`` for i in range(count), shared between the calling thread and up to
    ``_workers()`` pool threads, never more threads than calls.  Returns once every
    started call has finished, so no worker still writes; then the first error
    re-raises, the caller's own first."""
    workers = min(_workers(), count - 1)
    todo, lock = iter(range(count)), threading.Lock()

    def drain() -> None:
        while True:
            with lock:
                i = next(todo, None)
            if i is None:
                return
            fn(i)

    futures = _submit([drain] * workers, workers) if workers > 0 else []
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
    softmax goes to ``attn_sink``.  When no graph is recorded, the forward runs in
    even chunks of at most ``_CHUNK_FLOATS // (p * ffn_dim)`` sequences, shared with
    the pool (``_run_chunks``).  Rows are independent and the bounds follow from the
    shapes, so the bytes never depend on the worker count; against one pass over all
    rows they differ only where the BLAS picks its GEMM kernel by row count.  In the
    backward, the parameter products go to the pool (``_accum_product``)."""
    n, p, d = x.data.shape
    h, dk = len(heads), d // len(heads)
    w1, b1, w2, b2 = ffn
    weights = [w for group in zip(*heads) for w in group]  # every wq, then every wk, then every wv
    wqkv = np.concatenate([w.data for w in weights], axis=1)
    scale = 1.0 / np.sqrt(dk)
    parents = (x, *ln1, *weights, wo, *ln2, *ffn)
    keep1, keep2 = (_keep_mask((n * p, d), dropout_rate, training, rng) for _ in range(2))
    out = np.empty((n * p, d))

    def fwd(lo: int, hi: int) -> tuple[Array, ...]:
        """The forward over sequences [lo, hi): writes their rows of ``out`` and returns what the VJP reads."""
        rows = slice(lo * p, hi * p)
        xs = x.data[lo:hi].reshape(-1, d)
        n1, xhat1, inv1 = _layer_norm_fwd(xs, ln1[0].data, ln1[1].data, eps)
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
            x1 *= keep1[rows]
        x1 += xs
        n2, xhat2, inv2 = _layer_norm_fwd(x1, ln2[0].data, ln2[1].data, eps)
        hidden = n2 @ w1.data
        hidden += b1.data
        np.maximum(hidden, 0.0, out=hidden)
        y = np.matmul(hidden, w2.data, out=out[rows])
        y += b2.data
        if keep2 is not None:
            y *= keep2[rows]
        y += x1
        return n1, xhat1, inv1, q, k, v, attn, ctx, n2, xhat2, inv2, hidden

    if _recording.get() and any(t.requires_grad for t in parents):
        n1, xhat1, inv1, q, k, v, attn, ctx, n2, xhat2, inv2, hidden = fwd(0, n)
    else:  # each chunk's (rows, ffn) hidden stays inside L2; nothing reduces over rows
        parts = -(-n // max(1, _CHUNK_FLOATS // (p * w1.data.shape[1])))
        bounds = [n * i // parts for i in range(parts + 1)]  # even chunks: no lone row takes numpy's vector path
        attn = None if attn_sink is None else np.empty((n, h, p, p))

        def chunk(i: int) -> None:
            lo, hi = bounds[i], bounds[i + 1]
            maps = fwd(lo, hi)[6]
            if attn is not None:
                attn[lo:hi] = maps

        _run_chunks(chunk, parts)
    if attn_sink is not None:
        attn_sink.extend(Tensor(attn[:, j]) for j in range(h))

    def vjp(g: Array) -> None:  # parameter products may run on a pool thread: their inputs are never written after
        g = g.reshape(-1, d)
        gff = g if keep2 is None else g * keep2
        _accum_product((b2,), np.sum, gff, 0)
        _accum_product((w2,), np.matmul, hidden.T, gff)
        ghid = gff @ w2.data.T
        ghid *= hidden > 0
        _accum_product((b1,), np.sum, ghid, 0)
        _accum_product((w1,), np.matmul, n2.T, ghid)
        gx1 = _layer_norm_vjp(ghid @ w1.data.T, xhat2, inv2, *ln2)
        gx1 += g
        gatt = gx1 if keep1 is None else gx1 * keep1
        _accum_product((wo,), np.matmul, ctx.T, gatt)
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
        _accum_product(weights, np.matmul, n1.T, gqkv)
        gx = _layer_norm_vjp(gqkv @ wqkv.T, xhat1, inv1, *ln1)
        gx += gx1  # not gx1 += gx: gx1 may be gatt, still read by the wo product
        _accum(x, gx.reshape(x.data.shape))

    return _result(out.reshape(n, p, d), parents, vjp)  # vjp is kept only on the recorded branch


def log(a: Tensor) -> Tensor:
    with np.errstate(divide="ignore", invalid="ignore"):
        data = np.log(a.data)

    def vjp(g: Array) -> None:
        _accum(a, g / a.data)

    return _result(data, (a,), vjp)


def power(a: Tensor, exponent: float) -> Tensor:
    exponent = float(exponent)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        data = np.power(a.data, exponent)

    def vjp(g: Array) -> None:
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            local = exponent * np.power(a.data, exponent - 1.0)
        _accum(a, g * local)

    return _result(data, (a,), vjp)


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values to [lo, hi]; gradient passes through the interior."""
    if lo >= hi:
        raise ValueError("clip needs lo < hi")
    data = np.clip(a.data, lo, hi)

    def vjp(g: Array) -> None:
        _accum(a, g * ((a.data >= lo) & (a.data <= hi)))

    return _result(data, (a,), vjp)


def _keep_mask(shape: tuple[int, ...], rate: float, training: bool, rng: np.random.Generator | None) -> Array | None:
    """Inverted-dropout multipliers (0 or 1/(1-rate)), or None when dropout is the identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return None
    if rng is None:
        raise ValueError("training-mode dropout needs an explicit rng")
    keep = rng.random(shape)
    np.greater_equal(keep, rate, out=keep)
    keep *= 1.0 / (1.0 - rate)
    return keep


def dropout(a: Tensor, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: survivors scale by 1/(1-rate); identity in eval mode."""
    keep = _keep_mask(a.data.shape, rate, training, rng)
    if keep is None:
        return a
    data = a.data * keep

    def vjp(g: Array) -> None:
        _accum(a, g * keep)

    return _result(data, (a,), vjp)


# -- convolutions ----------------------------------------------------------


def conv1d(a: Tensor, weight: Tensor, bias: Tensor | None = None, padding: str = "same") -> Tensor:
    """Cross-correlate the last axis with a bank of kernels.

    ``a`` is (..., L), ``weight`` is (features, k), ``bias`` is (features,).
    Returns (..., L_out, features) where L_out = L for "same" padding and
    L - k + 1 for "valid".
    """
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
    out = out.reshape(a.data.shape[:-1] + (out_len, n_feat))

    parents = (a, weight) if bias is None else (a, weight, bias)

    def vjp(g: Array) -> None:
        g2 = g.reshape(-1, n_feat)
        if bias is not None and bias.requires_grad:
            _accum(bias, g2.sum(axis=0))
        if weight.requires_grad:
            _accum(weight, g2.T @ cols)
        if a.requires_grad:
            gcols = (g2 @ weight.data).reshape(a.data.shape[:-1] + (out_len, k))
            gxp = np.zeros(xp.shape)
            for j in range(k):
                gxp[..., j : j + out_len] += gcols[..., j]
            _accum(a, gxp[..., left : left + length])

    return _result(out, parents, vjp)


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
