"""Span tracing around calls into the program's layers, from outside `src/`.

Each traced function is replaced, in every `seizureformer` module namespace
that binds it, by a wrapper that records one span: name, start, end, parent
span and pass id.  Spans stay in memory until the run writes them out.  A
layer's self time is its span's duration minus the part of that interval its
child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# metric prefix -> (defining module, attribute).  The prefix names the layer
# the call is made from, so `train.zero_grad` is tensor's zero_grad as the
# training loop looks it up and `cli.write_manifest` is train's writer as the
# CLI uses it.
TRACED = {
    "tensor.backward": ("tensor", "Tensor.backward"),
    "tensor.matmul": ("tensor", "matmul"),
    "tensor.conv1d": ("tensor", "conv1d"),
    "tensor.conv2d": ("tensor", "conv2d"),
    "tensor.softmax": ("tensor", "softmax"),
    "tensor.dropout": ("tensor", "dropout"),
    "model.patchify": ("model", "patchify"),
    "model.embed_patches": ("model", "embed_patches"),
    "model.project_position": ("model", "project_position"),
    "model.cvt_conv": ("model", "cvt_conv"),
    "model.mhsa_encoder": ("model", "mhsa_encoder"),
    "model.se_recalibrate": ("model", "se_recalibrate"),
    "model.predict_head": ("model", "predict_head"),
    "model.weighted_bce": ("model", "weighted_bce"),
    "model.forward": ("model", "forward"),
    "train.train_loop": ("train", "train_loop"),
    "train.optimizer_step": ("train", "optimizer_step"),
    "train.evaluate": ("train", "evaluate"),
    "train.zero_grad": ("tensor", "zero_grad"),
    "metrics.report": ("metrics", "report"),
    "metrics.roc_auc": ("metrics", "roc_auc"),
    "metrics.pr_auc": ("metrics", "pr_auc"),
    "data.parse_csv": ("data", "parse_csv"),
    "data.zscore_normalize": ("data", "zscore_normalize"),
    "data.label_days": ("data", "label_days"),
    "data.make_windows": ("data", "make_windows"),
    "data.split_chronological": ("data", "split_chronological"),
    "cli.save_checkpoint": ("model", "save_checkpoint"),
    "cli.model_from_checkpoint": ("model", "model_from_checkpoint"),
    "cli.write_manifest": ("train", "write_manifest"),
}

PACKAGE = "seizureformer"


@dataclass(frozen=True)
class Span:
    span_id: int
    parent_id: int  # 0 for a root span
    name: str
    start: float
    end: float
    pass_id: int


class Tracer:
    """Collects spans and boundary counters for the wrapped functions."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.pass_id = 0
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``observe(tracer, args, result)``
        runs after a successful call to update boundary counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(span_id)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans.append(Span(span_id, parent, name, start, end, self.pass_id))
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def install(self, observers: dict[str, Callable] | None = None) -> None:
        """Wrap every name in TRACED wherever a package module binds it.

        A name the program no longer defines is recorded in ``absent``.
        """
        observers = observers or {}
        modules = [m for key, m in sorted(sys.modules.items()) if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for name, (module_name, attr) in TRACED.items():
            owner_name, _, method = attr.rpartition(".")
            original = _lookup(sys.modules.get(f"{PACKAGE}.{module_name}"), attr)
            if original is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            wrapper = self.wrap(name, original, observers.get(name))
            if owner_name:  # a method: patch its class once
                cls = getattr(sys.modules[f"{PACKAGE}.{module_name}"], owner_name)
                self._patch(cls, method, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def write(self, path: Path, run_id: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"run": run_id, "pass": s.pass_id, "id": s.span_id, "parent": s.parent_id,
                         "name": s.name, "start": s.start, "end": s.end}
                    )
                    + "\n"
                )


def _lookup(module, attr: str):
    obj = module
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return obj


def self_times(spans: list[Span]) -> dict[int, float]:
    """span id -> duration minus the union of its direct children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.span_id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = (s.end - s.start) - covered
    return out


def layer_totals(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """name -> (total self seconds, call count)."""
    own = self_times(spans)
    totals: dict[str, list] = {}
    for s in spans:
        entry = totals.setdefault(s.name, [0.0, 0])
        entry[0] += own[s.span_id]
        entry[1] += 1
    return {name: (t, n) for name, (t, n) in totals.items()}


def checkpoint_size(tracer: Tracer, args, result) -> None:
    tracer.counters["cli.checkpoint_bytes"] = max(
        tracer.counters.get("cli.checkpoint_bytes", 0), os.path.getsize(args[0])
    )


def observe_windows(tracer: Tracer, args, result) -> None:
    tracer.count("data.windows", len(result))


def observe_split(tracer: Tracer, args, result) -> None:
    tracer.count("data.split_in", len(args[0]))
    tracer.count("data.split_out", sum(len(block) for block in result))


def observe_train_loop(tracer: Tracer, args, result) -> None:
    history = result[1]
    tracer.count("train.best_epochs", history.best_epoch + 1)
    tracer.count("train.epochs", len(history.train_loss))


OBSERVERS = {
    "cli.save_checkpoint": checkpoint_size,
    "cli.model_from_checkpoint": checkpoint_size,
    "data.make_windows": observe_windows,
    "data.split_chronological": observe_split,
    "train.train_loop": observe_train_loop,
}
