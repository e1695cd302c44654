"""Spans around the program's public calls, installed from outside the program.

``instrumented(tracer)`` replaces module attributes with wrappers for as long
as the context is open. Each wrapper looks the name up where its caller does
(``trainer.model_forward`` and ``inference.model_forward`` are separate
bindings of one function), records a span ``[name, start, end, parent, op]``
and, at some boundaries, a count. Spans stay in memory until ``dump``.

A layer's self time is the duration of its spans minus the time their direct
children cover; calls made while ``op`` is ``SETUP`` are kept apart from the
measured operations.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import defaultdict

from serialcast import autodiff, backbone, cli, dataloader, inference, objectives, trainer

SETUP = "setup"
# The eval workload asks for serial mode: only that `evaluate` call's passes
# reach the printed report, the other mode's call only fills in a pass count.
REPORT_MODE = "serial"

# (owner, attribute, span name)
SPANS = [
    (trainer, "run_pretrain", "trainer.run_pretrain"),
    (trainer, "train_step", "trainer.train_step"),
    (dataloader.WindowSampler, "sample_raw", "dataloader.sample_raw"),
    (cli, "read_csv_series", "dataloader.read_csv_series"),
    (trainer, "resample", "datagen.resample"),
    (trainer, "value_flip", "datagen.value_flip"),
    (trainer, "make_supervised_batch", "tokenizer.make_supervised_batch"),
    (inference, "renormalize", "tokenizer.renormalize"),
    (inference, "patchify", "tokenizer.patchify"),
    (backbone, "embed_patches", "tokenizer.embed_patches"),
    (backbone, "rmsnorm", "numerics.rmsnorm"),
    (backbone, "l2_normalize", "numerics.l2_normalize"),
    (backbone, "scaled_masked_softmax", "numerics.scaled_masked_softmax"),
    (trainer, "model_forward", "backbone.model_forward"),
    (inference, "model_forward", "backbone.model_forward"),
    (backbone, "moe_block", "backbone.moe_block"),
    (backbone, "attention_forward", "backbone.attention_forward"),
    (backbone, "moe_forward", "backbone.moe_forward"),
    (autodiff.Tensor, "backward", "autodiff.backward"),
    (trainer, "stage_loss", "objectives.stage_loss"),
    (objectives, "patch_project", "objectives.patch_project"),
    (inference, "patch_project", "objectives.patch_project"),
    (trainer, "clip_gradients", "trainer.clip_gradients"),
    (trainer, "adamw_update", "trainer.adamw_update"),
    (trainer, "save_checkpoint", "trainer.save_checkpoint"),
    (trainer, "load_checkpoint", "trainer.load_checkpoint"),
    (cli, "load_checkpoint", "trainer.load_checkpoint"),
    (trainer, "validate_params", "trainer.validate_params"),
    (cli, "validate_params", "trainer.validate_params"),
    (inference, "forecast", "inference.forecast"),
    (inference, "forecast_rolling_ntp", "inference.forecast_rolling_ntp"),
    (cli, "run", "cli.run"),
]

# per-layer metric -> span names whose self time it sums, in ms per operation
LAYER_TIMES = {
    "dataloader.sample_ms": ("dataloader.sample_raw",),
    "dataloader.read_csv_ms": ("dataloader.read_csv_series",),
    "datagen.augment_ms": ("datagen.resample", "datagen.value_flip"),
    "tokenizer.batch_ms": ("tokenizer.make_supervised_batch", "tokenizer.renormalize",
                           "tokenizer.patchify"),
    "tokenizer.embed_ms": ("tokenizer.embed_patches",),
    "numerics.norm_ms": ("numerics.rmsnorm", "numerics.l2_normalize"),
    "numerics.softmax_ms": ("numerics.scaled_masked_softmax",),
    "backbone.forward_ms": ("backbone.model_forward", "backbone.moe_block"),
    "backbone.attention_ms": ("backbone.attention_forward",),
    "backbone.moe_ms": ("backbone.moe_forward",),
    "autodiff.backward_ms": ("autodiff.backward",),
    "objectives.loss_ms": ("objectives.stage_loss",),
    "objectives.head_ms": ("objectives.patch_project",),
    "trainer.optimizer_ms": ("trainer.clip_gradients", "trainer.adamw_update"),
    "cli.eval_ms": ("cli.run",),
}


def _ratio(part: float, base: float) -> float:
    return part / base if base else 0.0


class Tracer:
    """Spans and counts of one run, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = SETUP
        self.counts: dict[str, float] = defaultdict(float)  # measured operations only
        self.saved_bytes: list[int] = []
        self.useful = True
        self.steps = 0

    def count(self, name: str, value: float = 1.0):
        if self.op != SETUP:
            self.counts[name] += value

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- wrappers that count, or need state from before the call -------------

    def _passes(self, args, kwargs, dist):
        self.count("inference.passes", dist.passes)
        if self.useful:
            self.count("inference.useful_passes", dist.passes)

    def _saved(self, args, kwargs, result):
        self.saved_bytes.append(os.path.getsize(args[2] if len(args) > 2 else kwargs["path"]))

    def _queue_get(self, get):
        def traced(queue, index):
            before = queue.load_count
            data = get(queue, index)
            self.count("dataloader.shard_loads", queue.load_count - before)
            self.count("dataloader.queue_gets")
            return data
        return traced

    def _tensor_init(self, init):
        def traced(t, *args, **kwargs):
            self.count("autodiff.tensors")
            init(t, *args, **kwargs)
        return traced

    def _draw_batch(self, draw_batch):
        def traced(*args, **kwargs):
            self.op = f"step{self.steps}"  # every training step starts with its batch
            self.steps += 1
            return draw_batch(*args, **kwargs)
        return traced

    def _evaluate(self, evaluate):
        spanned = self.wrap("inference.evaluate", evaluate)

        def traced(*args, **kwargs):
            self.count("inference.evaluate_calls")
            self.useful = kwargs.get("mode", "serial") == REPORT_MODE
            try:
                return spanned(*args, **kwargs)
            finally:
                self.useful = True
        return traced

    # -- per-layer metrics -----------------------------------------------------

    def self_times(self) -> tuple[dict, dict, dict]:
        """Self seconds per span name over measured operations, over all
        calls, and call counts over all calls."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        measured, total, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for i, (name, start, end, _parent, op) in enumerate(self.spans):
            own = end - start - child[i]
            total[name] += own
            calls[name] += 1
            if op != SETUP:
                measured[name] += own
        return measured, total, calls

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-layer metrics; a layer the run never reached reads 0."""
        measured, total, calls = self.self_times()
        c = self.counts
        out = {metric: 1000.0 * sum(measured[n] for n in names) / n_ops
               for metric, names in LAYER_TIMES.items()}
        out["dataloader.shard_loads"] = c["dataloader.shard_loads"] / n_ops
        gets = c["dataloader.queue_gets"]
        out["dataloader.queue_hit_ratio"] = _ratio(gets - c["dataloader.shard_loads"], gets)
        out["backbone.blocks"] = sum(1 for s in self.spans
                                     if s[0] == "backbone.moe_block" and s[4] != SETUP) / n_ops
        out["autodiff.tensors"] = c["autodiff.tensors"] / n_ops
        out["trainer.checkpoint_save_ms"] = _ratio(1000.0 * total["trainer.save_checkpoint"],
                                                   calls["trainer.save_checkpoint"])
        out["trainer.checkpoint_bytes"] = _ratio(sum(self.saved_bytes), len(self.saved_bytes))
        out["trainer.checkpoint_load_ms"] = _ratio(
            1000.0 * (total["trainer.load_checkpoint"] + total["trainer.validate_params"]),
            calls["trainer.load_checkpoint"])
        out["inference.passes"] = c["inference.passes"] / n_ops
        out["inference.evaluate_calls"] = c["inference.evaluate_calls"] / n_ops
        out["inference.useful_pass_ratio"] = _ratio(c["inference.useful_passes"],
                                                    c["inference.passes"])
        return out

    def dump(self, path: str):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans,
                       "counts": self.counts}, f, separators=(",", ":"))


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Install every wrapper; restore the original attributes on exit."""
    after = {"inference.forecast": tracer._passes, "inference.forecast_rolling_ntp": tracer._passes,
             "trainer.save_checkpoint": tracer._saved}
    factories = [(dataloader.ShardQueue, "get", tracer._queue_get),
                 (autodiff.Tensor, "__init__", tracer._tensor_init),
                 (trainer, "draw_batch", tracer._draw_batch),
                 (cli, "evaluate", tracer._evaluate)]
    factories += [(owner, attr, functools.partial(tracer.wrap, name, after=after.get(name)))
                  for owner, attr, name in SPANS]
    originals = []
    try:
        for owner, attr, factory in factories:
            fn = getattr(owner, attr)
            originals.append((owner, attr, fn))
            setattr(owner, attr, factory(fn))
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)
