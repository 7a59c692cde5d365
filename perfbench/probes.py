"""Spans recorded from outside the program, around calls into its modules.

The benchmark never edits `src/`. It rebinds public functions of the
hallucinet modules to timed wrappers, in every loaded `hallucinet.*`
module that holds the same function object, so that call sites which
imported a name (`from .engine import conv2d`) are covered as well.

Two probe sets exist:

* boundary probes, installed on every run: batch hand-over in
  `PatchSampler.batches` (step boundaries), per-scene boundaries in
  `evaluate`, checkpoint saves and tiled predictions (kept for the
  output checks). They cost a few clock reads per step or scene.
* layer probes, installed only with `--trace 1`: engine ops and their
  backward hooks, model, losses, optimizer, data and evaluate functions.

Spans are (name, start, end, parent) rows held in memory; `self_times`
reduces them to inclusive and self time per name.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

import hallucinet.data as data
import hallucinet.engine.functional as engine_functional
import hallucinet.engine.tensor as engine_tensor
import hallucinet.evaluate as evaluate
import hallucinet.losses as losses
import hallucinet.model as model
import hallucinet.synthetic as synthetic
import hallucinet.train as train

ELEMENTWISE = ("add", "mul", "log", "clamp_min", "tsum", "tmean")
NETWORK_OPS = ("conv2d", "transposed_conv2d", "batchnorm", "relu", "maxpool2",
               "channel_softmax", "gather_channel", "sigmoid")
OP_GROUPS = NETWORK_OPS + ("elementwise",)


class Tracer:
    """In-memory span recorder with exact counters."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.values: dict = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.clock(), 0.0, parent])
        self.stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = self.clock()
        # pop back to idx, so a span left open by an exception cannot leak
        while self.stack and self.stack.pop() != idx:
            pass

    def wrap(self, fn, name, after=None):
        """Timed wrapper; `name` may be a callable of the call's args."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.begin(name(args) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                after(out, args, kwargs)
            return out

        return traced

    # -- rebinding -----------------------------------------------------------
    def rebind(self, original, replacement):
        """Swap `original` for `replacement` wherever a hallucinet module binds it."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("hallucinet"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def patch_attr(self, owner, attr, replacement):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- reduction -----------------------------------------------------------
    def self_times(self) -> dict[str, dict]:
        """Per span name: call count, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["incl_s"] += end - start
            row["self_s"] += end - start - child[i]
        return dict(out)


# -- boundary probes ---------------------------------------------------------

def install_boundary_probes(tracer: Tracer, on_save=None, on_tiled=None):
    """Step, scene and checkpoint boundaries; cheap enough for every run.

    `tracer.values["batch_calls"]` gets one entry per `PatchSampler.batches`
    call: a list of (request time, yield time, patch count) per batch, then
    the request time at which the generator ran out.
    """
    calls: list[dict] = tracer.values.setdefault("batch_calls", [])
    orig_batches = data.PatchSampler.batches

    def batches(sampler, *args, **kwargs):
        record = {"batches": [], "end": None}
        calls.append(record)
        gen = orig_batches(sampler, *args, **kwargs)
        clock = tracer.clock
        while True:
            t_req = clock()
            wait = tracer.begin("data.batch_wait")
            try:
                item = next(gen)
            except StopIteration:
                tracer.end(wait)
                record["end"] = t_req
                return
            tracer.end(wait)
            record["batches"].append((t_req, clock(), int(len(item[1]))))
            step = tracer.begin("train.step")
            try:
                yield item
            finally:
                tracer.end(step)

    tracer.patch_attr(data.PatchSampler, "batches", batches)

    # a scene spans from its raster load to its confusion update; the
    # current bindings are wrapped, so layer probes installed first stay
    scenes: list[list[float]] = tracer.values.setdefault("scenes", [])
    inner_load, inner_acc = evaluate.load_scene, evaluate.accumulate

    def load_scene_probe(*args, **kwargs):
        scenes.append([tracer.clock(), None])
        return inner_load(*args, **kwargs)

    def accumulate_probe(*args, **kwargs):
        out = inner_acc(*args, **kwargs)
        scenes[-1][1] = tracer.clock()
        return out

    # only evaluate's bindings mark scenes; the sampler loads scenes too
    tracer.patch_attr(evaluate, "load_scene", load_scene_probe)
    tracer.patch_attr(evaluate, "accumulate", accumulate_probe)

    if on_save is not None:
        orig_save = model.save_checkpoint

        def save_probe(bundle, path, *args, **kwargs):
            out = orig_save(bundle, path, *args, **kwargs)
            on_save(bundle, path)
            return out

        tracer.rebind(orig_save, save_probe)

    if on_tiled is not None:
        orig_tiled = evaluate.tiled_inference

        def tiled_probe(*args, **kwargs):
            return on_tiled(orig_tiled(*args, **kwargs), args)

        tracer.rebind(orig_tiled, tiled_probe)


# -- layer probes --------------------------------------------------------------

def _wrap_engine_op(t: Tracer, fn, group: str):
    """Forward span per call, backward span per hook; conv work from shapes."""
    fwd_name, bwd_name = f"engine.{group}.fwd", f"engine.{group}.bwd"
    is_conv = group == "conv2d"
    counts = t.counts

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = t.begin(fwd_name)
        try:
            out = fn(*args, **kwargs)
        finally:
            t.end(idx)
        counts[f"engine.{group}.calls"] += 1
        bwd_flop = 0
        if is_conv:
            x, w = args[0], args[1]
            n, co, ho, wo = out.data.shape
            flop = 2 * n * co * ho * wo * w.data.shape[1] * w.data.shape[2] * w.data.shape[3]
            counts["engine.conv2d.flop"] += flop
            counts["engine.conv2d.bytes_out"] += out.data.nbytes
            # the hook computes dx and dw only for inputs that need them
            bwd_flop = flop * (int(x.requires_grad) + int(w.requires_grad))
        hook = out._backward
        if hook is not None:
            counts["engine.graph_nodes"] += 1

            def timed_hook(node):
                j = t.begin(bwd_name)
                try:
                    hook(node)
                finally:
                    t.end(j)
                if bwd_flop:
                    counts["engine.conv2d.flop"] += bwd_flop

            out._backward = timed_hook
        return out

    t.rebind(fn, traced)


def install_layer_probes(t: Tracer):
    """Wrap the public functions of every module; `--trace 1` only."""
    for attr in ELEMENTWISE:
        _wrap_engine_op(t, getattr(engine_tensor, attr), "elementwise")
    for attr in NETWORK_OPS:
        _wrap_engine_op(t, getattr(engine_functional, attr), attr)
    t.rebind(engine_tensor.backward, t.wrap(engine_tensor.backward, "engine.backward"))

    counts = t.counts

    t.patch_attr(model.BranchNet, "forward",
                 t.wrap(model.BranchNet.forward, lambda a: f"model.branch_fwd.{a[0].role}"))
    t.rebind(model.fuse_logits, t.wrap(model.fuse_logits, "model.fuse"))
    if hasattr(losses, "_fuse"):  # the objective's private copy of fuse_logits
        t.rebind(losses._fuse, t.wrap(losses._fuse, "model.fuse"))

    def count_tile(out, args, kwargs):
        counts["evaluate.tile_px"] += int(np.prod(next(iter(args[1].values())).shape[-2:]))

    t.rebind(model.predict, t.wrap(model.predict, "model.predict", count_tile))

    def count_ckpt(out, args, kwargs):
        counts["model.checkpoint_bytes"] += os.path.getsize(args[1])

    t.rebind(model.save_checkpoint, t.wrap(model.save_checkpoint, "model.checkpoint_save",
                                           count_ckpt))
    t.rebind(model.load_checkpoint, t.wrap(model.load_checkpoint, "model.checkpoint_load"))

    def count_terms(out, args, kwargs):
        t.values["losses.terms"] = len(out.terms)

    for name in ("composite_loss_single", "composite_loss_multi"):
        fn = getattr(losses, name)
        t.rebind(fn, t.wrap(fn, "losses.objective", count_terms))
    t.rebind(losses.weighted_cross_entropy,
             t.wrap(losses.weighted_cross_entropy, "losses.weighted_ce"))
    t.rebind(losses.hallucination_loss, t.wrap(losses.hallucination_loss, "losses.mimicry"))
    t.rebind(losses.calibrate_gamma, t.wrap(losses.calibrate_gamma, "losses.calibrate"))

    t.rebind(train.clip_gradients, t.wrap(train.clip_gradients, "train.clip"))
    orig_adam = train.adam_step

    def adam_probe(params, grads, state, *args, **kwargs):
        # adam_step skips the update of a parameter that is not trainable,
        # so its gradient was computed in vain
        for p, g in zip(params, grads):
            if g is not None:
                counts["train.grad_elems"] += g.size
                if not p.trainable:
                    counts["train.frozen_grad_elems"] += g.size
        idx = t.begin("train.adam")
        try:
            out = orig_adam(params, grads, state, *args, **kwargs)
        finally:
            t.end(idx)
        nbytes = sum(a.nbytes for a in state.m.values()) + sum(a.nbytes for a in state.v.values())
        t.values["train.adam_state_bytes"] = max(nbytes, t.values.get("train.adam_state_bytes", 0))
        return out

    t.rebind(orig_adam, functools.wraps(orig_adam)(adam_probe))

    t.patch_attr(data.PatchSampler, "__init__",
                 t.wrap(data.PatchSampler.__init__, "data.sampler_init"))
    t.rebind(data.load_scene, t.wrap(data.load_scene, "data.load_scene"))

    def count_read(out, args, kwargs):
        counts["data.bytes_read"] += os.path.getsize(args[0])

    t.rebind(data.read_tensor_file, t.wrap(data.read_tensor_file, "data.read", count_read))
    t.rebind(synthetic.generate_synthetic,
             t.wrap(synthetic.generate_synthetic, "synthetic.generate"))
    t.rebind(synthetic.generate_scene, t.wrap(synthetic.generate_scene, "synthetic.scene"))

    def count_scene_px(out, args, kwargs):
        counts["evaluate.scene_px"] += int(np.prod(next(iter(args[1].values())).shape[-2:]))

    t.rebind(evaluate.tiled_inference,
             t.wrap(evaluate.tiled_inference, "evaluate.tiled_inference", count_scene_px))
    t.rebind(evaluate.boundary_eroded_mask,
             t.wrap(evaluate.boundary_eroded_mask, "evaluate.erosion"))
    t.rebind(evaluate.accumulate, t.wrap(evaluate.accumulate, "evaluate.accumulate"))
    t.rebind(evaluate.metrics, t.wrap(evaluate.metrics, "evaluate.metrics"))
