"""Span tracing of npde's public functions, from outside the package.

The traced run wraps each listed function at every module binding it is
imported under (``pad`` lives in ``grid`` and is imported by ``stencil``,
``solver``, ``train``, ``blocks`` and the package root), and each listed
method on its class. A wrapper records one span (name, start, end, parent)
while the tracer is enabled and costs one attribute test when it is not.
Spans stay in memory and are written out once, after the run.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from array import array
from collections import defaultdict

import numpy as np

# npde modules whose namespaces may hold a binding of a wrapped function.
MODULES = ("npde", "npde.grid", "npde.stencil", "npde.reactions", "npde.solver",
           "npde.blocks", "npde.train", "npde.optim", "npde.fieldio", "npde.cli",
           "npde.verify", "npde.reference")

# span name -> (defining module, function name)
FUNCTIONS = {
    "grid.pad": ("npde.grid", "pad"),
    "grid.pad_coefficient": ("npde.grid", "pad_coefficient"),
    "stencil.elliptic_apply": ("npde.stencil", "elliptic_apply"),
    "stencil.diffusion_term": ("npde.stencil", "diffusion_term"),
    "solver.solve_forward": ("npde.solver", "solve_forward"),
    "solver.step_explicit": ("npde.solver", "step_explicit"),
    "solver.step_implicit": ("npde.solver", "step_implicit"),
    "solver.thomas_solve": ("npde.solver", "thomas_solve"),
    "solver.step_two_component": ("npde.solver", "step_two_component"),
    "solver.solve_two_component": ("npde.solver", "solve_two_component"),
    "blocks.gen_conv1d": ("npde.blocks", "gen_conv1d"),
    "train.train_supervised": ("npde.train", "train_supervised"),
    "train.batch_loss": ("npde.train", "batch_loss"),
    "train.batch_gradient": ("npde.train", "batch_gradient"),
    "optim.adam_step": ("npde.optim", "adam_step"),
    "fieldio.save_trajectory_csv": ("npde.fieldio", "save_trajectory_csv"),
    "cli.main": ("npde.cli", "main"),
}

# span name -> (defining module, class name, method names); several methods
# may share one span name, as ReactionSpec's four pointwise entry points do.
METHODS = {
    "blocks.Conv1DBlock.forward": ("npde.blocks", "Conv1DBlock", ("forward",)),
    "train.Pipeline.forward_with_caches": ("npde.train", "Pipeline", ("forward_with_caches",)),
    "train.Pipeline.backward": ("npde.train", "Pipeline", ("backward",)),
    "train.DenseLayer.forward": ("npde.train", "DenseLayer", ("forward",)),
    "train.DenseLayer.backward": ("npde.train", "DenseLayer", ("backward",)),
    "train.DiffusionLayer.forward": ("npde.train", "DiffusionLayer", ("forward",)),
    "train.DiffusionLayer.backward": ("npde.train", "DiffusionLayer", ("backward",)),
    "reactions.pointwise": ("npde.reactions", "ReactionSpec",
                            ("__call__", "deriv", "activate", "activate_deriv")),
}

# Every span name, plus reactions.gray_scott: the f and g closures built by
# npde.reactions.gray_scott, wrapped when the factory returns them.
SPAN_NAMES = tuple(FUNCTIONS) + tuple(METHODS) + ("reactions.gray_scott",)


class Tracer:
    """In-memory span store plus the counters recorded at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.enabled = False

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` recording a span named ``name`` per call while enabled.

        ``after(counters, args, kwargs, result)`` updates counters after a
        successful traced call.
        """
        nid = self._id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if after is not None:
                after(self.counters, args, kwargs, result)
            return result

        return traced

    def arrays(self):
        return (np.asarray(self.name_id, dtype=np.int64), np.asarray(self.parent, dtype=np.int64),
                np.asarray(self.start, dtype=float), np.asarray(self.end, dtype=float))

    def save(self, path) -> None:
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), name_id=name_id,
                            parent=parent, start=start, end=end)


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per-span duration minus the time covered by its direct children.

    Spans come from one call stack, so the children of a span lie inside it
    and do not overlap one another: the covered time is their summed length.
    """
    duration = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=duration.size)
    return duration - covered


def aggregate(names: list, name_id: np.ndarray, parent: np.ndarray,
              start: np.ndarray, end: np.ndarray) -> dict:
    """``{span name: (calls, self seconds)}`` over all recorded spans."""
    own = self_times(parent, start, end)
    calls = np.bincount(name_id, minlength=len(names))
    seconds = np.bincount(name_id, weights=own, minlength=len(names))
    return {name: (int(calls[i]), float(seconds[i])) for i, name in enumerate(names)}


def _count_pad_bytes(counters, args, kwargs, result):
    counters["grid.pad.bytes_computed"] += result.nbytes


def _count_written(counters, args, kwargs, result):
    counters["fieldio.bytes_written"] += os.path.getsize(args[0])


def _count_epochs(counters, args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs["data"]
    counters["train.epochs"] += result.epochs
    counters["train.sample_epochs"] += result.epochs * data.n_train


AFTER = {
    "grid.pad": _count_pad_bytes,
    "fieldio.save_trajectory_csv": _count_written,
    "train.train_supervised": _count_epochs,
}


def _rebind(modules, original, replacement) -> int:
    """Point every module attribute bound to ``original`` at ``replacement``."""
    hits = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    return hits


def install(tracer: Tracer) -> None:
    """Wrap every listed npde function and method; call before building inputs."""
    modules = [importlib.import_module(m) for m in MODULES]
    for name, (mod_name, attr) in FUNCTIONS.items():
        original = getattr(importlib.import_module(mod_name), attr)
        if _rebind(modules, original, tracer.wrap(name, original, AFTER.get(name))) == 0:
            raise RuntimeError(f"no binding of {mod_name}.{attr} found")
    for name, (mod_name, cls_name, methods) in METHODS.items():
        cls = getattr(importlib.import_module(mod_name), cls_name)
        for method in methods:
            setattr(cls, method, tracer.wrap(name, getattr(cls, method)))

    reactions = importlib.import_module("npde.reactions")
    factory = reactions.gray_scott

    def gray_scott(feed, kill):
        rxn = factory(feed, kill)
        return reactions.TwoComponentReaction(
            rxn.name, tracer.wrap("reactions.gray_scott", rxn.f),
            tracer.wrap("reactions.gray_scott", rxn.g))

    _rebind(modules, factory, functools.wraps(factory)(gray_scott))


def layer_metrics(spans: dict, counters: dict) -> dict:
    """Per-layer metrics of one traced rep: ``.calls``, ``.self_s`` and counters.

    Every span name appears, with zeros where the rep never called it.
    """
    out = {}
    for name in SPAN_NAMES:
        calls, seconds = spans.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = seconds
    for key in ("grid.pad.bytes_computed", "fieldio.bytes_written", "train.epochs"):
        out[key] = counters.get(key, 0)
    implicit_steps = out["solver.step_implicit.calls"]
    out["solver.thomas_solve.calls_per_step"] = (
        out["solver.thomas_solve.calls"] / implicit_steps if implicit_steps else 0.0)
    sample_epochs = counters.get("train.sample_epochs", 0)
    out["train.forwards_per_sample_epoch"] = (
        out["train.Pipeline.forward_with_caches.calls"] / sample_epochs if sample_epochs else 0.0)
    return out


def unit(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if metric.endswith("_s"):
        return "s"
    if "bytes" in metric:
        return "B"
    return "count"
