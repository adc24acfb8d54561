"""Span tracing of nnadc from outside the library.

Every traced function is replaced, for the duration of a traced run, by
a wrapper installed under the name its caller looks it up by.  Modules
that bind a function at import (``from .crossbar import vmm``) keep their
own reference, so those names are patched in the calling module, not in
the defining one.

Each wrapped call appends one span ``[name, start, end, parent]`` to an
in-memory list; nothing is written until the run ends.  A span's self
time is its duration minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

import numpy as np

from nnadc import (config, crossbar, dse, metrics, modelio, pipeline,
                   signal_core, sweep, trainer)


def _arg_getter(fn, name):
    """Return ``get(args, kwargs)`` reading parameter ``name`` of ``fn``."""
    params = list(inspect.signature(fn).parameters)
    index = params.index(name)

    def get(args, kwargs):
        return args[index] if len(args) > index else kwargs[name]
    return get, index


class Tracer:
    """In-memory span recorder plus counters, with reversible patching."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1]
        self.counts = defaultdict(int)
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def spanned(self, fn, name):
        """Wrap ``fn`` so each call records a span.

        ``name`` is a string or ``name(args, kwargs, parent_name)``.
        """
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        fixed = isinstance(name, str)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            label = name if fixed else name(
                args, kwargs, spans[parent][0] if parent >= 0 else None)
            rec = [label, clock(), 0.0, parent]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def counted(self, fn, key):
        """Wrap ``fn`` so each call only increments ``counts[key]``."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr, make_wrapper) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def summary(self, first: int = 0, last: int | None = None) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Covers spans ``first:last``; phase boundaries are taken between
        top-level calls, so every child lies in the same slice as its
        parent.
        """
        spans = self.spans[first:last]
        child = defaultdict(float)
        for name, start, end, parent in spans:
            if parent >= first:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(spans, start=first):
            dur = end - start
            row = out[name]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child.get(i, 0.0)
        return dict(out)

    def dump(self) -> dict:
        """Spans in a compact form for writing out at the end of a run."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "fields": ["name", "start_s", "end_s", "parent"],
                "spans": [[index[n], s, e, p] for n, s, e, p in self.spans]}


def _refine_wrapper(tracer: Tracer, fn):
    """Span per ``refine_discrete`` call plus candidate/acceptance counters.

    The ``score`` callable is wrapped: every call is one candidate, and a
    score strictly below the running best of that call is one accepted
    move, mirroring the refiner's own acceptance rule.
    """
    get_kind, _ = _arg_getter(fn, "kind")
    get_x, _ = _arg_getter(fn, "x")
    get_score, score_index = _arg_getter(fn, "score")
    counts = tracer.counts
    spanned = tracer.spanned(
        fn, lambda a, k, parent: f"trainer.refine.{get_kind(a, k)}")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        kind = get_kind(args, kwargs)
        points = np.shape(get_x(args, kwargs))[0]
        score = get_score(args, kwargs)
        best = [np.inf]

        def counting_score(out):
            s = score(out)
            counts[f"refine.{kind}.candidates"] += 1
            counts[f"refine.{kind}.point_evals"] += points
            if s < best[0]:
                if best[0] != np.inf:
                    counts[f"refine.{kind}.accepted"] += 1
                best[0] = s
            return s
        if len(args) > score_index:
            args = (*args[:score_index], counting_score,
                    *args[score_index + 1:])
        else:
            kwargs = {**kwargs, "score": counting_score}
        return spanned(*args, **kwargs)
    return wrapper


def _vmm_wrapper(tracer: Tracer, fn):
    """Span per crossbar VMM plus its flop count computed from the shapes."""
    spanned = tracer.spanned(fn, "crossbar.vmm")
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(layer, v_in, *args, **kwargs):
        batch = np.shape(v_in)[0] if np.ndim(v_in) == 2 else 1
        # one multiply and one add per crossbar cell, bias row included
        counts["crossbar.vmm.flop"] += 2 * batch * layer.rows * layer.cols
        return spanned(layer, v_in, *args, **kwargs)
    return wrapper


def instrument(tracer: Tracer) -> None:
    """Install every wrapper the per-layer metrics are computed from."""
    def by_kind(prefix, fn):
        get_kind, _ = _arg_getter(fn, "kind")
        return tracer.spanned(
            fn, lambda a, k, parent: f"{prefix}.{get_kind(a, k)}")

    def spanned(name):
        return lambda fn: tracer.spanned(fn, name)

    def train_stage_name(args, kwargs, parent):
        return ("sweep.train_stage" if parent == "sweep.precision_sweep"
                else "trainer.train_stage")

    p = tracer.patch
    # trainer: looked up as module globals inside trainer itself
    p(trainer, "backprop", lambda fn: by_kind("trainer.backprop", fn))
    p(trainer, "adam_step", spanned("trainer.adam_step"))
    p(trainer, "refine_discrete", lambda fn: _refine_wrapper(tracer, fn))
    p(trainer, "forward_stage", spanned("trainer.forward_stage"))
    p(trainer, "evaluate_stage", spanned("trainer.evaluate_stage"))
    # sweep imports train_stage from the trainer module at call time
    p(trainer, "train_stage",
      lambda fn: tracer.spanned(fn, train_stage_name))
    # smooth decode: bound at import by trainer and sweep, looked up at
    # call time from signal_core by pipeline
    for owner in (trainer, sweep, signal_core):
        p(owner, "smooth_decode_array",
          spanned("signal_core.smooth_decode_array"))
    # pipeline: convert/perturbed_pipeline are globals of pipeline;
    # vmm, vtc_eval and perturb_resistances are bound there at import
    p(pipeline, "convert", spanned("pipeline.convert"))
    p(pipeline, "perturbed_pipeline", spanned("pipeline.perturbed_pipeline"))
    p(pipeline, "monte_carlo_eval", spanned("pipeline.monte_carlo_eval"))
    p(pipeline, "vmm", lambda fn: _vmm_wrapper(tracer, fn))
    p(pipeline, "vtc_eval", spanned("vtc.vtc_eval"))
    for owner in (pipeline, sweep):
        p(owner, "perturb_resistances",
          spanned("crossbar.perturb_resistances"))
    p(crossbar, "weights_from_conductances",
      lambda fn: tracer.counted(fn, "crossbar.weights_from_conductances"))
    p(metrics, "enob_of_codes", spanned("metrics.enob_of_codes"))
    p(sweep, "perturbed_stage_metrics",
      spanned("sweep.perturbed_stage_metrics"))
    p(sweep, "precision_sweep", spanned("sweep.precision_sweep"))
    p(dse, "optimize", spanned("dse.optimize"))
    p(dse, "evaluate_candidate",
      lambda fn: tracer.counted(fn, "dse.evaluate_candidate"))
    p(modelio, "save_stage", spanned("modelio.save_stage"))
    p(modelio, "load_stage", spanned("modelio.load_stage"))
    p(config.ExperimentConfig, "family", spanned("config.family"))
