"""The benchmark tracer patches library names, so they must keep existing.

``perfbench/tracing.py`` replaces functions by the names their callers
look them up with; a renamed or deleted name would crash a traced
benchmark run.  The module is loaded read-only from the repository.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from nnadc import sweep, trainer
from nnadc.crossbar import DeviceGrid
from nnadc.signal_core import EncodingScheme, StageSpec
from nnadc.vtc import default_family

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_instrument_and_unpatch(tracing, tiny_stage):
    untraced = sweep.perturbed_stage_metrics(tiny_stage, 0.05, seed=2)
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original
        traced = sweep.perturbed_stage_metrics(tiny_stage, 0.05, seed=2)
    finally:
        tracer.unpatch()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original
    assert repr(traced) == repr(untraced)
    names = {span[0] for span in tracer.spans}
    assert {"sweep.perturbed_stage_metrics", "crossbar.perturb_resistances",
            "crossbar.vmm", "vtc.vtc_eval"} <= names


def test_training_spans_and_refine_counters(tracing):
    """Snapshot scoring, hops and refinement keep their per-layer metrics."""
    cfg = trainer.TrainConfig(batch_size=64, total_iters=32,
                              projection_period=16, refine_passes=1,
                              refine_hops=1, seed=5)
    spec = StageSpec(resolution_bits=1, subadc_hidden=2, residue_hidden=2)
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer)
        trainer.train_stage(spec, EncodingScheme(),
                            default_family(1.0, n=10, seed=3), DeviceGrid(),
                            cfg)
    finally:
        tracer.unpatch()
    names = {span[0] for span in tracer.spans}
    # perfbench's by_kind wrapper looks ``kind`` up by argument name, so
    # these spans also guard backprop's signature
    assert {"trainer.train_stage", "trainer.forward_stage",
            "trainer.backprop.subadc", "trainer.backprop.residue",
            "trainer.refine.subadc", "trainer.refine.residue"} <= names
    counts = tracer.counts
    for kind in ("subadc", "residue"):
        # every candidate is scored on train_stage's 2,048-point grid
        assert counts[f"refine.{kind}.candidates"] > 0
        assert (counts[f"refine.{kind}.point_evals"]
                == 2048 * counts[f"refine.{kind}.candidates"])
        assert counts[f"refine.{kind}.accepted"] > 0
