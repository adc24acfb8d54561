"""The benchmark tracer patches library names, so they must keep existing.

``perfbench/tracing.py`` replaces functions by the names their callers
look them up with; a renamed or deleted name would crash a traced
benchmark run.  The module is loaded read-only from the repository.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from nnadc import sweep

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
