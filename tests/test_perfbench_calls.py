"""The benchmark's own library calls and recorded fingerprints.

``perfbench/workloads.py`` calls the library by name and checks every
result against ``perfbench/fingerprints.json``.  Running each workload's
preparation, set-up and one round of operations here makes a deleted
name or a moved result fail the tests, not only a benchmark run.  The
module is loaded read-only from the repository.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      WORKLOADS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["stage_train", "inference"])
def test_variant_0_matches_recorded_fingerprints(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name](0, tmp_path, record=False)
    rec = workloads.Recorder()
    prep = workload.prepare(rec, workloads.untimed)
    state = workload.setup(prep, rec)
    workload.main(state, rec, workloads.untimed)
    workload.quick(state, rec, workloads.untimed)
    assert rec.attempted > 0
    assert rec.failed == 0, rec.problems
