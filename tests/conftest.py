"""Shared fixtures: a quickly trained stage reused across test modules."""

import pytest

from nnadc.crossbar import DeviceGrid
from nnadc.signal_core import EncodingScheme, StageSpec
from nnadc.trainer import TrainConfig, train_stage
from nnadc.vtc import default_family


def pytest_collection_modifyitems(items):
    """The acceptance criteria train full-budget stages: mark them slow."""
    for item in items:
        if item.path.name == "test_acceptance.py":
            item.add_marker(pytest.mark.slow)


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import CRITERION_LINES
    except ImportError:
        return
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def tiny_stage():
    family = default_family(1.0, n=10, seed=3)
    cfg = TrainConfig(batch_size=64, total_iters=64, projection_period=16,
                      refine_passes=0, seed=5)
    return train_stage(StageSpec(resolution_bits=1, vdd=1.0),
                       EncodingScheme(), family, DeviceGrid(), cfg)
