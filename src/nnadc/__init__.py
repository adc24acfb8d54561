"""Behavioral model and training framework for pipelined RRAM-crossbar ADCs.

Submodules:

- ``signal_core``: ideal quantization/residue/smooth-code oracles
- ``crossbar``: differential RRAM crossbar and device grid
- ``vtc``: inverter transfer-curve activation and Monte Carlo families
- ``trainer``: hardware-aware stage training
- ``pipeline``: stage chaining, conversion, Monte Carlo robustness
- ``metrics``: spectrum, SNDR/ENOB, ENOB of a code record
- ``sweep``: median stage accuracy vs RRAM precision under perturbation
- ``dse``: composition enumeration and figure-of-merit optimization
- ``modelio``: stage, pipeline and cost-table files, CSV tables
- ``config``: JSON experiment configs and seed splitting
- ``cli``: command-line front end
"""

__version__ = "0.1.0"
