"""Record of the machine and software a benchmark result was measured on."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    """BLAS backend name, version and the thread count it will use."""
    info = {"name": "unknown", "version": "unknown", "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = deps.get("name", "unknown")
        info["version"] = deps.get("version", "unknown")
    except (KeyError, TypeError):
        pass
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _git_commit(root: Path) -> str:
    """Commit of ``root`` when it is itself a git work tree, else 'none'."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        res = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return res.stdout.strip() if res.returncode == 0 else "none"


def source_hash(root: Path) -> str:
    """SHA-256 over the library sources, identifying the code measured."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "nnadc").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def record(root: Path, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "seed": seed,
        "git_commit": _git_commit(root),
        "source_sha256": source_hash(root),
    }
