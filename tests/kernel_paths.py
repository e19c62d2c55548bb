"""The pinned kernels' instruction-set paths, for tests that run each one:
which the CPU has, and a context that puts one path's instance of every
entry point in place of the resolver's pick."""

from __future__ import annotations

import contextlib
import functools
import os

from kronopt import linalg


def _cpu_flags() -> set[str]:
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("flags"):
                return set(line.split(":", 1)[1].split())
    return set()


CPU_FLAGS = _cpu_flags()
CACHE = os.path.join(os.path.dirname(linalg.__file__), "__pycache__")
# (path name, the /proc/cpuinfo flag it needs)
PATHS = (("avx512", "avx512f"), ("avx2", "avx2"), ("sse2", "sse2"))
# entry point of _pinned.c -> the linalg attribute that holds it
ENTRY_POINTS = {"matmul": "_kernel", "gram": "_gram", "cholesky": "_cholesky",
                "tril_inverse": "_tril_inverse", "scale_rank1": "_scale_rank1",
                "scale_shift": "_scale_shift"}


@functools.cache
def _instances(path):
    return {slot: linalg.load_kernel(CACHE, f"pinned_{entry}_{path}")
            for entry, slot in ENTRY_POINTS.items()}


@contextlib.contextmanager
def on_path(path):
    """linalg with every entry point's ``path`` instance in place of the
    resolver's pick."""
    saved = {slot: getattr(linalg, slot) for slot in ENTRY_POINTS.values()}
    try:
        for slot, kernel in _instances(path).items():
            setattr(linalg, slot, kernel)
        yield
    finally:
        for slot, kernel in saved.items():
            setattr(linalg, slot, kernel)
