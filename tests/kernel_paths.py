"""The pinned kernels' instruction-set paths, for tests that run each one:
which the CPU has, and a context that binds one path's entry points the way
the import binds the path ``pinned_path()`` picks."""

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
# (path name, the /proc/cpuinfo flag it needs), in linalg.PATHS' order
PATHS = (("avx512", "avx512f"), ("avx2", "avx2"), ("sse2", "sse2"))


@functools.cache
def _kernels(path):
    return linalg.kernels(CACHE, path)


@contextlib.contextmanager
def on_path(path):
    """linalg with every entry point bound on ``path``, as the import binds
    :data:`kronopt.linalg.PATH`."""
    saved = linalg._K
    linalg._K = _kernels(path)
    try:
        yield
    finally:
        linalg._K = saved
