import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from kernel_paths import CPU_FLAGS, PATHS  # noqa: E402  (needs the path above)


@pytest.fixture(scope="module", params=PATHS, ids=[name for name, _ in PATHS])
def path(request):
    """Each of the kernels' paths by name, whichever one the import binds; a
    path whose instructions the CPU lacks is skipped, since calling it would
    kill the process."""
    name, feature = request.param
    if feature not in CPU_FLAGS:
        pytest.skip(f"this CPU lacks {feature} (not among /proc/cpuinfo's flags), "
                    f"so the {name} path cannot run here")
    return name
