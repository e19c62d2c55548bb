"""The committed artifact digests: every run of ``tools/artifact_digests.py``
on ``src`` must reproduce ``artifact_digests.txt`` line for line.

A change that alters an artifact on purpose regenerates the file with

    python3 tools/artifact_digests.py --src src > tests/artifact_digests.txt

and states each changed line, and why, in CHANGES.md.  On every kernel
path the CPU has, the whole listing is reproduced in process as well.
"""

import contextlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

from kernel_paths import on_path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "artifact_digests.txt"


def _listing(text: str) -> tuple[str, dict[tuple[str, str], str]]:
    """(version header, {(cell, artifact): sha256}) of one listing."""
    header, *lines = text.splitlines()
    digests = {}
    for line in lines:
        cell, artifact, sha = line.split()
        digests[(cell, artifact)] = sha
    return header, digests


def _differences(want: str, got: str) -> list[str]:
    want_header, want_digests = _listing(want)
    got_header, got_digests = _listing(got)
    problems = []
    if got_header != want_header:
        problems.append(f"made with {want_header[2:]!r}, rerun with {got_header[2:]!r}")
    for key in sorted(want_digests.keys() | got_digests.keys()):
        if want_digests.get(key) != got_digests.get(key):
            state = (
                "missing" if key not in got_digests
                else "new" if key not in want_digests
                else "changed"
            )
            problems.append(f"{key[0]} {key[1]}: {state}")
    return problems


def test_artifacts_match_the_committed_digests():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_digests.py"), "--src", str(ROOT / "src")],
        capture_output=True, text=True, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    problems = _differences(GOLDEN.read_text(), proc.stdout)
    assert not problems, "artifacts differ from tests/artifact_digests.txt:\n" + "\n".join(problems)


def _digest_tool():
    spec = importlib.util.spec_from_file_location("artifact_digests",
                                                  ROOT / "tools" / "artifact_digests.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


# The listing holds on each path, not only on the one this CPU's import binds:
# the artifacts do not depend on which instruction set runs the kernels.
def test_every_path_reproduces_the_committed_digests(path):
    tool, out = _digest_tool(), io.StringIO()
    saved_path, cwd = list(sys.path), os.getcwd()
    with on_path(path), contextlib.redirect_stdout(out):
        code = tool.main(["--src", str(ROOT / "src")])
    assert sys.path == saved_path
    assert os.getcwd() == cwd
    assert code == 0
    assert _differences(GOLDEN.read_text(), out.getvalue()) == []


def test_a_difference_names_its_cell_and_artifact_and_the_versions():
    want = "# python 3.11.7 numpy 2.4.6\nxor/sgd-w1 loss.csv aa\nxor/sgd-w1 model.ckpt bb\n"
    got = "# python 3.12.0 numpy 2.4.6\nxor/sgd-w1 loss.csv aa\nxor/sgd-w1 model.ckpt cc\n"
    assert _differences(want, got) == [
        "made with 'python 3.11.7 numpy 2.4.6', rerun with 'python 3.12.0 numpy 2.4.6'",
        "xor/sgd-w1 model.ckpt: changed",
    ]
    assert _differences(want, want) == []
