"""Build the compiled kernel in place before any test imports jumplines.

`jumplines.kernels` picks its backend at import time, so the extension must
exist before the first test module is imported.  The build is the package's
own `python setup.py build_ext --inplace`, which does nothing when the shared
object is already newer than `_fastkern.c`.  Its result is kept for
`test_backends_present`, which shows the build output when no compiled kernel
loads.

The fixture `assert_same_text` compares long report texts and shows only the
first difference.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_BUILD = pytest.StashKey[subprocess.CompletedProcess]()


def pytest_configure(config):
    config.stash[_BUILD] = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="session")
def kernel_build(pytestconfig):
    """The finished in-place build of `jumplines._fastkern`."""
    return pytestconfig.stash[_BUILD]


def _assert_same_text(got, want):
    # pytest's diff of two long strings takes minutes: show the first difference
    if got != want:
        i = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"texts differ at {i}: {got[i - 40 : i + 40]!r} != {want[i - 40 : i + 40]!r}")


@pytest.fixture
def assert_same_text():
    """Fails with the first difference of two texts, never with their whole diff."""
    return _assert_same_text
