"""The autouse leak guard of ``tests/conftest.py`` fails a test that leaves
a ``/dev/shm/repro-*`` file of its own behind, and ignores one another
process made meanwhile (a second test run on the same host)."""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

import pytest

SHM = "/dev/shm"

pytestmark = pytest.mark.skipif(not os.path.isdir(SHM),
                                reason="no /dev/shm on this platform")


def test_a_file_this_process_leaves_fails_the_test(leak_guard):
    with pytest.raises(pytest.fail.Exception, match="leaked tmpfs files"):
        with leak_guard():
            fd, path = tempfile.mkstemp(prefix="repro-guard-", dir=SHM)
            os.close(fd)
    assert not os.path.exists(path)  # unlinked by the guard


def test_a_file_another_process_makes_is_not_counted(leak_guard):
    make = ("import os, tempfile\n"
            f"fd, path = tempfile.mkstemp(prefix='repro-guard-', dir={SHM!r})\n"
            "print(path)")
    with leak_guard():
        path = subprocess.run([sys.executable, "-c", make], check=True,
                              capture_output=True, text=True).stdout.strip()
    try:
        assert os.path.exists(path)  # neither counted nor unlinked
    finally:
        os.unlink(path)
