"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import contextlib
import fnmatch
import glob
import multiprocessing
import os
import tempfile
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# keep property-based tests fast and deterministic in CI
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("repro")


# ----------------------------------------------------------------------
# leak guard: no test may leave tmpfs files, child processes or listeners
# ----------------------------------------------------------------------
#: How long a test's new child processes may take to finish exiting.
CHILD_GRACE_SECONDS = 3.0


#: The tmpfs files ``repro`` makes, each by ``tempfile.mkstemp`` in the
#: coordinating process (``serve/engine.py``).
SHM_FILES = "/dev/shm/repro-*"

#: Every ``SHM_FILES`` path ``tempfile.mkstemp`` returned in this process.
_SHM_MADE: set[str] = set()


@pytest.fixture(autouse=True, scope="session")
def _record_shm_files():
    """Record the ``SHM_FILES`` this process makes, so that another
    process's (a second test run's on the same host) are never counted."""
    mkstemp = tempfile.mkstemp

    def recording(*args, **kwargs):
        fd, path = mkstemp(*args, **kwargs)
        if isinstance(path, str) and fnmatch.fnmatch(path, SHM_FILES):
            _SHM_MADE.add(path)
        return fd, path

    tempfile.mkstemp = recording
    yield
    tempfile.mkstemp = mkstemp


def _shm_files() -> set[str]:
    """The ``SHM_FILES`` this process made that still exist."""
    _SHM_MADE.difference_update(
        [path for path in _SHM_MADE if not os.path.exists(path)]
    )
    return set(_SHM_MADE)


def _live_children() -> set[int]:
    """Pids of this process's children (every thread's), zombies excluded."""
    pids: set[int] = set()
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            with open(path) as handle:
                pids.update(int(pid) for pid in handle.read().split())
        except OSError:
            continue
    live = set()
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                # the state follows the parenthesised command name
                state = handle.read().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            continue  # already reaped
        if state != "Z":
            live.add(pid)
    return live


def _listening_sockets() -> set[str]:
    """Inodes of the TCP sockets this process holds in LISTEN state."""
    listening: set[str] = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as handle:
                next(handle)  # column header
                for line in handle:
                    fields = line.split()
                    if fields[3] == "0A":  # TCP_LISTEN
                        listening.add(fields[9])
        except OSError:
            continue
    held = set()
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:[") and target[8:-1] in listening:
            held.add(target[8:-1])
    return held


@pytest.fixture(autouse=True)
def no_leaks():
    """Fail any test that leaves new ``SHM_FILES`` of this process, live
    child processes, or listening sockets behind (leaked files are unlinked
    so they cannot outlive the run)."""
    with _leak_guard():
        yield


@pytest.fixture
def leak_guard():
    """The guard of :func:`no_leaks` as a context manager, to test it."""
    return _leak_guard


@contextlib.contextmanager
def _leak_guard():
    files, children, sockets = (
        _shm_files(), _live_children(), _listening_sockets()
    )
    yield
    leaked_files = sorted(_shm_files() - files)
    for path in leaked_files:
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
    deadline = time.monotonic() + CHILD_GRACE_SECONDS
    while True:
        multiprocessing.active_children()  # reaps finished workers
        leaked_children = _live_children() - children
        if not leaked_children or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    leaked_sockets = _listening_sockets() - sockets
    leaks = [
        f"{label}: {sorted(found)}"
        for label, found in (
            ("tmpfs files", leaked_files),
            ("child processes", leaked_children),
            ("listening sockets", leaked_sockets),
        )
        if found
    ]
    if leaks:
        pytest.fail("test leaked " + "; ".join(leaks))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def tiny_spec():
    """A 2-task, 8-class dataset spec small enough for unit tests."""
    from repro.data import cifar100_like

    return cifar100_like(train_per_class=8, test_per_class=4).with_tasks(2)


@pytest.fixture
def tiny_benchmark(tiny_spec, rng):
    """A 2-client federated benchmark over the tiny spec."""
    from repro.data import build_benchmark

    return build_benchmark(tiny_spec, num_clients=2, rng=rng)


@pytest.fixture
def tiny_model(tiny_spec):
    """A small SixCNN sized for the tiny spec, deterministic init."""
    from repro.models import build_model

    return build_model(
        tiny_spec.model_name,
        tiny_spec.num_classes,
        input_shape=tiny_spec.input_shape,
        rng=np.random.default_rng(42),
        width=8,
    )


def numeric_gradient(fn, array: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar ``fn()`` w.r.t. ``array`` in place."""
    grad = np.zeros_like(array, dtype=np.float64)
    iterator = np.nditer(array, flags=["multi_index"])
    while not iterator.finished:
        index = iterator.multi_index
        original = array[index]
        array[index] = original + eps
        f_plus = fn()
        array[index] = original - eps
        f_minus = fn()
        array[index] = original
        grad[index] = (f_plus - f_minus) / (2 * eps)
        iterator.iternext()
    return grad


@pytest.fixture
def gradcheck():
    return numeric_gradient
