"""The process-wide runtime policies of ``repro.utils.runtime``.

Each case runs in a fresh interpreter: the allocator and BLAS policies
apply to a whole process and cannot be undone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Every variable the policies defer to; each case starts with none set.
POLICY_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
              "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
              "MALLOC_TOP_PAD_", "GLIBC_TUNABLES")

PRELUDE = """
import json
import numpy as np
from repro.data import build_benchmark, cifar100_like
from repro.federated import TrainConfig
from repro.federated.registry import create_trainer
from repro.obs.metrics import METRICS
from repro.utils import runtime

def build_trainer():
    spec = cifar100_like(train_per_class=2, test_per_class=1).with_tasks(2)
    bench = build_benchmark(spec, num_clients=1,
                            rng=np.random.default_rng(0))
    create_trainer("fedavg", bench, TrainConfig()).close()

def gauges():
    return {name: value
            for name, value in METRICS.snapshot()["gauges"].items()
            if name.startswith("runtime.")}
"""

APPLIED = {
    "runtime.blas_threads": 1,
    "runtime.malloc_mmap_threshold_mb": 32,
    "runtime.malloc_trim_threshold_mb": 64,
}


def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def run_case(body: str, *args: str, **env: str):
    """The JSON the last line of ``body`` prints, run after the prelude
    in a fresh interpreter with ``env`` as the only policy variables."""
    base = {k: v for k, v in os.environ.items() if k not in POLICY_ENV}
    base["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PRELUDE + body, *args], env={**base, **env},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


needs_glibc = pytest.mark.skipif(not _on_glibc(), reason="glibc malloc only")


@needs_glibc
def test_a_trainer_applies_both_policies():
    got = run_case("build_trainer()\nprint(json.dumps(gauges()))")
    assert got == APPLIED


@needs_glibc
def test_configure_releases_the_heap_set_up_left_free():
    # every other 64 KB block freed: holes below live blocks, which glibc's
    # own trimming (of the heap's top only) never hands back
    got = run_case("""
import os

def resident_mb():
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1e6

blocks = [np.ones(1 << 14, dtype=np.float32) for _ in range(800)]
del blocks[::2]
before = resident_mb()
runtime.configure()
print(json.dumps(before - resident_mb()))
""")
    assert got > 10, f"configure released {got:.1f} MB of 26 MB freed"


def test_the_users_blas_thread_count_wins():
    got = run_case("build_trainer()\nprint(json.dumps(gauges()))",
                   OPENBLAS_NUM_THREADS="2")
    # OpenBLAS caps an env count at the CPUs it may run on
    assert got["runtime.blas_threads"] == min(2, len(os.sched_getaffinity(0)))


@pytest.mark.parametrize("name, value", [
    ("MALLOC_MMAP_THRESHOLD_", "1048576"),
    ("MALLOC_TRIM_THRESHOLD_", "134217728"),
    ("MALLOC_TOP_PAD_", "0"),
    ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=134217728"),
])
def test_glibc_malloc_settings_skip_the_allocator_policy(name, value):
    got = run_case("build_trainer()\nprint(json.dumps(gauges()))",
                   **{name: value})
    assert got == {**APPLIED, "runtime.malloc_mmap_threshold_mb": 0,
                   "runtime.malloc_trim_threshold_mb": 0}


def test_without_glibc_the_allocator_policy_is_a_no_op():
    got = run_case("""
import ctypes, os

def not_glibc(name):
    raise ValueError("unrecognized configuration name")

real_cdll = ctypes.CDLL

def cdll(name, *args, **kwargs):
    assert name is not None, "the C library was opened"
    return real_cdll(name, *args, **kwargs)

os.confstr, ctypes.CDLL = not_glibc, cdll
runtime.configure()
print(json.dumps(gauges()))
""")
    assert got == {**APPLIED, "runtime.malloc_mmap_threshold_mb": 0,
                   "runtime.malloc_trim_threshold_mb": 0}


def test_a_second_configure_changes_nothing():
    got = run_case("""
import ctypes
runtime.configure()
first = gauges()
library = runtime.bundled_openblas()
library.scipy_openblas_set_num_threads64_(2)

def refuse(*args, **kwargs):
    raise AssertionError("configure ran its policies again")

ctypes.CDLL = refuse
build_trainer()
runtime.configure()
print(json.dumps({"first": first, "second": gauges(),
                  "threads": library.scipy_openblas_get_num_threads64_()}))
""")
    assert got["second"] == got["first"]
    assert got["first"]["runtime.blas_threads"] == 1
    assert got["threads"] == 2


STEPS = """
import resource, sys
from repro.core.knowledge import task_loss_backward
from repro.models import build_model

if sys.argv[1] == "trainer":
    build_trainer()
model = build_model("six_cnn", 20, input_shape=(3, 16, 16),
                    rng=np.random.default_rng(0))
rng = np.random.default_rng(1)
x = rng.standard_normal((16, 3, 16, 16)).astype(np.float32)
y = rng.integers(0, 20, 16)
mask = np.ones(20, dtype=bool)
for _ in range(3):  # capture, and reach the steady state
    task_loss_backward(model, x, y, mask)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(24):
    task_loss_backward(model, x, y, mask)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps(after - before))
"""


@needs_glibc
def test_replays_after_trainer_construction_keep_their_pages():
    # each replayed SixCNN step frees its conv column buffers; at glibc's
    # defaults the next step faults them back in (~1,150 faults a step on
    # 3x16x16 at batch 16), under the policy they stay in the heap.  At
    # batch 8 the buffers are small enough that glibc's own dynamic
    # thresholds stop trimming them too, so the policy shows no effect there
    without = run_case(STEPS, "none", OPENBLAS_NUM_THREADS="1")
    with_trainer = run_case(STEPS, "trainer", OPENBLAS_NUM_THREADS="1")
    assert with_trainer * 10 < without, (with_trainer, without)
