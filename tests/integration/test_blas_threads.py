"""Batch decisions do not depend on the BLAS thread count.

GSA and PSOGSA move their agents with small GEMMs (``X @ X.T``,
``weights @ X``).  At the benchmark's batch shape, 200 VMs × 2,000
cloudlets, OpenBLAS splits those products across its thread pool, and a
split product may sum in another order than a serial one.  Each family
and scheduler therefore runs in two fresh interpreters, one with
``OPENBLAS_NUM_THREADS=1`` and one with ``=2``, and the assignment
hashes must be equal.  (The golden cells are too small for OpenBLAS to
thread, so they cannot catch this.)
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = """
import hashlib, json, os
import numpy as np
from repro.schedulers import SchedulingContext, make_scheduler
from repro.workloads.heterogeneous import heterogeneous_scenario
from repro.workloads.homogeneous import homogeneous_scenario

hashes = {}
for family, build in (("hetero", heterogeneous_scenario), ("homog", homogeneous_scenario)):
    scenario = build(200, 2000, seed=1)
    for name in ("gsa", "psogsa"):
        context = SchedulingContext.from_scenario(scenario, seed=1)
        assignment = make_scheduler(name).schedule_checked(context).assignment
        hashes[f"{family}/{name}"] = hashlib.sha256(
            np.ascontiguousarray(assignment, dtype=np.int64).tobytes()
        ).hexdigest()
tasks = "/proc/self/task"
threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else None
print(json.dumps({"hashes": hashes, "threads": threads}))
"""


def _run(blas_threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_gsa_and_psogsa_decisions_ignore_the_blas_thread_count():
    one, two = _run(1), _run(2)
    assert sorted(one["hashes"]) == [
        "hetero/gsa", "hetero/psogsa", "homog/gsa", "homog/psogsa"
    ]
    assert one["hashes"] == two["hashes"]
    # OpenBLAS caps its pool at the core count; where it can run two
    # threads, the second interpreter must really have had them.
    if (os.cpu_count() or 1) >= 2 and one["threads"] is not None:
        assert two["threads"] > one["threads"]
