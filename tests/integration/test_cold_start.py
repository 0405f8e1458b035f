"""The hot path imports neither scipy nor networkx.

Every spawned process (the serve process and each shard-pool worker)
pays for what ``import repro`` loads.  scipy.stats and networkx together
cost ~1 s of CPU and ~80 MiB per interpreter.  Only
``confidence_interval`` uses scipy, and it imports it lazily; only the
workflow DAG model (``repro.workflows``) uses networkx, and nothing on
the hot path imports it.  A fresh interpreter imports the streaming, batch and serve
modules, runs a 2-shard stream, and reports its own module set and that
of one shard worker; neither may hold scipy or networkx.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
HEAVY = ("scipy", "networkx")

SCRIPT = """
import json
import repro, repro.cloud.fast, repro.serve.http, repro.serve.service
import repro.schedulers, repro.schedulers.streaming, repro.workloads.streaming, repro.optim
from repro.cloud.fast import StreamingSimulation, _shard_pool, shutdown_shard_pool
from repro.schedulers.streaming import make_streaming_scheduler
from repro.workloads.streaming import heterogeneous_stream

stream = heterogeneous_stream(20, 4_000, seed=0, chunk_size=1_000)
result = StreamingSimulation(
    stream, make_streaming_scheduler("greedy-mct"), seed=0, shards=2
).run()
# A None entry in sys.modules marks an import that is blocked, not loaded.
LOADED = "sorted(k for k, v in __import__('sys').modules.items() if v is not None)"
worker = _shard_pool(2).submit(
    eval, f"(__import__('repro.cloud.fast'), {LOADED})[1]"
).result()
shutdown_shard_pool()
print(json.dumps({
    "shards": result.info["shards"],
    "parent": eval(LOADED),
    "worker": worker,
}))
"""


def _modules() -> dict:
    env = dict(os.environ)
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


def test_hot_path_processes_load_neither_scipy_nor_networkx():
    seen = _modules()
    assert seen["shards"] == 2
    assert "repro.cloud.fast" in seen["worker"]
    for where in ("parent", "worker"):
        assert "numpy" in seen[where]
        heavy = [m for m in seen[where] if m.split(".")[0] in HEAVY]
        assert heavy == [], f"{where} imported {sorted({m.split('.')[0] for m in heavy})}"
