"""Tiny-scale self-test of the benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

Checks that every metric ``BENCHMARK.json`` names is printed with its
unit on both workloads, that a tampered pin makes the command fail, and
that compare mode refuses records from hosts with another ``cpu_count``.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / ".selftest"


def run(*args: str) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode and result is None:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, result


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    SCRATCH.mkdir(exist_ok=True)
    try:
        tiny = ("--scale", "tiny", "--seconds", "1", "--seed", "5")
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                code, result = run("--workload", workload, "--trace", str(trace), *tiny)
                expect(code == 0 and result is not None and result["correct"],
                       f"{workload} --trace {trace} passes its checks")
                expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                       f"{workload} --trace {trace} result keys")
                wanted = {m["name"]: m["unit"] for m in spec[group]}
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                expect(got == wanted, f"{workload} --trace {trace} prints every {group} metric with its unit")

        pins = json.loads((HERE / "pins.json").read_text())
        key = "batch/antcolony"
        pins["homog"][key]["decision_sha256"] = "0" * 64
        tampered = SCRATCH / "pins.json"
        tampered.write_text(json.dumps(pins))
        code, result = run("--workload", "homog", "--trace", "0", "--pins", str(tampered), *tiny)
        expect(code != 0 and result is not None and not result["correct"],
               "a tampered pin fails the command")

        record = {"stamp": {"cpu_count": 1}, "workload": "homog", "result": {"metrics": {}}}
        base, new = SCRATCH / "base.jsonl", SCRATCH / "new.jsonl"
        base.write_text(json.dumps(record) + "\n")
        record["stamp"]["cpu_count"] = 2
        new.write_text(json.dumps(record) + "\n")
        code, _ = run("--compare", str(base), str(new))
        expect(code == 2, "compare refuses records with different cpu_count")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
