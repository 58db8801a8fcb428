"""Fast self-test of the benchmark at a tiny size (well under a minute).

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and run.py name the same metrics, that every
workload prints every end-to-end and per-layer metric, that two traced runs
give exactly the same counts, and that a corrupted result counts as failed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = str(HERE.parent / "src")
sys.path[:0] = [str(HERE), SRC]
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))

import run  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

TINY = {"page-sweep": 400, "page-deep": 1, "compare-sweep": 15}


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest: FAIL {message}")


def check_names() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        expect(listed == list(declared), f"{key} in BENCHMARK.json differs from run.py")
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names")


def check_runs(workload: str) -> None:
    _, plain = run.measure(workload, 1, 1, False, TINY[workload])
    expect(plain["correct"] and plain["failed"] == 0, f"{workload}: {plain}")
    expect(list(plain["metrics"]) == [n for n, _ in run.END_TO_END], f"{workload}: end-to-end names")
    expect(all(m["value"] > 0 for m in plain["metrics"].values()), f"{workload}: a zero metric")

    traced = [run.measure(workload, 1, 1, True, TINY[workload])[1] for _ in range(2)]
    for result in traced:
        expect(result["correct"], f"{workload}: traced run {result}")
        expect(list(result["metrics"]) == [n for n, _ in run.PER_LAYER], f"{workload}: per-layer names")
    counts = [
        {k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"} for r in traced
    ]
    expect(counts[0] == counts[1], f"{workload}: counts differ between traced runs")
    expect(any(counts[0].values()), f"{workload}: the tracer recorded nothing")


def _corrupt_sweep(result):
    page, rough, exact, vanish = result
    return page, dataclasses.replace(rough, passed=False), exact, vanish


def _corrupt_compare(result):
    if len(result) == 3:  # generic: (module, b_M, report)
        return result[0], result[1] + 1, result[2]
    return result[0], dataclasses.replace(result[1], f_delta=result[1].f_delta + 1)


def _corrupt_deep(result):
    doc = json.loads(result[1])
    doc["rough_pass"] = False
    return result[0], json.dumps(doc).encode()


# workload -> (module holding the query runner, its name, corruption)
CORRUPT = {
    "page-sweep": (wl, "execute_sweep", _corrupt_sweep),
    "page-deep": (worker, "_deep_query", _corrupt_deep),
    "compare-sweep": (wl, "execute_compare", _corrupt_compare),
}


def check_corruption(workload: str) -> None:
    """Corrupt the result of a one-query pass and expect one failed query."""
    module, name, corrupt = CORRUPT[workload]
    original = getattr(module, name)
    clean = worker.run_pass(workload, 1, False, 60.0, 1)
    setattr(module, name, lambda *a: corrupt(original(*a)))
    try:
        dirty = worker.run_pass(workload, 1, False, 60.0, 1)
    finally:
        setattr(module, name, original)
    expect(clean["failed"] == 0 and dirty["failed"] == 1, f"{workload}: corruption not counted")
    expect(clean["digest"] != dirty["digest"], f"{workload}: digest missed the corruption")


def main() -> int:
    check_names()
    for workload in run.WORKLOADS:
        check_runs(workload)
        check_corruption(workload)
        print(f"selftest: {workload} ok")
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
