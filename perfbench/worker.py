"""One pass of a workload in a fresh, single-threaded process.

    python3 perfbench/worker.py pass <workload> <seed> <trace 0|1> <timeout_s> [limit]
    python3 perfbench/worker.py setup <workload>

`pass` runs the workload's query list, or its first `limit` queries, as a
closed loop with one caller: the next query starts only after the previous
one returned.  It times each query, checks each result outside the timed
region, and prints one JSON summary.  `setup` prints the seconds it took to import `chevbounds` and build the root
systems the workload uses.  Both expect `chevbounds` on PYTHONPATH.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from contextlib import nullcontext
from time import monotonic, perf_counter

import proc

# chevbounds, and the benchmark modules that import it, load inside the
# functions below, so that `setup` times the import itself.
DEEP_ENTRY = __file__.replace("worker.py", "deep_entry.py")
TRACE_PREFIX = "perfbench-trace "
CHILD_TIMEOUT = 60.0
KEPT_ERRORS = 3


def setup(workload: str) -> float:
    start = perf_counter()
    import chevbounds

    imported = perf_counter()
    from workloads import systems

    resumed = perf_counter()
    for family, rank in systems(workload):
        chevbounds.build_root_system(family, rank)
    return imported - start + perf_counter() - resumed


def _deep_query(q, trace: bool, deadline: float, acc: dict):
    """Run one page-deep query as its own CLI process."""
    import workloads

    head = [sys.executable, DEEP_ENTRY] if trace else [sys.executable, "-m", "chevbounds.cli"]
    timeout = min(CHILD_TIMEOUT, max(deadline - monotonic(), 1.0))
    done = proc.run(head + workloads.deep_argv(q), dict(os.environ), os.getcwd(), timeout)
    acc["child_maxrss_kib"] = max(acc["child_maxrss_kib"], done.maxrss_kib)
    acc["output_bytes"] += len(done.out)
    acc["nonzero_exits"] += done.code != 0
    if trace:
        lines = done.err.decode(errors="replace").splitlines()
        if lines and lines[-1].startswith(TRACE_PREFIX):
            acc["traces"].append(json.loads(lines[-1][len(TRACE_PREFIX):]))
    if done.timed_out:
        raise TimeoutError(f"query exceeded {timeout:.0f} s")
    return done.code, done.out


def merge(snapshots: list[dict]) -> dict[str, float]:
    """Sum span totals from several processes."""
    out: dict[str, float] = {}
    for snap in snapshots:
        for key, value in snap.items():
            out[key] = out.get(key, 0) + value
    return out


def run_pass(
    workload: str, seed: int, trace: bool, timeout: float, limit: int | None = None
) -> dict:
    import chevbounds
    import tracing
    import workloads as wl

    deadline = monotonic() + timeout
    tracer = tracing.Tracer() if trace and workload != "page-deep" else None
    if tracer is not None:
        tracing.install(tracer)
    active = tracer.active if tracer is not None else nullcontext
    with active():
        for family, rank in wl.systems(workload):
            chevbounds.build_root_system(family, rank)
    queries = wl.make_queries(workload, seed)[:limit]

    acc = {"child_maxrss_kib": 0, "output_bytes": 0, "nonzero_exits": 0, "traces": []}
    if workload == "page-deep":
        execute = lambda q: _deep_query(q, trace, deadline, acc)  # noqa: E731
        check, canonical = wl.check_deep, wl.canonical_deep
    elif workload == "page-sweep":
        execute, check, canonical = wl.execute_sweep, wl.check_sweep, wl.canonical_sweep
    else:
        execute, check, canonical = wl.execute_compare, wl.check_compare, wl.canonical_compare

    digest = hashlib.sha256()
    latencies = []
    failed = 0
    errors = []
    loop_start = perf_counter()
    for q in queries:
        with active():
            start = perf_counter()
            try:
                result = execute(q)
            except Exception as exc:  # a failing query is counted, not fatal
                result = exc
            latencies.append(perf_counter() - start)
        if isinstance(result, Exception):
            ok, line = False, f"{q!r}|error={type(result).__name__}"
        else:
            ok, line = check(q, result), canonical(q, result)
        digest.update(line.encode() + b"\n")
        if not ok:
            failed += 1
            if len(errors) < KEPT_ERRORS:
                errors.append(f"{q!r}: {result!r}"[:300])
    loop_s = perf_counter() - loop_start

    snapshot = None
    if tracer is not None:
        snapshot = tracer.snapshot()
    elif trace:
        snapshot = merge(acc["traces"])
        snapshot["cli.output_bytes"] = acc["output_bytes"]
        snapshot["cli.nonzero_exits"] = acc["nonzero_exits"]
    return {
        "queries": len(queries),
        "latencies": latencies,
        "failed": failed,
        "errors": errors,
        "digest": digest.hexdigest(),
        "loop_s": loop_s,
        "trace": snapshot,
        "properties": wl.properties(workload, queries),
        "child_maxrss_kib": acc["child_maxrss_kib"],
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["setup"] and len(argv) == 2:
        print(json.dumps({"setup_s": setup(argv[1])}))
        return 0
    if argv[:1] == ["pass"] and len(argv) in (5, 6):
        workload, seed, trace, timeout = argv[1:5]
        limit = int(argv[5]) if len(argv) == 6 else None
        print(json.dumps(run_pass(workload, int(seed), trace == "1", float(timeout), limit)))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
