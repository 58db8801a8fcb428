"""chevbounds benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload page-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; the library is imported from
`src/`.  Set-up is timed in fresh interpreters.  Then the workload's query
list runs in whole passes, each in a fresh single-threaded process, as many
as fit in `--seconds` at the workload's nominal pass time.  Every pass gives
the same answers; a query's latency is its fastest pass.

With `--trace 0` the last stdout line holds the end-to-end metrics.  With
`--trace 1` two untraced and two traced passes run, and it holds the
per-layer metrics and the tracing overhead.  The line before it reports the input
properties, the output digest, failed/attempted and how the tail latency was
taken.  README.md in this directory maps each metric to its layer and
workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("page-sweep", "page-deep", "compare-sweep")
SETUP_PROBES = 11
HARD_LIMIT = 170.0  # seconds for the whole run, set-up included
TAIL_BEYOND = 10  # samples a tail percentile must leave beyond it
# One untraced pass at the defining commit, on a 2-vCPU shared VM (seconds).
NOMINAL_PASS_S = {"page-sweep": 7.0, "page-deep": 7.0, "compare-sweep": 13.0}

sys.path.insert(0, str(HERE))
import proc  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)

# Every per-layer metric with its unit, in report order.
PER_LAYER = (
    ("rootsys.build_s", "s"),
    ("rootsys.builds", "count"),
    ("weightcomb.b_invariant_s", "s"),
    ("weightcomb.b_invariant_calls", "count"),
    ("weightcomb.b_invariant_weights", "count"),
    ("weightcomb.b_of_weight_calls", "count"),
    ("modchar.character_s", "s"),
    ("modchar.characters", "count"),
    ("modchar.character_weights", "count"),
    ("modchar.graded_power_s", "s"),
    ("modchar.graded_power_weights", "count"),
    ("e1oracle.page_s", "s"),
    ("e1oracle.pages", "count"),
    ("e1oracle.page_dim_full", "count"),
    ("e1oracle.page_dim_kept", "count"),
    ("e1oracle.kept_dim_ratio", "ratio"),
    ("e1oracle.check_s", "s"),
    ("e1oracle.vanish_s", "s"),
    ("e1oracle.cap_hits", "count"),
    ("bounds.compare_s", "s"),
    ("bounds.compares", "count"),
    ("bounds.compare_weights", "count"),
    ("bounds.threshold_s", "s"),
    ("bounds.threshold_calls", "count"),
    ("cli.self_s", "s"),
    ("cli.runs", "count"),
    ("cli.output_bytes", "count"),
    ("cli.nonzero_exits", "count"),
    ("bench.trace_overhead_pct", "%"),
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def _worker(args: list[str], started: float, cpu: int | None = None) -> tuple[dict, int]:
    """Run worker.py with args; return its JSON summary and its peak RSS in KiB."""
    left = HARD_LIMIT - (monotonic() - started)
    done = proc.run(
        [sys.executable, str(HERE / "worker.py")] + args, _child_env(), str(ROOT), left, cpu
    )
    if done.code != 0 or done.timed_out:
        tail = done.err.decode(errors="replace").strip().splitlines()[-5:]
        raise RuntimeError(f"worker {' '.join(args)} exited {done.code}: {' | '.join(tail)}")
    return json.loads(done.out.decode().splitlines()[-1]), done.maxrss_kib


def tail_latency(latencies: list[float]) -> tuple[float, str]:
    """The highest percentile that leaves TAIL_BEYOND samples beyond it.

    With too few samples the maximum is reported instead.
    """
    ordered = sorted(latencies)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], "max"
    pct = math.floor(10000 * (1 - TAIL_BEYOND / len(ordered))) / 100
    return ordered[math.ceil(pct / 100 * len(ordered)) - 1], f"p{pct:g}"


def pass_count(workload: str, seconds: int) -> int:
    """Untraced passes in a run: what fits in `seconds` at the nominal pass time, at least 2.

    The count depends on nothing measured, so the best-of estimator below is
    the same on both sides of any comparison.
    """
    return max(2, int(seconds // NOMINAL_PASS_S[workload]))


def measure(
    workload: str, seed: int, seconds: int, trace: bool, limit: int | None = None
) -> tuple[dict, dict]:
    """Time set-up, run the passes, check them, and compute the metrics.

    `limit` keeps only the first queries of each pass; the self-test uses it.
    """
    started = monotonic()
    setups = [_worker(["setup", workload], started)[0]["setup_s"] for _ in range(SETUP_PROBES)]

    # Pass k runs on CPU k mod N, so a slow stretch of one shared CPU cannot
    # cover every pass of a query.
    cpus = sorted(os.sched_getaffinity(0))
    plain, traced, peak_kib = [], [], 0
    # Traced runs put one untraced and one traced pass on each of two CPUs.
    kinds = (False, True, True, False) if trace else (False,) * pass_count(workload, seconds)
    for k, traced_pass in enumerate(kinds):
        left = HARD_LIMIT - (monotonic() - started)
        argv = ["pass", workload, str(seed), "1" if traced_pass else "0", f"{left:.1f}"]
        summary, rss = _worker(argv + ([str(limit)] if limit else []), started, cpus[k % len(cpus)])
        (traced if traced_pass else plain).append(summary)
        if not traced_pass:
            peak_kib = max(peak_kib, rss, summary["child_maxrss_kib"])

    runs = plain + traced
    attempted = sum(r["queries"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    notes = [e for r in runs for e in r["errors"]]
    digests = {r["digest"] for r in runs}
    props = [r["properties"] for r in runs]
    correct = failed == 0 and len(digests) == 1 and all(p == props[0] for p in props)
    if len(digests) > 1:
        notes.append("passes of one seed disagree on the output digest")

    # Every pass repeats the same queries from a cold process, so a query's
    # fastest pass is its cost without the transient slowdowns of a shared
    # machine; deterministic costs such as garbage collection stay in.
    best = [min(times) for times in zip(*(r["latencies"] for r in plain))]
    tail, tail_name = tail_latency(best)
    report = {
        "workload": workload,
        "seed": seed,
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_seconds": [round(r["loop_s"], 3) for r in runs],
        "output_sha256": plain[0]["digest"],
        "failed_ratio": failed / attempted,
        "latency_tail": {"percentile": tail_name, "samples": len(best)},
        "properties": props[0],
        "errors": notes[:5],
    }
    if not trace:
        values = {
            "setup_s": statistics.median(setups),
            "queries_per_s": len(best) / sum(best),
            "latency_p50_ms": 1000 * statistics.median(best),
            "latency_tail_ms": 1000 * tail,
            "peak_rss_mb": peak_kib / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        counts = [{k: v for k, v in r["trace"].items() if not k.endswith("_s")} for r in traced]
        if counts[0] != counts[1]:
            correct = False
            notes.append("traced passes disagree on per-layer counts")
        totals = dict(counts[0])
        for key in {k for r in traced for k in r["trace"] if k.endswith("_s")}:
            totals[key] = statistics.median(r["trace"].get(key, 0.0) for r in traced)
        best_traced = [min(times) for times in zip(*(r["latencies"] for r in traced))]
        metrics = per_layer(totals, 100 * (sum(best_traced) / sum(best) - 1))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, result


def per_layer(totals: dict[str, float], overhead_pct: float) -> dict[str, dict]:
    """Every per-layer metric, zero where the workload never reached the layer."""
    values = dict(totals)
    full = values.get("e1oracle.page_dim_full", 0)
    values["e1oracle.kept_dim_ratio"] = values.get("e1oracle.page_dim_kept", 0) / full if full else 0.0
    values["bench.trace_overhead_pct"] = overhead_pct
    out = {}
    for name, unit in PER_LAYER:
        value = values.get(name, 0)
        out[name] = {"value": value if unit in ("s", "ratio", "%") else int(value), "unit": unit}
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (SRC / "chevbounds" / "__init__.py").is_file():
        print(f"perfbench: no chevbounds sources under {SRC}", file=sys.stderr)
        return 2
    try:
        report, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, RuntimeError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for note in report["errors"]:
        print(f"perfbench: {note}", file=sys.stderr)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
