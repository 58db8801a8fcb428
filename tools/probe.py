"""Time fixed CLI runs on one or more source trees, one JSON line per run.

    python3 tools/probe.py                          # the nine probes, this checkout
    python3 tools/probe.py --tree A --tree B --rounds 3
    python3 tools/probe.py --rounds 1 -- info --type A1

Each run is `python -m chevbounds.cli ARGV` with PYTHONPATH=<tree>/src and
PYTHONDONTWRITEBYTECODE=1, started by perfbench's `proc.run`: under its
address-space limit of 2 GiB and killed after TIME_LIMIT_S.  Runs go one at
a time.  In each round every argv runs on every tree, and the order of the
trees flips from one round to the next.  A line holds the tree, the argv,
the exit code, the wall seconds, the peak RSS in MiB (from os.wait4) and the
SHA-256 of stdout; the child's stderr is written to stderr after its run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from time import monotonic

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import proc  # noqa: E402

# Far above the slowest run measured: E8 at p = 31, m = 6 takes 105 s on a 2-vCPU VM.
TIME_LIMIT_S = 1800

# The fold-bound probes: most of their time is spent building page levels.
# The F4 page has four p = 2 levels, and its carry pass reads all 16 residue
# classes of the level, so a level built class by class gains nothing there.
PROBES = (
    ["verify-e1", "--type", "E8", "--p", "2", "--s", "2", "--f", "0", "--m", "4",
     "--weight", "0,0,0,0,0,0,0,1"],
    ["verify-e1", "--type", "E8", "--p", "2", "--s", "2", "--f", "0", "--m", "5",
     "--weight", "0,0,0,0,0,0,0,1"],
    ["verify-e1", "--type", "A8", "--p", "3", "--s", "1", "--f", "1", "--m", "8",
     "--weight", "0,0,0,0,0,0,0,0"],
    ["verify-e1", "--type", "E7", "--p", "3", "--s", "1", "--f", "1", "--m", "6",
     "--weight", "0,0,0,0,0,0,1"],
    ["verify-e1", "--type", "F4", "--p", "2", "--s", "4", "--f", "0", "--m", "8",
     "--weight", "0,0,0,1"],
    # The character probes: dimensions far above the default cap.  A threshold
    # reads the highest weight alone, so no character is built; E8 at rho has
    # dimension 2**120, about 1.3e36.
    ["compare", "--type", "E7", "--p", "7", "--m", "6", "--weight", "1,1,1,1,1,1,1"],
    ["compare", "--type", "F4", "--p", "7", "--m", "6", "--weight", "3,3,3,3"],
    ["generic", "--type", "E8", "--p", "5", "--m", "3", "--weight", "1,1,1,1,1,1,1,1"],
    # The start-up probe: a page of a few weights, so its time is process start.
    ["verify-e1", "--type", "A1", "--p", "2", "--s", "1", "--f", "0", "--m", "1", "--weight", "1"],
)


def probe(tree: Path, argv: list[str]) -> dict:
    """Run the CLI on argv from tree's sources and report the run."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = monotonic()
    done = proc.run(
        [sys.executable, "-m", "chevbounds.cli", *argv], env, os.getcwd(), TIME_LIMIT_S
    )
    seconds = monotonic() - start
    sys.stderr.buffer.write(done.err)
    sys.stderr.flush()
    return {
        "tree": str(tree),
        "argv": argv,
        "exit": done.code,
        "seconds": round(seconds, 3),
        "peak_rss_mib": round(done.maxrss_kib / 1024, 1),
        "stdout_sha256": hashlib.sha256(done.out).hexdigest(),
    }


def main(args: list[str]) -> int:
    cut = args.index("--") if "--" in args else len(args)
    own, cli = args[:cut], args[cut + 1 :]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", type=Path,
                        help="a source checkout (repeatable; default: this one)")
    parser.add_argument("--rounds", type=int, default=1)
    opts = parser.parse_args(own)
    if opts.rounds < 1:
        parser.error("--rounds must be at least 1")
    trees = [tree.resolve() for tree in opts.tree or [ROOT]]
    for tree in trees:
        if not (tree / "src" / "chevbounds").is_dir():
            parser.error(f"{tree} holds no src/chevbounds")
    runs = [cli] if cli else [list(argv) for argv in PROBES]
    for round_ in range(opts.rounds):
        order = trees if round_ % 2 == 0 else trees[::-1]
        for argv in runs:
            for tree in order:
                print(json.dumps({"round": round_ + 1, **probe(tree, argv)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
