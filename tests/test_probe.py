"""Smoke test of tools/probe.py, the runner of the fixed CLI probes."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from chevbounds.cli import run

ROOT = Path(__file__).resolve().parents[1]


def test_probe_runs_one_command_on_the_checkout(capsys) -> None:
    assert run(["info", "--type", "A1"]) == 0
    expected = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "probe.py"), "--rounds", "1", "--", "info",
         "--type", "A1"],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    record = json.loads(line)
    assert record["tree"] == str(ROOT)
    assert record["argv"] == ["info", "--type", "A1"]
    assert (record["round"], record["exit"]) == (1, 0)
    assert record["stdout_sha256"] == expected
    assert record["seconds"] > 0 and record["peak_rss_mib"] > 0
