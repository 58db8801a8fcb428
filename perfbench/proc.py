"""Child processes: an address-space cap, a deadline, and peak RSS from wait4."""

from __future__ import annotations

import os
import resource
import selectors
import signal
import subprocess
from dataclasses import dataclass
from time import monotonic

# Address-space cap of every child.  The largest page-deep child peaks near
# 200 MiB resident, so a child that reaches the cap is a runaway query: it
# fails with MemoryError instead of stalling a shared machine.
ADDRESS_SPACE_CAP = 2 * 2**30


@dataclass
class Finished:
    code: int  # exit code; -N when killed by signal N
    out: bytes
    err: bytes
    maxrss_kib: int
    timed_out: bool


def run(argv: list[str], env: dict, cwd: str, timeout: float, cpu: int | None = None) -> Finished:
    """Run argv to completion, killing it after `timeout` seconds.

    With `cpu` set, the child and everything it starts run on that CPU only.
    """

    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})

    proc = subprocess.Popen(
        argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=limit,
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = monotonic() + timeout
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - monotonic()
            if left <= 0:
                timed_out = True
                proc.send_signal(signal.SIGKILL)
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Finished(
        code=proc.returncode,
        out=b"".join(chunks[proc.stdout]),
        err=b"".join(chunks[proc.stderr]),
        maxrss_kib=usage.ru_maxrss,
        timed_out=timed_out,
    )
