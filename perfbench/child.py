"""Run the framefuse CLI as a child process and observe it from outside.

The benchmark process uses two threads: the calling thread writes the input
and one reader thread stamps each stdout line as it arrives. Lines are parsed
only after the child has exited. Peak RSS comes from os.wait4 on the child's
own pid: getrusage(RUSAGE_CHILDREN) is a running maximum over every child
reaped so far, so after the largest run it would misreport every later one.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

CHUNK_BYTES = 1 << 16  # one pipe buffer: closed-batch writes are stamped per chunk
TIMEOUT_S = 150.0  # a child still running after this is killed and its run fails


class CheckoutError(RuntimeError):
    """The directory the benchmark runs in does not hold the program's source."""


@dataclass
class Program:
    """How to start the CLI built from the checkout's own source."""

    root: Path

    def __post_init__(self) -> None:
        for needed in ("src/framefuse/cli.py", "tests/fake_backend.py"):
            if not (self.root / needed).is_file():
                raise CheckoutError(f"{self.root / needed} is missing; run from a framefuse checkout")
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("FRAMEFUSE_")}
        self.env["PYTHONPATH"] = str(self.root / "src")
        self.env["PYTHONHASHSEED"] = "0"

    def argv(self, *args: str) -> List[str]:
        # The same entry point as the installed `framefuse` console script.
        entry = "import sys; from framefuse.cli import main; sys.exit(main())"
        return [sys.executable, "-c", entry, *args]


@dataclass
class ChildRun:
    exit_code: int
    wall_s: float
    peak_rss_mib: float
    lines: List[bytes]
    arrival_s: List[float]  # per stdout line, seconds after spawn
    send_s: List[float]  # per input line, seconds after spawn when its write began
    stderr: str
    timed_out: bool = False

    @property
    def first_line_s(self) -> Optional[float]:
        return self.arrival_s[0] if self.arrival_s else None


@dataclass
class _Stdout:
    lines: List[bytes] = field(default_factory=list)
    stamps: List[float] = field(default_factory=list)

    def drain(self, stream) -> None:
        for line in stream:
            self.stamps.append(time.perf_counter())
            self.lines.append(line)


def _closed_batch(stdin, lines: Sequence[bytes], t0: float, send: List[float]) -> None:
    i = 0
    while i < len(lines):
        j, size = i, 0
        while j < len(lines) and size < CHUNK_BYTES:
            size += len(lines[j])
            j += 1
        started = time.perf_counter() - t0
        stdin.write(b"".join(lines[i:j]))
        stdin.flush()
        send.extend([started] * (j - i))
        i = j


def _paced(stdin, lines: Sequence[bytes], due: Sequence[float], t0: float, send: List[float]) -> None:
    """Open loop: write every line whose due time has passed, never waiting for the child."""
    i = 0
    while i < len(lines):
        now = time.perf_counter() - t0
        if due[i] > now:
            time.sleep(due[i] - now)
            continue
        j = i
        while j < len(lines) and due[j] <= now:
            j += 1
        stdin.write(b"".join(lines[i:j]))
        stdin.flush()
        send.extend([now] * (j - i))
        i = j


def run(program: Program, args: Sequence[str], work: Path, lines: Sequence[bytes] = (),
        due: Optional[Sequence[float]] = None) -> ChildRun:
    """Spawn the CLI, feed `lines` (paced when `due` is given), and reap it.

    `due` holds each line's send time in seconds after spawn; without it the
    lines go in as one closed batch, as fast as the pipe accepts them.
    """
    errors = work / "stderr.txt"
    out = _Stdout()
    send: List[float] = []
    timed_out = False
    with open(errors, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(program.argv(*args), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=err, env=program.env, cwd=program.root, bufsize=CHUNK_BYTES)

        def kill(signum, frame):
            nonlocal timed_out
            timed_out = True
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # reaped just before the timer fired

        previous = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
        reader = threading.Thread(target=out.drain, args=(proc.stdout,))
        reader.start()
        try:
            if due is None:
                _closed_batch(proc.stdin, lines, t0, send)
            else:
                _paced(proc.stdin, lines, due, t0, send)
        except BrokenPipeError:
            pass  # the child exited early; its missing events fail the run
        finally:
            try:
                proc.stdin.close()
            except BrokenPipeError:
                pass
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            proc.returncode = os.waitstatus_to_exitcode(status)
            reader.join()
            proc.stdout.close()
    return ChildRun(
        exit_code=proc.returncode,
        wall_s=wall,
        peak_rss_mib=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        lines=out.lines,
        arrival_s=[t - t0 for t in out.stamps],
        send_s=send,
        stderr=errors.read_text(errors="replace")[-2000:],
        timed_out=timed_out,
    )
