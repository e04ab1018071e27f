"""The benchmark's smoke check, run with the tests.

Some names in the stream core (``read_frame_streams``, ``process_stream``,
``events_to_jsonl``, ``chain_update`` and others) are called outside the
tests only by ``perfbench/layers.py``. This check fails if one of them goes
before the benchmark stops calling it.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_check_passes():
    proc = subprocess.run([sys.executable, "perfbench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
