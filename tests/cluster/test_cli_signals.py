"""``python -m repro cluster`` under SIGTERM: the shards go down with it."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


def live_children(pid: int) -> set[int]:
    """Running (not zombie) direct children of ``pid``, read from /proc."""
    children = set()
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # pid (comm) state ppid ...: comm may hold spaces, so split after it.
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == pid and state != "Z":
            children.add(int(entry.name))
    return children


def alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_sigterm_exits_zero_and_stops_every_shard(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "cluster",
            "--shards", "2", "--port", "0", str(tmp_path / "cluster"),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    shards: set[int] = set()
    try:
        for line in process.stdout:
            if line.startswith("cluster router on"):
                break
        else:
            pytest.fail(f"cluster exited early with {process.wait()}")
        shards = live_children(process.pid)
        assert len(shards) >= 2
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
        deadline = time.monotonic() + 15
        while any(alive(pid) for pid in shards) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not [pid for pid in shards if alive(pid)]
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        for pid in shards:
            if alive(pid):
                os.kill(pid, signal.SIGKILL)
        process.stdout.close()
