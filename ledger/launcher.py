"""Child-process launcher: the served systems never share a GIL with the
load generator.

Two halves.  :func:`main` is the child: it boots a ``DkbServer`` or a
``ClusterSupervisor`` (installing the trace hooks first when asked), says
where it listens, then obeys one-line commands on stdin until ``stop`` or
end-of-file — so a generator that dies takes its child with it.
:class:`Child` is the parent's handle: boot and per-command timeouts, and a
``stop`` that always reaps — the child runs in its own process group, and
whatever is left of the group (a hung server, shard processes of a killed
supervisor) is killed.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BOOT_TIMEOUT = 60.0
COMMAND_TIMEOUT = 30.0
STOP_TIMEOUT = 30.0


# -- the parent's side -------------------------------------------------------


class ChildError(RuntimeError):
    """The child failed to boot, answer or stop in time."""


class Child:
    """A running launcher process; always ``stop()`` it (or use ``with``)."""

    def __init__(self, kind: str, options: dict[str, Any], boot_timeout: float = BOOT_TIMEOUT):
        environment = dict(os.environ)
        paths = [os.path.join(ROOT, "src"), ROOT]
        if environment.get("PYTHONPATH"):
            paths.append(environment["PYTHONPATH"])
        environment["PYTHONPATH"] = os.pathsep.join(paths)
        self._buffer = b""
        self.process = subprocess.Popen(
            [sys.executable, "-m", "ledger.launcher", kind, json.dumps(options)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=environment,
            bufsize=0,
            start_new_session=True,  # own process group: stop() can reap all of it
        )
        self.group = self.process.pid
        try:
            self.ready = self._read_reply(boot_timeout)
            if "error" in self.ready:
                raise ChildError(f"{kind} child failed to boot: {self.ready['error']}")
        except BaseException:
            self._kill_group()
            raise
        self.address: tuple[str, int] = (self.ready["address"][0], int(self.ready["address"][1]))

    def _read_reply(self, timeout: float) -> dict[str, Any]:
        deadline = time.monotonic() + timeout
        assert self.process.stdout is not None
        while b"\n" not in self._buffer:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChildError(f"child did not answer within {timeout:.0f}s")
            readable, _, _ = select.select([self.process.stdout], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(self.process.stdout.fileno(), 65536)
            if not chunk:
                raise ChildError(
                    f"child exited (code {self.process.poll()}) without answering"
                )
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def command(self, text: str, timeout: float = COMMAND_TIMEOUT) -> dict[str, Any]:
        assert self.process.stdin is not None
        self.process.stdin.write(text.encode("utf-8") + b"\n")
        return self._read_reply(timeout)

    def stop(self) -> dict[str, Any]:
        """Ask the child to shut down; reap it and its whole group regardless.

        Returns the child's closing report (peak RSS, span files); empty
        when the child had to be killed.
        """
        report: dict[str, Any] = {}
        try:
            if self.process.poll() is None:
                report = self.command("stop", STOP_TIMEOUT)
                self.process.wait(timeout=STOP_TIMEOUT)
        except (ChildError, OSError, subprocess.TimeoutExpired, ValueError):
            report = {}
        finally:
            self._kill_group()
        return report

    def _kill_group(self) -> None:
        """SIGKILL whatever is left of the child's process group, then reap."""
        try:
            os.killpg(self.group, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            self.process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - unkillable child
            pass
        deadline = time.monotonic() + 5.0
        while self.group_alive() and time.monotonic() < deadline:
            time.sleep(0.01)  # SIGKILL is asynchronous for the child's own children
        for pipe in (self.process.stdin, self.process.stdout):
            if pipe is not None:
                try:
                    pipe.close()
                except OSError:
                    pass

    def group_alive(self) -> bool:
        """Is any process of the child's group still running?

        Read from ``/proc``: a killed orphan stays a zombie until init
        reaps it, and a zombie still answers ``killpg(group, 0)``.
        """
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue  # gone between listing and reading
            state, group = fields[0], int(fields[2])
            if group == self.group and state not in ("Z", "X"):
                return True
        return False

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


# -- the child's side --------------------------------------------------------


def _say(payload: dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def _boot_server(options: dict[str, Any]) -> Any:
    from repro.server import DkbServer, ServerConfig

    path = os.path.join(options["dir"], "dkb.sqlite")
    return DkbServer(ServerConfig(path=path, readers=options["readers"])).start()


def _boot_cluster(options: dict[str, Any]) -> Any:
    from repro.cluster import ClusterConfig, ClusterSupervisor, PartitionSpec, TablePartition

    spec = PartitionSpec(
        shards=options["shards"],
        tables={name: TablePartition(column) for name, column in options["tables"].items()},
        routes=dict(options["routes"]),
    )
    return ClusterSupervisor(
        ClusterConfig(spec=spec, data_dir=options["dir"], replicas=0, readers=options["readers"])
    )


def main(argv: list[str]) -> int:
    kind, options = argv[0], json.loads(argv[1])
    missing: list[str] = []
    recorder = None
    launcher_pid = os.getpid()
    try:
        if options.get("trace"):
            from . import trace

            missing = trace.install()
            recorder = trace.RECORDER
            if kind == "cluster":
                # Shard processes are forked from here with the hooks in
                # place; each writes its spans out when its runtime closes.
                missing += trace.install((trace.Hook(
                    "cluster.shard.close",
                    ("repro.cluster.shard:ShardRuntime.close",),
                    kind="after",
                    probe=lambda: (
                        os.getpid() != launcher_pid
                        and recorder.dump(
                            os.path.join(options["dir"], f"spans-{os.getpid()}.json"), "shard"
                        )
                    ),
                ),))
        system = _boot_cluster(options) if kind == "cluster" else _boot_server(options)
    except BaseException as error:
        _say({"error": f"{type(error).__name__}: {error}"})
        return 1

    report: dict[str, Any] = {}
    try:
        _say({"address": list(system.address), "pid": launcher_pid, "missing_hooks": missing})
        for line in sys.stdin:
            command = line.strip()
            if command == "stop":
                break
            if command in ("trace on", "trace off") and recorder is not None:
                recorder.enabled = command == "trace on"
            _say({"ok": True})
    finally:
        import multiprocessing

        from .workload import high_water_kb

        shards = {
            process.pid: high_water_kb(process.pid)
            for process in multiprocessing.active_children()
            if process.pid is not None
        }
        own = high_water_kb()
        system.close()
        report = {
            "peak_rss_kb": own + sum(shards.values()),
            "processes": {"self": own, **{str(pid): value for pid, value in shards.items()}},
            "span_files": [],
        }
        if recorder is not None:
            recorder.enabled = False
            path = os.path.join(options["dir"], f"spans-{launcher_pid}.json")
            recorder.dump(path, "router" if kind == "cluster" else "server")
            report["span_files"] = sorted(
                os.path.join(options["dir"], name)
                for name in os.listdir(options["dir"])
                if name.startswith("spans-")
            )
    _say(report)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
