"""Booting whole clusters: in-process for tests, one process per shard.

Two deployment shapes over the same parts:

* :class:`LocalCluster` runs every shard runtime *and* the router inside
  the calling process — deterministic and debuggable, the shape the
  consistency tests use (``sync_replicas()`` replaces sleeping on the
  replication poll);
* :class:`ClusterSupervisor` forks one OS process per shard (the shard
  reports its bound addresses back over a pipe) and runs the router in
  the supervising process — real multi-process parallelism, the shape
  ``python -m repro cluster`` and the scaling benchmark use.

Both resolve a :class:`ClusterConfig` into one primary
:class:`~repro.server.service.ServerConfig` per shard and a
:class:`~repro.cluster.router.RouterConfig`.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
from dataclasses import asdict, dataclass, field
from typing import Any, Optional

from ..km.partition import PartitionSpec
from ..server.client import DkbClient
from ..server.service import ServerConfig
from .partition import Partitioner
from .router import ClusterRouter, ReadPolicy, RouterConfig
from .shard import ShardAddresses, ShardRuntime


@dataclass(frozen=True)
class ClusterConfig:
    """One declaration for a whole cluster (picklable).

    Attributes:
        spec: the partition metadata; ``spec.shards`` is the shard count.
        data_dir: directory receiving ``shard{i}.sqlite`` files (created
            if missing).
        replicas: read replicas per shard.
        host: bind address for every server and the router.
        router_port: the router's port (``0`` = ephemeral); shard backends
            always bind ephemerally.
        read_policy: the router's replica usage and staleness bounds.
        readers: reader sessions per backend server.
        max_waiters: admission wait-queue bound per backend server.
        cache_size: result-cache entries per backend server.
        request_timeout: per-query budget in seconds.
        replication_poll: replica pull cadence in seconds.
        metrics_port: the router's Prometheus ``/metrics`` side port
            (``0`` = ephemeral; ``None`` = no exporter).
    """

    spec: PartitionSpec
    data_dir: str
    replicas: int = 0
    host: str = "127.0.0.1"
    router_port: int = 0
    read_policy: ReadPolicy = field(default_factory=ReadPolicy)
    readers: int = 4
    max_waiters: int = 64
    cache_size: int = 256
    request_timeout: "float | None" = 30.0
    replication_poll: float = 0.25
    trace: bool = False
    metrics_port: Optional[int] = None

    def shard_path(self, shard_id: int) -> str:
        return os.path.join(self.data_dir, f"shard{shard_id}.sqlite")

    def shard_config(self, shard_id: int) -> ServerConfig:
        """The primary server config of shard ``shard_id``."""
        return ServerConfig(
            path=self.shard_path(shard_id),
            host=self.host,
            readers=self.readers,
            max_waiters=self.max_waiters,
            session_timeout=30.0,
            request_timeout=self.request_timeout,
            cache_size=self.cache_size,
            trace=self.trace,
            shard_id=shard_id,
            partition=self.spec,
            replication_poll=self.replication_poll,
        )

    def router_config(
        self, shards: "list[ShardAddresses]"
    ) -> RouterConfig:
        return RouterConfig(
            partitioner=Partitioner(self.spec),
            shards=tuple(shards),
            host=self.host,
            port=self.router_port,
            read_policy=self.read_policy,
            metrics_port=self.metrics_port,
        )


class LocalCluster:
    """Every shard and the router in one process — the test harness shape."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        os.makedirs(config.data_dir, exist_ok=True)
        self.shards: list[ShardRuntime] = []
        self.router: Optional[ClusterRouter] = None
        try:
            for shard_id in range(config.spec.shards):
                self.shards.append(
                    ShardRuntime(config.shard_config(shard_id), config.replicas)
                )
            self.router = ClusterRouter(
                config.router_config(
                    [runtime.addresses for runtime in self.shards]
                )
            ).start()
        except BaseException:
            self.close()
            raise

    @property
    def address(self) -> tuple[str, int]:
        assert self.router is not None
        return self.router.address

    def client(self, timeout: float | None = 30.0) -> DkbClient:
        """A fresh protocol connection to the router."""
        host, port = self.address
        return DkbClient(host, port, timeout=timeout)

    def sync_replicas(self) -> dict[int, list[int]]:
        """Force one replication step everywhere; per-shard watermarks."""
        return {runtime.shard_id: runtime.sync_replicas() for runtime in self.shards}

    def close(self) -> None:
        if self.router is not None:
            self.router.close()
            self.router = None
        for runtime in self.shards:
            runtime.close()
        self.shards = []

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _shard_entry(
    config: ServerConfig,
    replicas: int,
    conn: multiprocessing.connection.Connection,
) -> None:
    """One shard process: boot, report addresses, serve until told to stop.

    Module-level so the spawn start method can pickle it; the runtime
    serves from its own daemon threads, so this entry just parks on the
    control pipe — any message (or the supervisor dying and closing its
    end) is the shutdown signal.
    """
    try:
        runtime = ShardRuntime(config, replicas)
    except BaseException as error:
        conn.send({"error": f"{type(error).__name__}: {error}"})
        raise
    try:
        conn.send(runtime.addresses)
        try:
            conn.recv()
        except EOFError:
            pass
    finally:
        runtime.close()


class ClusterSupervisor:
    """One process per shard plus the router — ``python -m repro cluster``.

    Args:
        config: the cluster declaration.
        boot_timeout: seconds to wait for each shard process to report its
            bound addresses before declaring the boot failed.
    """

    def __init__(self, config: ClusterConfig, boot_timeout: float = 60.0) -> None:
        self.config = config
        os.makedirs(config.data_dir, exist_ok=True)
        context = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )
        self._processes: list[multiprocessing.process.BaseProcess] = []
        self._pipes: list[multiprocessing.connection.Connection] = []
        self.shards: list[ShardAddresses] = []
        self.router: Optional[ClusterRouter] = None
        try:
            for shard_id in range(config.spec.shards):
                parent, child = context.Pipe()
                process = context.Process(
                    target=_shard_entry,
                    args=(config.shard_config(shard_id), config.replicas, child),
                    name=f"dkb-shard-{shard_id}",
                    daemon=True,
                )
                process.start()
                child.close()
                self._processes.append(process)
                self._pipes.append(parent)
            for shard_id, pipe in enumerate(self._pipes):
                if not pipe.poll(boot_timeout):
                    raise RuntimeError(
                        f"shard {shard_id} did not report within "
                        f"{boot_timeout}s"
                    )
                payload = pipe.recv()
                if not isinstance(payload, ShardAddresses):
                    raise RuntimeError(
                        f"shard {shard_id} failed to boot: {payload['error']}"
                    )
                self.shards.append(payload)
            self.router = ClusterRouter(
                config.router_config(self.shards)
            ).start()
        except BaseException:
            self.close()
            raise

    @property
    def address(self) -> tuple[str, int]:
        assert self.router is not None
        return self.router.address

    def client(self, timeout: float | None = 30.0) -> DkbClient:
        host, port = self.address
        return DkbClient(host, port, timeout=timeout)

    def describe(self) -> dict[str, Any]:
        """A JSON-friendly picture of the running topology."""
        return {
            "router": list(self.address),
            "shards": [asdict(addresses) for addresses in self.shards],
            "partition": self.config.spec.to_dict(),
            "replicas": self.config.replicas,
        }

    def serve_forever(self) -> None:
        """Block until interrupted (the ``python -m repro cluster`` loop).

        The router already serves from its own thread; this just parks the
        supervising thread so ``KeyboardInterrupt`` lands somewhere useful.
        """
        import time

        while True:
            time.sleep(1.0)

    def close(self) -> None:
        if self.router is not None:
            self.router.close()
            self.router = None
        for pipe in self._pipes:
            try:
                pipe.send("stop")
            except (BrokenPipeError, OSError):
                pass
        for process in self._processes:
            process.join(timeout=10.0)
        for process in self._processes:
            if process.is_alive():  # pragma: no cover - stuck shard
                process.terminate()
                process.join(timeout=5.0)
        for pipe in self._pipes:
            pipe.close()
        self._processes = []
        self._pipes = []

    def __enter__(self) -> "ClusterSupervisor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "ClusterConfig",
    "ClusterSupervisor",
    "LocalCluster",
]
