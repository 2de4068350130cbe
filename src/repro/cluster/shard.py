"""One shard of the cluster: a primary server, its replicas, their feeds.

A shard is a full PR-5 concurrent query server — session pool, admission
control, versioned result cache — over its own database file holding one
hash partition of the EDB, plus ``replicas`` read-only copies each fed by
a snapshot-copy :class:`~repro.cluster.replica.Replicator`.  The
:class:`ShardRuntime` boots all of it inside one process; the supervisor
runs one such process per shard, and the in-process ``LocalCluster`` used
by tests runs them as threads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from ..server.service import DkbServer, ServerConfig
from .replica import Replicator


@dataclass
class ShardAddresses:
    """The bound addresses of one running shard (JSON/pickle friendly).

    ``readers`` is how many connections each of its servers admits at once.
    """

    shard_id: int
    primary: tuple[str, int]
    readers: int
    replicas: list[tuple[str, int]] = field(default_factory=list)


class ShardRuntime:
    """Boots and owns one shard's primary, replicas, and replicators.

    ``config`` is the primary's; it must name the shard (``shard_id``).
    Each replica serves a copy beside the primary's file with the same
    settings, as a ``replica`` of that primary, on an ephemeral port.
    """

    def __init__(self, config: ServerConfig, replicas: int = 0) -> None:
        if config.shard_id is None:
            raise ValueError("a shard's ServerConfig needs a shard_id")
        self.config = config
        self.shard_id: int = config.shard_id
        self.primary = DkbServer(config).start()
        self.replicators: list[Replicator] = []
        self.replicas: list[DkbServer] = []
        root, extension = os.path.splitext(config.path)
        try:
            for index in range(replicas):
                path = f"{root}.replica{index}{extension or '.sqlite'}"
                # The first sync (inside start()) writes a complete copy of
                # the primary — catalog included — before the replica's own
                # pool opens, so the replica never serves a half-built file.
                # replica.* metrics land in the primary's registry, which
                # its ``stats`` op and ``/metrics`` exporter publish.
                replicator = Replicator(
                    config.path,
                    path,
                    poll_interval=config.replication_poll,
                    metrics=self.primary.metrics,
                ).start()
                self.replicators.append(replicator)
                replica = replace(
                    config,
                    path=path,
                    port=0,
                    role="replica",
                    leader=self.primary.address,
                )
                self.replicas.append(DkbServer(replica).start())
        except BaseException:
            self.close()
            raise

    @property
    def addresses(self) -> ShardAddresses:
        return ShardAddresses(
            shard_id=self.shard_id,
            primary=self.primary.address,
            replicas=[replica.address for replica in self.replicas],
            readers=self.config.readers,
        )

    def sync_replicas(self) -> list[int]:
        """Force one replication step on every replica; returns watermarks."""
        return [replicator.sync() for replicator in self.replicators]

    def close(self) -> None:
        for replicator in self.replicators:
            replicator.close()
        for replica in self.replicas:
            replica.close()
        self.primary.close()

    def __enter__(self) -> "ShardRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = ["ShardAddresses", "ShardRuntime"]
