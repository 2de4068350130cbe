"""The sharded multi-process D/KBMS cluster.

A routing front-end (:class:`ClusterRouter`) over ``N`` shard backends,
each a full concurrent query server (:mod:`repro.server`) holding one hash
partition of the EDB, optionally with read replicas fed by snapshot copy
and watermarked by the persistent D/KB version counter.  The partition
*metadata* lives in :mod:`repro.km.partition`; this package holds the
runtime: routing (:mod:`.partition`), replication (:mod:`.replica`), the
per-shard process (:mod:`.shard`), the front-end (:mod:`.router`), and
cluster boot (:mod:`.supervisor`).
"""

from ..km.partition import PartitionSpec, TablePartition
from .partition import Partitioner, QueryRoute, merge_rows
from .replica import Replicator
from .router import ClusterRouter, ReadPolicy, RouterConfig
from .shard import ShardAddresses, ShardRuntime
from .supervisor import ClusterConfig, ClusterSupervisor, LocalCluster

__all__ = [
    "ClusterConfig",
    "ClusterRouter",
    "ClusterSupervisor",
    "LocalCluster",
    "PartitionSpec",
    "Partitioner",
    "QueryRoute",
    "ReadPolicy",
    "Replicator",
    "RouterConfig",
    "ShardAddresses",
    "ShardRuntime",
    "TablePartition",
    "merge_rows",
]
