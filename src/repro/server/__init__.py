"""The concurrent query server: a multi-session D/KBMS service.

The paper's testbed is one interactive session — one Knowledge Manager
compiling one query at a time over one embedded-SQL connection.  This
package grows that into a service: a :class:`~repro.server.service.DkbServer`
accepts many TCP clients, draws per-connection :class:`~repro.km.session.
Testbed` handles from a :class:`~repro.server.pool.SessionPool` over one
SQLite file in WAL mode, serializes updates through a single-writer lock
that bumps a persistent D/KB version, and answers repeated queries from a
version-keyed result cache.

Layers:

* :mod:`~repro.server.protocol` — the line-oriented JSON wire protocol;
* :mod:`~repro.server.admission` — bounded admission control (slots,
  waiter cap, timeouts, ``SERVER_BUSY`` load shedding);
* :mod:`~repro.server.pool` — the session pool: single writer, many
  snapshot readers, monotonic D/KB version persisted in the catalog;
* :mod:`~repro.server.cache` — the versioned query-result cache;
* :mod:`~repro.server.service` — the protocol core (``LineServer``), which
  the cluster router shares, and the server role on it (``DkbServer``);
* :mod:`~repro.server.client` — a blocking client;
* :mod:`~repro.server.loadgen` — a multi-process closed-loop load
  generator reporting throughput and latency percentiles.
"""

from .admission import AdmissionController, AdmissionTimeout, ServerBusy
from .cache import VersionedResultCache, canonical_query
from .client import (
    DkbClient,
    ServerError,
    StaleReplicaError,
    WrongShardError,
)
from .loadgen import LoadgenReport, run_loadgen
from .pool import ReadResult, SessionPool, StaleSnapshot
from .protocol import ErrorCode, ProtocolError
from .service import DkbServer, ServerConfig

__all__ = [
    "AdmissionController",
    "AdmissionTimeout",
    "DkbClient",
    "DkbServer",
    "ErrorCode",
    "LoadgenReport",
    "ProtocolError",
    "ReadResult",
    "ServerBusy",
    "ServerConfig",
    "ServerError",
    "SessionPool",
    "StaleReplicaError",
    "StaleSnapshot",
    "VersionedResultCache",
    "WrongShardError",
    "canonical_query",
    "run_loadgen",
]
