"""Consolidated Testbed configuration.

Every session knob lives in one frozen :class:`TestbedConfig` value instead
of a growing pile of ``Testbed.__init__`` keywords.  ``Testbed`` takes a
config, a bare path string, or nothing; the keyword form
(``Testbed(compiled_rule_storage=False, ...)``) is a ``TypeError``.  Code
writes::

    from repro import Testbed, TestbedConfig

    with Testbed(TestbedConfig(path="dkb.sqlite", trace=True)) as tb:
        ...

``dataclasses.replace`` gives cheap variants of a base configuration, which
the benchmark drivers use to sweep one knob at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dbms.engine import ConnectionOptions
from ..maintenance.dred import MaintenancePolicy
from .partition import PartitionSpec


@dataclass(frozen=True)
class TestbedConfig:
    """Everything a :class:`~repro.km.session.Testbed` can be told at birth.

    Attributes:
        path: SQLite database path (default: in-memory).
        compiled_rule_storage: maintain ``reachablepreds`` (the compiled
            rule form).  Turning this off reproduces the paper's
            source-form-only configuration: updates get much faster, query
            compilation slower.
        maintenance_policy: the DRed-vs-refresh cost heuristic used for
            delete maintenance of materialized views.
        trace: start the session with structured tracing enabled (spans,
            metrics, plan capture).  Off by default — tracing is designed to
            be zero-cost when disabled, and enabling it here is equivalent
            to calling :meth:`~repro.km.session.Testbed.enable_tracing`
            right after construction.
        connection: how the SQLite connection is opened
            (:class:`~repro.dbms.engine.ConnectionOptions`).  The default
            keeps the seed single-session behaviour; the concurrent query
            server opens its pooled sessions with the WAL-mode
            reader/writer presets.
        backend: name of the SQL backend holding the extensional database
            (see :func:`repro.dbms.backends.registered_backends`).  The
            default ``"sqlite"`` preserves the seed behaviour exactly;
            ``"duckdb"`` needs the optional ``duckdb`` package installed.
        partition: how the cluster splits the EDB across shards
            (:class:`~repro.km.partition.PartitionSpec`); ``None`` for the
            single-node testbed.  With ``shard_index`` set, fact loads
            into partitioned relations reject rows this shard does not
            own — the deepest layer of the cluster's WRONG_SHARD defense.
        shard_index: which hash partition this session's database holds
            (``None`` outside a cluster).
    """

    # Not a test class, despite the name — keeps pytest collection quiet.
    __test__ = False

    path: str = ":memory:"
    compiled_rule_storage: bool = True
    maintenance_policy: MaintenancePolicy = field(
        default_factory=MaintenancePolicy
    )
    trace: bool = False
    connection: ConnectionOptions = field(default_factory=ConnectionOptions)
    backend: str = "sqlite"
    partition: PartitionSpec | None = None
    shard_index: int | None = None
