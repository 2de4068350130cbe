"""The layered performance ledger: this repo's benchmark.

Six workloads, each driving the D/KBMS only through its user-facing
surface (``Testbed``, ``DkbServer``, ``ClusterSupervisor``, ``DkbClient``
and the JSON line protocol) with library defaults, measured end to end
with tracing off and — in a separate traced pass — layer by layer from
spans this package records around each layer's public boundary.

Run ``python -m ledger run`` from the repo root; see ``ledger/README.md``.
"""

__all__ = ["__version__"]

__version__ = "1"
