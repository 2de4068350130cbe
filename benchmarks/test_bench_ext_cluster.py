"""Extension bench: the sharded multi-process cluster (PR 7 tentpole).

PR 5 scaled reader *sessions* inside one process; this bench measures
what sharding the D/KB itself across OS processes adds on top, on the
fig-12 ancestor workload lifted to disjoint entity-group trees:

* **Shard scaling** — 32 closed-loop clients issuing bound (pinned,
  uncached) ancestor queries against a 1-shard cluster vs a 4-shard
  cluster of the same seeded data.  Every query is a real recursive
  evaluation on its owning backend process, so aggregate throughput must
  reach the 2x acceptance floor at 4 shards even on small hosts (where
  the win is freedom from the single process's interpreter lock rather
  than extra cores).
"""

from __future__ import annotations

import os

from repro.bench.specs import CLUSTER_SCALING

from .conftest import by

# Quick mode (CI smoke): 2 shards, shallower trees, shorter burst, no
# speedup floor — the job only proves the supervisor + router + loadgen
# harness boots real shard processes and serves a burst cleanly.
QUICK = bool(os.environ.get("BENCH_QUICK"))
SHARDS = 2 if QUICK else 4
DEPTH = 5 if QUICK else 8
CLIENTS = 8 if QUICK else 32
DURATION = 2.5 if QUICK else 5.0
THINK_TIME = 0.02


def test_cluster_shard_scaling(run_spec):
    rows = run_spec(
        CLUSTER_SCALING,
        shards=(1, SHARDS),
        depth=DEPTH,
        clients=CLIENTS,
        duration=DURATION,
        think_time=THINK_TIME,
    )

    by_shards = by(rows, "shards")
    single, many = by_shards[1]["counts"], by_shards[SHARDS]["counts"]

    # Protocol hygiene: a loaded router must never produce malformed or
    # failed replies on any backend — shedding is allowed, errors are not.
    assert single["errors"] == 0 and many["errors"] == 0, rows
    assert single["requests"] > 0 and many["requests"] > 0

    if QUICK:
        # Smoke only: both topologies served the burst.
        return

    # Tentpole acceptance: 4 shard processes sustain >= 2x the aggregate
    # read throughput of 1 shard under the same client population.
    scaling = many["rps"] / single["rps"]
    assert scaling >= 2.0, (
        f"{SHARDS}-shard throughput only {scaling:.2f}x the 1-shard "
        f"baseline ({many['rps']:.1f} vs {single['rps']:.1f} rps)"
    )
