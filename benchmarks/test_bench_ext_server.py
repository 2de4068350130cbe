"""Extension bench: the concurrent query server (PR 5 tentpole).

The paper's testbed serves one interactive session; this bench measures
what the multi-session server adds on the fig-12 ancestor workload:

* **Throughput scaling** — 8 closed-loop clients (20 ms think time)
  against 1 reader session vs 8.  The interactive workload is think-time
  dominated, so extra sessions overlap the thinking and aggregate
  throughput must scale well past the 3x acceptance floor.
* **Versioned result cache** — a warm (cache-hit) read of the same bound
  query must be >= 10x faster, server-side, than the cold
  compile + evaluate it replaces.
"""

from __future__ import annotations

import os

from repro.bench.specs import SERVER_CACHE, SERVER_SCALING

from .conftest import by, p50

# Quick mode (CI smoke): smaller tree, shorter burst, relaxed assertions —
# the job only proves the server + loadgen harness runs end to end.
QUICK = bool(os.environ.get("BENCH_QUICK"))
DEPTH = 6 if QUICK else 7
CLIENTS = 8
DURATION = 2.0 if QUICK else 4.0
THINK_TIME = 0.02


def _write_served_query_trace(path):
    """Trace one served query into a Chrome trace file.

    The span tree (compile phases, LFP iterations, cache interaction) for
    a query that went through the pool's snapshot-read path ships with the
    bench reports as a CI artifact.
    """
    import tempfile

    from repro.obs.export import write_chrome_trace
    from repro.server import SessionPool
    from repro.workloads.served import ancestor_query_mix, seed_dkb

    with tempfile.TemporaryDirectory(prefix="repro_srv_trace_") as scratch:
        dkb = os.path.join(scratch, "dkb.sqlite")
        seed_dkb(dkb, DEPTH)
        with SessionPool(dkb, readers=1, trace=True) as pool:
            with pool.reader() as session:
                session.query(ancestor_query_mix(DEPTH, 1)[0])
                write_chrome_trace(
                    path,
                    session.testbed.tracer,
                    metadata={"name": "server_reader_query_trace", "depth": DEPTH},
                )


def test_server_throughput_scaling(run_spec):
    rows = run_spec(
        SERVER_SCALING,
        depth=DEPTH,
        readers=(1, 8),
        clients=CLIENTS,
        duration=DURATION,
        think_time=THINK_TIME,
    )
    report_dir = os.environ.get("BENCH_REPORT_DIR")
    if report_dir:
        _write_served_query_trace(os.path.join(report_dir, "TRACE_server.json"))

    by_readers = by(rows, "readers")
    single, many = by_readers[1]["counts"], by_readers[8]["counts"]

    # Protocol hygiene: a loaded server must never produce malformed or
    # failed replies — shedding is allowed, errors are not.
    assert single["errors"] == 0 and many["errors"] == 0, rows
    assert single["requests"] > 0 and many["requests"] > 0

    # The versioned result cache must carry the steady state: every client
    # replays the same bound-query mix, so hits dominate.
    assert many["hit_fraction"] > 0.0, many

    if QUICK:
        # Smoke only: both configurations served traffic.
        return

    # Tentpole acceptance: 8 reader sessions sustain >= 3x the aggregate
    # read throughput of 1 session under the same client population.
    scaling = many["rps"] / single["rps"]
    assert scaling >= 3.0, (
        f"8-reader throughput only {scaling:.2f}x the 1-reader baseline "
        f"({many['rps']:.1f} vs {single['rps']:.1f} rps)"
    )


def test_server_cache_ab(run_spec):
    rows = run_spec(SERVER_CACHE, depth=DEPTH)
    # A cold read that hit the cache, or a warm one that missed, is an
    # error row: the spec's measure checks every read.
    cold, warm = rows
    speedup = p50(cold) / p50(warm)

    assert warm["counts"]["hits"] > 0 and warm["counts"]["misses"] > 0, rows
    assert p50(warm) > 0.0

    if QUICK:
        # Smoke only: both paths produced timings.
        assert p50(cold) > 0.0
        return

    # Tentpole acceptance: a warm hit is >= 10x faster than the cold
    # compile + evaluate it replaces.
    assert speedup >= 10.0, (
        f"cache speedup only {speedup:.1f}x "
        f"(cold {p50(cold):.6f}s, warm {p50(warm):.6f}s)"
    )
