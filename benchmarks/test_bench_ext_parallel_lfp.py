"""Extension bench: simulated parallel LFP evaluation (conclusions 5 and 7).

The paper had no parallel database machine; neither do we, so a real
evaluation is traced statement-by-statement and replayed under a k-worker
schedule in which each iteration's right-hand-side evaluations run
concurrently while temp-table management and termination checks stay serial
(see :mod:`repro.runtime.parallel_sim`).  Checked claims:

* conclusion 7: parallel RHS evaluation yields real speedup;
* conclusion 5: the speedup saturates — the serial share of wall time only
  *grows* with parallelism, so "the inefficiencies cannot be overcome using
  parallelism alone".
"""

from __future__ import annotations

from repro.bench.specs import PARALLEL

from .conftest import by, p50

DEPTH = 10
WORKERS = (1, 2, 4, 8, 16)


def test_parallel_lfp_simulation(run_spec):
    rows = run_spec(PARALLEL, depth=DEPTH, workers=WORKERS, levers=("seminaive",))

    schedules = [row for row in rows if row["lever"] == "seminaive"]
    baseline = schedules[0]["counts"]
    # Monotone, real speedup from parallel RHS evaluation (conclusion 7).
    walls = [p50(row) for row in schedules]
    assert all(b >= a - 1e-12 for a, b in zip(walls[1:], walls)), walls
    assert schedules[-1]["counts"]["speedup"] > 1.2

    # The serial share grows with the worker count (conclusion 5): table
    # copies and termination checks do not parallelise away.
    serial_shares = [row["counts"]["serial_share"] for row in schedules]
    assert all(
        b >= a - 1e-12 for a, b in zip(serial_shares, serial_shares[1:])
    ), serial_shares
    assert schedules[-1]["counts"]["serial_share"] > baseline["serial_share"]

    # Amdahl bound: the speedup can never exceed 1 / serial_fraction(1).
    limit = 1.0 / baseline["serial_share"]
    assert schedules[-1]["counts"]["speedup"] <= limit + 1e-9


def test_parallelism_helps_naive_more(run_spec):
    """Naive evaluation has more redundant RHS work, so it parallelises
    better — but still saturates at its serial floor."""

    rows = run_spec(PARALLEL, depth=DEPTH, workers=(1, 8))
    semi = by(rows, "workers", "seminaive")
    naive = by(rows, "workers", "naive")
    semi_speedup = semi[8]["counts"]["speedup"]
    naive_speedup = naive[8]["counts"]["speedup"]
    print(
        f"8-worker simulated speedup: semi-naive {semi_speedup:.2f}x, "
        f"naive {naive_speedup:.2f}x"
    )
    assert naive_speedup >= semi_speedup * 0.8  # never dramatically worse
    assert naive[8]["counts"]["serial_share"] > naive[1]["counts"]["serial_share"]
