"""Test 2 (Figures 9 and 10): data-dictionary read time.

Paper findings reproduced here:

* ``t_readdict`` is insensitive to the total number of stored derived
  predicates ``P_s`` (the dictionary relations are indexed);
* ``t_readdict`` increases with the number of relevant predicates ``P_rs``
  (the join selectivity of the dictionary query).
"""

from __future__ import annotations

from statistics import median

from repro.bench.specs import DICTIONARY

from .conftest import p50

TOTAL_PREDICATES = (50, 100, 200, 400)
RELEVANT_PREDICATES = (1, 4, 10)


def test_fig09_10_dictionary_read_time(run_spec):
    rows = run_spec(
        DICTIONARY,
        total_predicates=TOTAL_PREDICATES,
        relevant_predicates=RELEVANT_PREDICATES,
        repetitions=7,
    )

    # One dictionary query regardless of catalog size.
    assert all(row["counts"]["statements"] == 1 for row in rows)

    # Insensitive to P_s within each P_rs curve.
    for relevant in RELEVANT_PREDICATES:
        curve = [
            p50(row) for row in rows if row["point"]["relevant_predicates"] == relevant
        ]
        assert max(curve) < 5 * min(curve), (relevant, curve)

    # Grows with P_rs at each fixed P_s.
    for total in TOTAL_PREDICATES:
        small = median(
            p50(row)
            for row in rows
            if row["point"] == {"relevant_predicates": 1, "total_predicates": total}
        )
        large = median(
            p50(row)
            for row in rows
            if row["point"] == {"relevant_predicates": 10, "total_predicates": total}
        )
        assert large > 1.5 * small, (total, small, large)
