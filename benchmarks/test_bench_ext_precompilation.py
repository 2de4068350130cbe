"""Extension bench: query precompilation (paper conclusion 3).

"Precompilation of D/KB queries can prove to be very useful ... especially
for frequently occurring queries with large R_rs values."  This bench
measures the repeated-query latency with the precompiled-query cache (the
default path of ``Testbed.query``) and without it (``precompile=False``),
across R_rs, and checks the paper's claim: the benefit grows with the
compilation cost being amortised.
"""

from __future__ import annotations

from repro.bench import format_precompilation, run_precompilation

RELEVANT_RULES = (5, 10, 20)


def test_precompilation_amortises_compilation(run_once):
    points = run_once(run_precompilation, RELEVANT_RULES, 120, 7)
    print()
    print(format_precompilation(points))

    # Precompiled repeats skip compilation entirely: the cached total must
    # be well under compile+execute at every R_rs.
    for point in points:
        assert point.cached_total_seconds < point.uncached_total_seconds, point
        assert point.speedup > 1.2, point

    # Compilation time grows with R_rs, so the amortised saving does too.
    assert points[-1].compile_seconds > points[0].compile_seconds
