"""Extension bench: the section 2.5 magic sets rewriting on same-generation.

The paper's Optimizer builds one rewrite, the generalized magic sets.  This
comparison runs it on one bound same-generation query over a layered
genealogy, three ways — the unoptimized semi-naive loop, the magic-sets
rewrite on the same loop, and the default plan (the per-form decision,
fused into one statement) — and checks:

* every plan computes exactly the same answers;
* every rewriting beats the unoptimized baseline (the query is selective).
"""

from __future__ import annotations

from repro.bench import format_rewrite_methods, run_rewrite_methods

GENERATIONS = 10
WIDTH = 48


def test_rewrite_methods_ablation(run_once):
    points = run_once(run_rewrite_methods, GENERATIONS, WIDTH, 3)
    print()
    print(format_rewrite_methods(points))

    by_method = {p.method: p for p in points}
    plain = by_method["plain"]
    magic = by_method["magic"]
    default = by_method["default"]

    # Same answers everywhere.
    assert len({p.answers for p in points}) == 1

    # The bound query is selective: every rewriting wins over plain.
    assert magic.seconds < plain.seconds
    assert default.seconds < plain.seconds
