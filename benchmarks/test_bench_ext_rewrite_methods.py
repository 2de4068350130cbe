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

from repro.bench.specs import REWRITE

from .conftest import p50

GENERATIONS = 10
WIDTH = 48


def test_rewrite_methods_ablation(run_spec):
    rows = run_spec(REWRITE, generations=GENERATIONS, width=WIDTH, repetitions=3)

    by_method = {row["lever"]: p50(row) for row in rows}
    plain = by_method["plain"]
    magic = by_method["magic"]
    default = by_method["default"]

    # Same answers everywhere (the runner also compares the answer sets).
    assert len({row["counts"]["answers"] for row in rows}) == 1

    # The bound query is selective: every rewriting wins over plain.
    assert magic < plain
    assert default < plain
