"""Quickstart: the classic ancestor query, end to end.

Creates a testbed, defines facts and recursive rules in the Horn clause
language, and runs queries with and without the magic sets rewrite — the
30-second tour of the public API.

Run:  python examples/quickstart.py
"""

from repro import LfpStrategy, Testbed


def main() -> None:
    testbed = Testbed()

    # Facts go to the extensional database, rules to the workspace D/KB.
    testbed.define(
        """
        % a small family tree
        parent(john, mary).    parent(john, bob).
        parent(mary, sue).     parent(mary, tom).
        parent(sue, ann).      parent(bob, kim).
        parent(kim, lee).

        % ancestor = transitive closure of parent
        ancestor(X, Y) :- parent(X, Y).
        ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).
        """
    )

    # A bound query: whose ancestor is john?  A bound goal over recursive
    # rules runs through the generalized magic sets rewrite by default, so
    # only tuples relevant to 'john' are computed.
    result = testbed.query("?- ancestor('john', X).")
    print("descendants of john:", sorted(x for (x,) in result.rows))
    print(f"  compiled in {result.compile_seconds * 1000:.2f} ms, "
          f"executed in {result.execution_seconds * 1000:.2f} ms, "
          f"magic sets: {result.compilation.optimized}")

    # The same query without the rewrite derives the whole closure first.
    plain = testbed.query("?- ancestor('john', X).", optimize=False)
    assert sorted(plain.rows) == sorted(result.rows)
    print("without magic sets:", sorted(x for (x,) in plain.rows))

    # Naive vs semi-naive LFP evaluation (the paper's Test 5 in miniature).
    for strategy in (LfpStrategy.NAIVE, LfpStrategy.SEMINAIVE):
        timed = testbed.query("?- ancestor('john', X).", strategy=strategy)
        print(f"  {strategy.value:<10} {timed.execution_seconds * 1000:7.2f} ms")

    # Multi-goal queries join their goals.
    middle = testbed.query("?- ancestor('john', X), ancestor(X, 'ann').")
    print("between john and ann:", sorted(x for (x,) in set(middle.rows)))

    # Inspect the program fragment the Knowledge Manager generated.
    fragment = testbed.explain("?- ancestor('john', X).")
    print("\ngenerated program fragment (first 12 lines):")
    print("\n".join(fragment.splitlines()[:12]))

    testbed.close()


if __name__ == "__main__":
    main()
