"""Production features tour: per-form optimization, precompilation, constraints.

The paper's conclusions sketch features its testbed did not implement; this
reproduction builds them out.  This example exercises all three on one
knowledge base:

* the **per-form optimizer** (conclusion 4) switches magic sets on for a
  query form whose bound goal reaches recursion, and off otherwise;
* **query precompilation** (conclusion 3) caches compiled programs and
  invalidates them when rule updates could change the plan;
* **integrity constraints** (a section-4.3 gap) guard stored-D/KB updates.

Run:  python examples/production_features.py
"""

from repro import Testbed
from repro.errors import UpdateError
from repro.workloads.relations import full_binary_trees, tree_node, first_node_at_level


def main() -> None:
    testbed = Testbed()
    relation = full_binary_trees(1, 9)
    testbed.define(
        """
        reports_to(X, Y) :- manager(X, Y).
        reports_to(X, Y) :- manager(X, Z), reports_to(Z, Y).
        % nobody may (transitively) manage themselves
        inconsistent(X) :- reports_to(X, X).
        """
    )
    testbed.define_base_relation("manager", ("TEXT", "TEXT"))
    testbed.load_facts("manager", relation.edges)
    print(f"org chart: {relation.tuple_count} direct reporting edges")

    # --- per-form optimization ----------------------------------------------------
    print("\nper-form optimizer (optimize='auto', the default):")
    for label, text in (
        ("CEO", f"?- reports_to('{tree_node('t', 1)}', Y)."),
        ("team lead", f"?- reports_to('{tree_node('t', first_node_at_level(7))}', Y)."),
        ("everyone", "?- reports_to(X, Y)."),
    ):
        result = testbed.query(text, precompile=False)
        decision = result.compilation.adaptive_decision
        print(
            f"  {label:<10} {len(result.rows):>5} answers; "
            f"{decision.rewrite} plan "
            f"({decision.reason})"
        )

    # --- precompilation ----------------------------------------------------------
    print("\nquery precompilation:")
    first = testbed.query(f"?- reports_to('{tree_node('t', 4)}', Y).")
    other = testbed.query(f"?- reports_to('{tree_node('t', 5)}', Y).")
    stats = testbed.precompiled.statistics
    print(
        f"  first run compiled in {first.compile_seconds * 1000:.2f} ms; "
        f"the same query form with another constant reused its plan "
        f"(cached={other.compilation.cached}, "
        f"t_c = {other.compile_seconds * 1000:.2f} ms, "
        f"hits={stats.hits}, misses={stats.misses})"
    )
    testbed.define("reports_to(X, Y) :- dotted_line(X, Y). dotted_line(a, b).")
    print(
        f"  after a new reports_to rule the cache holds "
        f"{len(testbed.precompiled)} plans "
        f"({stats.invalidations} invalidated)"
    )

    # --- integrity constraints ----------------------------------------------------
    print("\nintegrity constraints:")
    print(f"  violations now: {len(testbed.check_consistency())}")
    testbed.load_facts("manager", [(tree_node("t", 8), tree_node("t", 1))])
    violations = testbed.check_consistency()
    print(f"  after adding a cyclic edge: {violations[0].describe()}")
    try:
        testbed.update_stored_dkb(verify_consistency=True)
    except UpdateError:
        print("  stored-D/KB update refused while the cycle exists")

    testbed.close()


if __name__ == "__main__":
    main()
