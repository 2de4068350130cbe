"""Bill-of-materials (parts explosion) — the classic recursive DB workload.

A manufacturing database stores which parts directly contain which
subparts.  Two recursive views answer the two standard questions:

* *explosion*: every part, at any depth, inside a given assembly;
* *where-used*: every assembly, at any depth, that contains a given part.

The where-used query is highly selective (one part out of many), which is
exactly where the generalized magic sets optimization shines; the example
measures both ways.

Run:  python examples/bill_of_materials.py
"""

from repro import Testbed

RULES = """
contains(A, P)   :- component(A, P).
contains(A, P)   :- component(A, S), contains(S, P).
where_used(P, A) :- component(A, P).
where_used(P, A) :- component(S, P), where_used(S, A).
"""


def build_catalog(testbed: Testbed, width: int = 4, depth: int = 5) -> int:
    """A synthetic product: a tree of assemblies, `width` subparts each."""
    testbed.define_base_relation("component", ("TEXT", "TEXT"))
    rows = []
    frontier = ["product"]
    for level in range(depth):
        next_frontier = []
        for assembly in frontier:
            for index in range(width):
                part = f"{assembly}.{index}"
                rows.append((assembly, part))
                next_frontier.append(part)
        frontier = next_frontier
    testbed.load_facts("component", rows)
    return len(rows)


def main() -> None:
    testbed = Testbed()
    testbed.define(RULES)
    count = build_catalog(testbed)
    print(f"catalog: {count} direct containment facts")

    # Parts explosion of one sub-assembly.
    explosion = testbed.query("?- contains('product.0.1', P).", optimize=True)
    print(f"product.0.1 contains {len(explosion.rows)} parts "
          f"(e.g. {sorted(explosion.rows)[:3]})")

    # Where-used for one deep part: a needle-in-haystack query.
    part = "product.0.1.2.3.0"
    plain = testbed.query(f"?- where_used('{part}', A).", optimize=False)
    magic = testbed.query(f"?- where_used('{part}', A).", optimize=True)
    assert sorted(plain.rows) == sorted(magic.rows)
    print(f"\n{part} is used in {len(magic.rows)} assemblies:")
    for (assembly,) in sorted(magic.rows):
        print(f"  {assembly}")
    print(f"\nwhere-used timing: plain {plain.execution_seconds * 1000:.1f} ms, "
          f"magic sets {magic.execution_seconds * 1000:.1f} ms "
          f"({plain.execution_seconds / magic.execution_seconds:.1f}x faster)")

    # Commit the views to the stored D/KB so later sessions can reuse them.
    update = testbed.update_stored_dkb()
    print(f"\nstored {len(update.new_rules)} rules; "
          f"closure gained {update.new_closure_pairs} reachability pairs")
    # The views still answer, now compiled out of the stored D/KB.
    again = testbed.query("?- contains('product.0.1', P).")
    assert len(again.rows) == len(explosion.rows)
    print("views still answer after being moved to the stored D/KB")

    testbed.close()


if __name__ == "__main__":
    main()
