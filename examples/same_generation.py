"""Same-generation cousins — the other canonical recursive query.

``same_generation`` is the standard benchmark for non-linear information
passing: the recursive rule walks *up* the family tree, sideways through
``flat``, and back *down*, so the magic set must follow the ``up`` edges.
The example builds a multi-generation genealogy and finds everyone in the
same generation as a given person.

Run:  python examples/same_generation.py
"""

from repro import LfpStrategy, Testbed
from repro.workloads.queries import SAME_GENERATION_RULES


def build_genealogy(testbed: Testbed, generations: int = 5, width: int = 3):
    """A layered genealogy: generation g person i has a parent in g-1."""
    testbed.define_base_relation("up", ("TEXT", "TEXT"))
    testbed.define_base_relation("down", ("TEXT", "TEXT"))
    testbed.define_base_relation("flat", ("TEXT", "TEXT"))
    up, down, flat = [], [], []
    for generation in range(1, generations):
        for index in range(width):
            child = f"g{generation}_{index}"
            parent = f"g{generation - 1}_{index % width}"
            up.append((child, parent))  # child -up-> parent
            down.append((parent, child))
    # Siblings at the top generation are trivially same-generation.
    for i in range(width):
        for j in range(width):
            if i != j:
                flat.append((f"g0_{i}", f"g0_{j}"))
    testbed.load_facts("up", up)
    testbed.load_facts("down", down)
    testbed.load_facts("flat", flat)
    return len(up) + len(down) + len(flat)


def main() -> None:
    testbed = Testbed()
    testbed.define(SAME_GENERATION_RULES)
    facts = build_genealogy(testbed)
    print(f"genealogy: {facts} facts across up/down/flat")

    person = "g3_1"
    # Semi-naive materialises every derived relation, so the tuple counts
    # below are meaningful (the default one-statement plan stores none).
    plain = testbed.query(
        f"?- same_generation('{person}', Y).",
        optimize=False,
        strategy=LfpStrategy.SEMINAIVE,
    )
    magic = testbed.query(
        f"?- same_generation('{person}', Y).",
        optimize=True,
        strategy=LfpStrategy.SEMINAIVE,
    )
    assert sorted(plain.rows) == sorted(magic.rows)
    peers = sorted(y for (y,) in magic.rows if y != person)
    print(f"same generation as {person}: {peers}")
    print(f"timing: plain {plain.execution_seconds * 1000:.2f} ms "
          f"({plain.execution.tuples_by_predicate.get('same_generation', 0)} "
          f"sg tuples materialised), magic "
          f"{magic.execution_seconds * 1000:.2f} ms")

    # Show the rewritten rule set the optimizer produced.
    fragment = testbed.explain(
        f"?- same_generation('{person}', Y).", optimize=True
    )
    print("\nmagic-rewritten rules in the generated fragment:")
    for line in fragment.splitlines():
        if "m_same_generation" in line and "SELECT" not in line:
            print(" ", line.strip())

    testbed.close()


if __name__ == "__main__":
    main()
