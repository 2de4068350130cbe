"""Generators: deterministic per seed, same shape for every seed."""

from ledger import inputs, oracle


def test_same_seed_same_inputs():
    first = inputs.layered_dag("d", 4, 6, 2, inputs.rng_for(7, "w"))
    again = inputs.layered_dag("d", 4, 6, 2, inputs.rng_for(7, "w"))
    other = inputs.layered_dag("d", 4, 6, 2, inputs.rng_for(8, "w"))
    assert first == again and first != other
    assert inputs.digest(first) == inputs.digest(again) != inputs.digest(other)
    assert len(first) == len(other) == 3 * 6 * 2


def test_cyclic_family_has_a_fixed_closure_size():
    for seed in (1, 2, 3):
        edges = inputs.chorded_cycles("c", 3, 5, 2, inputs.rng_for(seed))
        assert len(edges) == 3 * (5 + 2)
        assert len(oracle.closure(edges)) == 3 * 5 * 5


def test_tree_levels_and_chain_modules():
    assert len(inputs.binary_tree("t", 3)) == 14
    assert inputs.tree_level("t", 2) == ["t3", "t4", "t5", "t6"]
    rules = inputs.chain_module("m", 3, "b")
    assert rules == [
        "m_p0(X, Y) :- m_p1(X, Z), b(Z, Y).",
        "m_p1(X, Y) :- m_p2(X, Z), b(Z, Y).",
        "m_p2(X, Y) :- b(X, Y).",
    ]
    assert "_" not in inputs.seed_tag(1988)
