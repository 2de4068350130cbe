"""Smoke tests for the experiment harness runners (tiny parameters).

The benchmark suite runs these at full size; here each runner is exercised
with minimal parameters so its mechanics — workload construction,
measurement plumbing, result shapes — are covered by the fast test suite.
"""

import pytest

import repro.bench as bench


class TestCompilationRunners:
    def test_extract_experiment(self):
        points = bench.run_extract_experiment((10, 20), (1, 3), repetitions=1)
        assert len(points) == 4
        for point in points:
            assert point.statements == 1
            assert point.rules_extracted == point.relevant_rules
            assert point.seconds > 0

    def test_dictionary_experiment(self):
        points = bench.run_dictionary_experiment((10, 20), (1, 2), repetitions=1)
        assert len(points) == 4
        assert all(p.statements == 1 for p in points)

    def test_compile_breakdown(self):
        rows = bench.run_compile_breakdown((1, 3), total_rules=10, repetitions=1)
        assert [r.relevant_rules for r in rows] == [1, 3]
        for row in rows:
            assert row.total > 0
            assert abs(sum(row.percentage(c) for c in row.components) - 100) < 1e-6
            # The paper's Table 4 has no optimize component: the runner pins
            # unrewritten plans and leaves the (decision-only) span out.
            assert "optimize" not in row.components


class TestExecutionRunners:
    def test_relevant_fraction(self):
        fixed_d, fixed_rel = bench.run_relevant_fraction_experiment(
            depth=5, growing_depths=(4, 5), fixed_subtree_depth=3, repetitions=1
        )
        assert len(fixed_d) == 4
        assert len(fixed_rel) == 2
        assert all(
            p.relevant_facts == fixed_rel[0].relevant_facts for p in fixed_rel
        )

    def test_naive_vs_seminaive(self):
        points = bench.run_naive_vs_seminaive(depth=5, repetitions=1)
        strategies = {p.strategy for p in points}
        assert strategies == {"naive", "seminaive"}

    def test_lfp_breakdown(self):
        rows = bench.run_lfp_breakdown(depth=5)
        assert {r.strategy for r in rows} == {"naive", "seminaive"}
        for row in rows:
            assert row.total_seconds > 0

    def test_magic_crossover_and_find(self):
        points = bench.run_magic_crossover(depth=5, repetitions=1)
        modes = {(p.strategy, p.optimized) for p in points}
        assert len(modes) == 4
        for strategy in ("naive", "seminaive"):
            # A crossover may or may not appear at this tiny size; the
            # helper must simply not crash and return None or a selectivity.
            crossover = bench.find_crossover(points, strategy)
            assert crossover is None or 0 < crossover <= 1

    def test_low_selectivity_blowup(self):
        plain, optimized = bench.run_low_selectivity_blowup(depth=7)
        assert plain.answers == optimized.answers
        assert plain.total_facts == optimized.total_facts


class TestUpdateRunners:
    def test_update_experiment(self):
        points = bench.run_update_experiment((9, 20), 1, repetitions=1)
        assert len(points) == 4
        assert {p.compiled_storage for p in points} == {True, False}

    def test_update_breakdown(self):
        points = bench.run_update_breakdown(((2, 20), (1, 20)), repetitions=1)
        assert [p.workspace_rules for p in points] == [2, 1]
        for point in points:
            total = sum(point.percentage(c) for c in point.components)
            assert abs(total - 100) < 1e-6


class TestExtensionRunners:
    def test_ablation(self):
        points = bench.run_lfp_operator_ablation(depth=5, repetitions=1)
        assert {p.strategy for p in points} == {
            "naive",
            "seminaive",
            "lfp_cte",
            "tc_operator",
        }
        assert len({p.answers for p in points}) == 1

    def test_rewrite_methods(self):
        points = bench.run_rewrite_methods(generations=4, width=3, repetitions=1)
        assert [p.method for p in points] == ["plain", "magic", "default"]
        assert len({p.answers for p in points}) == 1
        # The default plan is one warm statement with no DDL.
        assert points[-1].ddl == 0
        assert points[-1].statements < points[0].statements

    def test_parallel_simulation(self):
        schedules = bench.run_parallel_simulation(
            depth=4, worker_counts=(1, 4), rule_count=3
        )
        assert [s.workers for s in schedules] == [1, 4]
        assert schedules[1].total_seconds <= schedules[0].total_seconds


class TestFormatters:
    """Every formatter renders its runner's output without crashing and
    mentions the artifact it reproduces."""

    def test_all_figure_formatters(self):
        extract = bench.run_extract_experiment((10,), (1,), repetitions=1)
        assert "Figure 7" in bench.format_fig7(extract)
        assert "Figure 8" in bench.format_fig8(extract)

        dictionary = bench.run_dictionary_experiment((10,), (1,), repetitions=1)
        assert "Figure 9" in bench.format_fig9(dictionary)
        assert "Figure 10" in bench.format_fig10(dictionary)

        rows = bench.run_compile_breakdown((1,), total_rules=5, repetitions=1)
        assert "Table 4" in bench.format_table4(rows)

        fixed_d, fixed_rel = bench.run_relevant_fraction_experiment(
            depth=4, growing_depths=(3, 4), fixed_subtree_depth=2, repetitions=1
        )
        assert "Figure 11" in bench.format_fig11(fixed_d, fixed_rel)

        nvs = bench.run_naive_vs_seminaive(depth=4, repetitions=1)
        assert "Figure 12" in bench.format_fig12(nvs)

        lfp = bench.run_lfp_breakdown(depth=4)
        assert "Table 5" in bench.format_table5(lfp)

        crossover = bench.run_magic_crossover(depth=4, repetitions=1)
        assert "Figure 13" in bench.format_fig13(crossover)
        assert "Figure 14" in bench.format_fig14(crossover)

        updates = bench.run_update_experiment((9,), 1, repetitions=1)
        assert "Figure 15" in bench.format_fig15(updates)

        breakdown = bench.run_update_breakdown(((1, 10),), repetitions=1)
        assert "Table 8" in bench.format_table8(breakdown)

    def test_extension_formatters(self):
        ablation = bench.run_lfp_operator_ablation(depth=4, repetitions=1)
        assert "Ablation" in bench.format_ablation(ablation)

        rewrites = bench.run_rewrite_methods(generations=3, width=2, repetitions=1)
        assert "rewriting" in bench.format_rewrite_methods(rewrites)

        schedules = bench.run_parallel_simulation(
            depth=4, worker_counts=(1, 2), rule_count=2
        )
        assert "parallel" in bench.format_parallel_simulation(schedules)


class TestTiming:
    def test_timed_median(self):
        from repro.bench.timing import timed

        run = timed(lambda: 42, repetitions=5)
        assert run.value == 42
        assert run.repetitions == 5
        assert run.seconds >= 0

    def test_timed_requires_positive_reps(self):
        from repro.bench.timing import timed

        with pytest.raises(ValueError):
            timed(lambda: None, repetitions=0)

    def test_fraction_and_percentage(self):
        from repro.bench.timing import fraction, percentage

        assert fraction(1, 4) == 0.25
        assert fraction(1, 0) == 0.0
        assert percentage(1, 4) == 25.0
