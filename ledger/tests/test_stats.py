"""Nearest-rank percentiles and the ">= 10 samples beyond" rule."""

from ledger import stats


def test_nearest_rank_picks_a_sample():
    values = [15, 20, 35, 40, 50]
    assert stats.nearest_rank(values, 5) == 15
    assert stats.nearest_rank(values, 30) == 20
    assert stats.nearest_rank(values, 40) == 20
    assert stats.nearest_rank(values, 50) == 35
    assert stats.nearest_rank(values, 100) == 50
    assert stats.median([3, 1, 2, 4]) == 2  # rank ceil(0.5 * 4) = 2, never interpolated


def test_nearest_rank_rejects_nonsense():
    for bad in ([], None):
        try:
            stats.nearest_rank(bad or [], 50)
        except ValueError:
            continue
        raise AssertionError("empty sample accepted")
    try:
        stats.nearest_rank([1], 0)
    except ValueError:
        return
    raise AssertionError("percent 0 accepted")


def test_ten_samples_beyond_rule():
    # p95 of 200 samples is rank 190: exactly 10 samples lie beyond it.
    assert stats.samples_beyond(200, 95) == 10
    assert stats.supported(200, 95)
    assert not stats.supported(199, 95)
    assert stats.samples_beyond(240, 95) == 12
    # p99 needs 1000 samples, p50 needs 20.
    assert stats.supported(1000, 99) and not stats.supported(999, 99)
    assert stats.supported(20, 50) and not stats.supported(19, 50)


def test_quartile_spread_is_the_drivers():
    from ledger.repeat import quartile_spread

    # statistics.quantiles(1..10, n=4) = 2.75, 5.5, 8.25
    assert quartile_spread([float(v) for v in range(1, 11)]) == (8.25 - 2.75) / 5.5


def test_repeat_pairs_set_medians_against_bounds():
    from ledger import spec
    from ledger.repeat import compare

    def side(p95, attempted=100):
        runs = [
            {"metrics": {m.name: 10.0 for m in spec.END_TO_END}, "failed_share": 0.0,
             "attempted": attempted}
            for _ in range(3)
        ]
        for run, value in zip(runs, p95):
            run["metrics"]["latency_p95_ms"] = value
        return {name: runs for name in spec.WORKLOADS}

    assert compare(side([10, 10, 99]), side([10, 11, 10]))["agree"]  # medians 10 and 10
    assert not compare(side([10, 10, 10]), side([14, 14, 10]))["agree"]  # 40 % apart
    assert not compare(side([10, 10, 10]), side([10, 10, 10], attempted=99))["agree"]
