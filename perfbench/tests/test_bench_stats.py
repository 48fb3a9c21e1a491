import pytest

from perfbench import stats


def test_p90_needs_one_hundred_samples():
    assert stats.min_samples(90) == 100
    assert stats.tail_size(100, 90) == 10
    assert stats.tail_size(99, 90) == 9


def test_higher_percentiles_need_proportionally_more_samples():
    assert stats.min_samples(50) == 20
    assert stats.min_samples(99) == 1000


def test_percentile_is_nearest_rank_with_ten_samples_beyond():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 90) == 90
    assert sum(v > stats.percentile(values, 90) for v in values) == 10
    assert stats.percentile(values, 50) == 50


def test_percentile_refuses_a_short_tail():
    with pytest.raises(ValueError, match="need 10"):
        stats.percentile(list(range(99)), 90)


def test_relative_spread_is_interquartile_range_over_median():
    # statistics.quantiles (exclusive method) of 1..9 gives 2.5, 5, 7.5
    assert stats.relative_spread(list(range(1, 10))) == pytest.approx(1.0)
    assert stats.relative_spread([4.0] * 10) == 0.0
