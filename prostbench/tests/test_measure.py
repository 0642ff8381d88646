import pytest

from measure import (
    Tally,
    group_means,
    per_query_medians,
    spread,
    tail_percentile,
)


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
     (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_group_time_is_mean_of_per_query_medians():
    samples = {"C1": [10.0, 30.0, 20.0], "C2": [100.0, 100.0], "S1": [5.0], "S2": []}
    medians = per_query_medians(samples)
    assert medians == {"C1": 20.0, "C2": 100.0, "S1": 5.0}
    groups = group_means(medians, {"C": ("C1", "C2"), "S": ("S1", "S2")})
    # S2 never succeeded, so the S group has no value rather than a
    # mean over the queries that happened to work
    assert groups == {"C": 60.0}


def test_tally_counts_failures_out_of_attempts():
    t = Tally()
    assert t.record(True) and not t.record(False) and t.record(True)
    assert (t.attempted, t.failed) == (3, 1)
    assert t.success_ratio == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        Tally().success_ratio


def test_spread_is_quartile_distance_over_median():
    assert spread([10.0] * 5) == 0.0
    assert spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(3.0 / 10.0)
