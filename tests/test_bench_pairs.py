import pytest

from bench_pairs import judge

STEADY = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


@pytest.mark.parametrize("shift, bound, verdict", [
    (0.3, 0.25, "worse"),
    (0.2, 0.25, "no worse"),
    (-0.3, 0.25, "no worse"),
    (0.0, 0.01, "unresolved"),
    (-0.1, 0.01, "no worse"),
])
def test_verdict_reads_the_bound_against_the_parents_spread(shift, bound,
                                                            verdict):
    # the parent's q3 - q1 is 0.045: above a bound of 0.01, and the change
    # clears it only when every one of its runs beats every parent run
    pairs = [(p, p + shift) for p in STEADY]
    assert judge(pairs, "lower", bound)["verdict"] == verdict


def test_a_higher_is_better_metric_is_judged_the_other_way():
    pairs = [(p, p - 0.3) for p in STEADY]
    assert judge(pairs, "higher", 0.25)["verdict"] == "worse"
    assert judge(pairs, "lower", 0.25)["verdict"] == "no worse"


@pytest.mark.parametrize("won, shift, gain", [
    (10, 0.05, True),
    (9, 0.05, True),
    (8, 0.05, False),
    (10, 0.04, False),
])
def test_a_gain_needs_nine_pairs_in_ten_and_a_gap_beyond_the_spread(
        won, shift, gain):
    # a gain of 0.05 clears the parent's q3 - q1 of 0.045, one of 0.04 not
    pairs = [(p, p - shift if i < won else p + 0.001)
             for i, p in enumerate(STEADY)]
    assert judge(pairs, "lower", 0.25)["gain"] is gain
