"""The benchmark's percentile helper against numpy's inverted_cdf."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy
import pytest

from stats import percentile


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 10, 19, 20, 21, 99, 100, 101,
                               200, 1000])
def test_matches_numpy_inverted_cdf(n):
    rng = random.Random(n)
    values = [rng.random() * 100 for _ in range(n)]
    ordered = sorted(values)
    for p in [0, 1, 5, 7, 10, 25, 29, 50, 57, 75, 90, 95, 99, 99.9, 100]:
        exact_rank = max(1, math.ceil(Fraction(str(p)) * n / 100))
        assert percentile(values, p) == ordered[exact_rank - 1], (n, p)
        if max(1, math.ceil(p / 100 * n)) == exact_rank:
            # numpy forms p/100*n in floating point; wherever its rounding
            # does not cross a whole rank, the two must agree exactly
            expected = numpy.percentile(values, p, method="inverted_cdf")
            assert percentile(values, p) == expected, (n, p)


def test_numpy_rounding_is_the_only_difference():
    # 0.07 * 100 is 7.000000000000001 in binary floating point, so numpy
    # picks the 8th sample; the nearest rank of p7 over 100 is the 7th
    values = list(range(1, 101))
    assert numpy.percentile(values, 7, method="inverted_cdf") == 8
    assert percentile(values, 7) == 7


def test_ties_and_integers_match_numpy():
    values = [3, 1, 2, 2, 2, 5, 5, 9]
    for p in range(0, 101):
        assert percentile(values, p) == numpy.percentile(
            values, p, method="inverted_cdf")


def test_median_of_two_is_the_lower_sample():
    assert percentile([11, 10], 50) == 10


@pytest.mark.parametrize("bad", [-1, 100.5])
def test_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        percentile([1.0], bad)


def test_rejects_empty():
    with pytest.raises(ValueError):
        percentile([], 50)
