import math

import pytest
from hypothesis import given, strategies as st

from hiercubes.logreal import (LogReal, log1p_exp, log_expm1, logaddexp,
                               logsumexp_iter, ordered_sum)


def test_constructors_and_states():
    assert LogReal.from_log(-math.inf).is_zero
    assert LogReal.infinite().is_infinite
    assert LogReal.from_log(1.0).is_finite
    assert not LogReal.infinite().is_finite


@given(st.floats(1e-300, 1e300), st.floats(1e-300, 1e300))
def test_add_matches_floats(a, b):
    x = logaddexp(math.log(a), math.log(b))
    assert x == pytest.approx(math.log(a + b), rel=1e-12)


def test_add_absorbs_states():
    two = math.log(2.0)
    assert logaddexp(two, -math.inf) == two
    assert logaddexp(-math.inf, two) == two
    assert logaddexp(two, math.inf) == math.inf


@given(st.floats(-700, 700))
def test_log1p_exp_matches_reference(x):
    assert log1p_exp(x) == pytest.approx(math.log1p(math.exp(x))
                                         if x < 500 else x, rel=1e-12)


def test_log1p_exp_no_overflow():
    assert log1p_exp(1e8) == 1e8
    assert log1p_exp(-1e8) == 0.0 or log1p_exp(-1e8) == pytest.approx(0.0)


@given(st.floats(1e-280, 30.0))
def test_log_expm1_matches_reference(x):
    assert log_expm1(x) == pytest.approx(math.log(math.expm1(x)), rel=1e-10)


def test_log_expm1_deep_tail():
    # for tiny x, log(e^x - 1) = log(x) + x/2 + O(x^2)
    x = 1e-200
    assert log_expm1(x) == pytest.approx(math.log(x), rel=1e-12)
    assert log_expm1(50.0) == pytest.approx(50.0, abs=1e-12)


def test_logsumexp_iter():
    terms = [math.log(1.0), math.log(2.0), math.log(3.0)]
    assert logsumexp_iter(terms) == pytest.approx(math.log(6.0))
    assert logsumexp_iter([]) == -math.inf
    assert logsumexp_iter([-math.inf, 0.0]) == pytest.approx(0.0)
    # huge spread: the small term must not poison the result
    assert logsumexp_iter([0.0, -1e6]) == pytest.approx(0.0)


def test_ordered_sum_adds_left_to_right():
    # a compensated sum gives 1.0 and 1.0 here
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert ordered_sum([0.1] * 10) == 0.9999999999999999
    assert ordered_sum(iter([0.5, 0.25])) == 0.75
    assert ordered_sum([]) == 0
