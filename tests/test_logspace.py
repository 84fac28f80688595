import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hlmax.logspace import LogValue, ONE, ZERO, log_add, log_sub

finite_logs = st.floats(min_value=-600.0, max_value=600.0, allow_nan=False)


def test_zero_is_additive_identity():
    x = LogValue(3.7)
    assert (x + ZERO).log_magnitude == 3.7
    assert (ZERO + x).log_magnitude == 3.7


def test_basic_arithmetic():
    two = LogValue.from_linear(2.0)
    three = LogValue.from_linear(3.0)
    assert (two * three).to_linear() == pytest.approx(6.0, rel=1e-15, abs=0)
    assert (three / two).to_linear() == pytest.approx(1.5, rel=1e-15, abs=0)
    assert (two + three).to_linear() == pytest.approx(5.0, rel=1e-15, abs=0)
    assert (two ** 10).to_linear() == pytest.approx(1024.0, rel=1e-13, abs=0)
    assert (three.minus(two)).to_linear() == pytest.approx(1.0, rel=1e-13, abs=0)


def test_zero_conventions():
    assert LogValue.from_linear(0.0).is_zero
    assert (ZERO * LogValue(5.0)).is_zero
    assert (ZERO ** 0.0) == ONE
    with pytest.raises(ZeroDivisionError):
        LogValue(1.0) / ZERO


def test_far_apart_addition_returns_larger():
    big = LogValue(0.0)
    small = LogValue(-750.0)
    assert (big + small).log_magnitude == 0.0
    assert (small + big).log_magnitude == 0.0


def test_close_addition_exact():
    # operands within 700 log-units must add exactly to working precision
    a = LogValue(0.0)
    b = LogValue(-20.0)
    expected = math.log(1.0 + math.exp(-20.0))
    assert (a + b).log_magnitude == pytest.approx(expected, abs=1e-16)


@given(a=finite_logs, b=finite_logs)
def test_addition_commutative(a, b):
    assert log_add(a, b) == pytest.approx(log_add(b, a), abs=1e-12)


@given(a=finite_logs, b=finite_logs, c=finite_logs)
def test_addition_associative(a, b, c):
    left = log_add(log_add(a, b), c)
    right = log_add(a, log_add(b, c))
    assert left == pytest.approx(right, abs=1e-12)


@given(a=finite_logs, b=finite_logs)
def test_sub_inverts_add(a, b):
    total = log_add(a, b)
    back = log_sub(total, min(a, b))
    assert back == pytest.approx(max(a, b), abs=1e-9)


def test_sub_rejects_negative_result():
    with pytest.raises(ValueError):
        log_sub(0.0, 1.0)


def test_ordering():
    assert LogValue(-1.0) < LogValue(0.0) < LogValue(2.0)
