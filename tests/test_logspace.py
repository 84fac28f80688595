import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hlmax.logspace import NEG_INF, log_add

finite_logs = st.floats(min_value=-600.0, max_value=600.0, allow_nan=False)


def test_zero_is_additive_identity():
    assert log_add(3.7, NEG_INF) == 3.7
    assert log_add(NEG_INF, 3.7) == 3.7


def test_far_apart_addition_returns_larger():
    assert log_add(0.0, -750.0) == 0.0
    assert log_add(-750.0, 0.0) == 0.0


def test_close_addition_exact():
    # operands within 700 log-units must add exactly to working precision
    expected = math.log(1.0 + math.exp(-20.0))
    assert log_add(0.0, -20.0) == pytest.approx(expected, abs=1e-16)


@given(a=finite_logs, b=finite_logs)
def test_addition_commutative(a, b):
    assert log_add(a, b) == pytest.approx(log_add(b, a), abs=1e-12)


@given(a=finite_logs, b=finite_logs, c=finite_logs)
def test_addition_associative(a, b, c):
    left = log_add(log_add(a, b), c)
    right = log_add(a, log_add(b, c))
    assert left == pytest.approx(right, abs=1e-12)
