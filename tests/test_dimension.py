import math

import pytest
from hypothesis import given, strategies as st

from reilly_lab.config import _to_theta
from reilly_lab.dimension import InverseDimension
from reilly_lab.errors import ConfigError


def test_theta_zero_is_infinite_n():
    th = InverseDimension(0.0, 1)
    assert th.is_infinite_n
    assert th.n_value == math.inf
    assert th.n_over_n_minus_1 == 1.0
    assert th.inv_n_minus_1 == 0.0
    assert th.transform_mass(math.e) == pytest.approx(1.0)


def test_theta_minus_inf_is_zero_n():
    th = InverseDimension(-math.inf, 1)
    assert th.is_zero_n
    assert th.n_value == 0.0
    assert th.n_over_n_minus_1 == 0.0
    assert th.inv_n_minus_1 == -1.0
    assert th.inv_n_minus_k(3) == pytest.approx(-1.0 / 3.0)


def test_range_validation():
    with pytest.raises(ValueError):
        InverseDimension(0.6, 2)
    with pytest.raises(ValueError):
        InverseDimension(0.4, 3)
    InverseDimension(1.0 / 3.0, 3)  # boundary value allowed


def test_config_spellings():
    for word in ("inf", "+inf", " Infinity "):
        assert _to_theta(word, "N").theta == 0.0
    # 0 reads as theta = -inf, which a Lichnerowicz row refuses
    with pytest.raises(ConfigError, match="N = 0 has no"):
        _to_theta("0", "N")
    assert _to_theta("5", "N").n_value == pytest.approx(5.0)
    assert _to_theta("-2", "N").n_value == pytest.approx(-2.0)


@given(st.floats(min_value=-50.0, max_value=-1.01) | st.floats(min_value=1.5, max_value=50.0))
def test_fraction_identities(n):
    th = InverseDimension.from_n(n)
    assert th.n_over_n_minus_1 == pytest.approx(n / (n - 1.0), rel=1e-12)
    assert th.n_minus_1_over_n == pytest.approx((n - 1.0) / n, rel=1e-12)
    assert th.inv_n_minus_1 == pytest.approx(1.0 / (n - 1.0), rel=1e-12)


@given(st.floats(min_value=0.05, max_value=40.0))
def test_transform_mass_matches_direct_form(mass):
    th = InverseDimension.from_n(7.0)
    assert th.transform_mass(mass) == pytest.approx(7.0 * mass ** (1.0 / 7.0))


def test_transform_mass_log_limit_is_continuous():
    # N mass^(1/N) - N -> log(mass); the dropped constant N cancels in
    # second differences, which is all the concavity checks consume
    mass = 2.7
    big = InverseDimension.from_n(1e8)
    small_diff = big.transform_mass(mass) - big.transform_mass(1.0)
    assert small_diff == pytest.approx(math.log(mass), abs=1e-6)
