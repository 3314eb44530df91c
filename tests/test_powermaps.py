import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mme.powermaps import (
    RootOfUnity,
    is_periodic,
    period,
    radical,
    same_periodic_points_powermaps,
)
from conftest import brute_force_is_periodic


def test_radical_values():
    assert radical(2) == 2
    assert radical(12) == 6
    assert radical(360) == 30
    assert radical(7) == 7


def test_same_periodic_points_known_cases():
    assert same_periodic_points_powermaps(6, 12) is True
    assert same_periodic_points_powermaps(3, 5) is False
    assert same_periodic_points_powermaps(2, 4) is True
    assert same_periodic_points_powermaps(2, 6) is False


def test_root_of_unity_validation():
    z = RootOfUnity.reduced(2, 8)
    assert (z.a, z.b) == (1, 4)
    with pytest.raises(ValueError):
        RootOfUnity.reduced(1, 0)


def test_periodicity_iff_coprime_order():
    # e^{2 pi i / b} is periodic under z^d iff gcd(b, d) = 1
    assert is_periodic(RootOfUnity.reduced(1, 7), 2)
    assert not is_periodic(RootOfUnity.reduced(1, 6), 2)
    assert period(RootOfUnity.reduced(1, 7), 2) == 3  # ord_7(2) = 3


def test_dyadic_roots_periodic_under_odd_degrees():
    for k in range(1, 11):
        z = RootOfUnity.reduced(1, 2**k)
        assert is_periodic(z, 3)
        assert is_periodic(z, 5)


def test_brute_force_oracle_agrees_exhaustively():
    for d in range(2, 13):
        for b in range(1, 51):
            for a in (1, max(1, b - 1)):
                z = RootOfUnity.reduced(a, b)
                assert is_periodic(z, d) == brute_force_is_periodic(z, d)


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 30), st.integers(2, 30))
def test_same_periodic_points_iff_equal_radicals(df, dg):
    assert same_periodic_points_powermaps(df, dg) == (radical(df) == radical(dg))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.integers(1, 200), st.integers(2, 12))
def test_period_divides_consistency(a, b, d):
    z = RootOfUnity.reduced(a % b or 1, b)
    if is_periodic(z, d):
        n = period(z, d)
        # z^(d^n) = z exactly: d^n = 1 mod (b / gcd stuff handled in reduce)
        assert pow(d, n, z.b) * z.a % z.b == z.a % z.b
