from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from superbracket.fields import (
    GF,
    MAX_SCALAR_DIGITS,
    PRIME_BOUND,
    QQ,
    Field,
    FieldError,
    Scalar,
    _is_prime,
    int_image,
)

F5 = GF(5)
F7 = GF(7)


def test_int_image_examples():
    assert int_image(7, F5) == Scalar(F5, 2)
    assert int_image(-2, F7) == Scalar(F7, 5)
    assert int_image(3, QQ) == Scalar(QQ, Fraction(3))
    assert str(int_image(3, QQ)) == "3/1"


def test_prime_validation():
    with pytest.raises(FieldError):
        GF(6)
    with pytest.raises(FieldError):
        GF(1)
    GF(2), GF(3), GF(97), GF(2**31 + 11)
    # the bound is the least strong pseudoprime to every Miller-Rabin base
    # used: a composite that the test alone would pass as prime
    assert PRIME_BOUND == 1287836182261 * 2575672364521
    assert _is_prime(PRIME_BOUND)
    # the least strong pseudoprime to the first twelve primes (no base 41)
    # lies below the bound, so it must be refused as composite
    psi_12 = 399165290221 * 798330580441
    assert psi_12 == 318_665_857_834_031_151_167_461 < PRIME_BOUND
    with pytest.raises(FieldError, match="must be prime"):
        GF(psi_12)
    below = next(n for n in range(PRIME_BOUND - 2, 0, -2) if _is_prime(n))
    assert GF(below).p == below
    for n in (PRIME_BOUND, PRIME_BOUND + 2, 2**127 - 1):
        with pytest.raises(FieldError, match="below"):
            GF(n)


def test_scalar_digit_bound():
    top = "9" * MAX_SCALAR_DIGITS
    assert QQ.parse(f"-{top}/{top}") == -1
    assert F5.parse(top) == int(top) % 5
    for text in ("1" * (MAX_SCALAR_DIGITS + 1), f"1/{'7' * 5000}", f"-{'3' * 5000}"):
        for field in (QQ, F5):
            with pytest.raises(FieldError, match=f"bound of {MAX_SCALAR_DIGITS} digits"):
                field.parse(text)


def test_scalar_arithmetic():
    a = F5.scalar(3)
    b = F5.scalar(4)
    assert a + b == F5.scalar(2)
    assert a * b == F5.scalar(2)
    assert -a == F5.scalar(2)
    assert a / b == a * b.inverse()
    with pytest.raises(ZeroDivisionError):
        F5.scalar(0).inverse()
    with pytest.raises(FieldError):
        a + QQ.scalar(1)


def test_format_parse_round_trip():
    assert QQ.format(QQ.parse("-6/4")) == "-3/2"
    assert QQ.format(QQ.parse("5")) == "5/1"
    assert F5.format(F5.parse("12")) == "2"
    with pytest.raises(FieldError):
        F5.parse("1/2")
    with pytest.raises(FieldError):
        QQ.parse("1/0")
    with pytest.raises(FieldError):
        QQ.parse("x")


rationals = st.fractions(max_denominator=10**4)
residues5 = st.integers(min_value=0, max_value=4)


@given(rationals, rationals, rationals)
def test_field_axioms_rationals(a, b, c):
    sa, sb, sc = QQ.scalar(a), QQ.scalar(b), QQ.scalar(c)
    assert (sa + sb) + sc == sa + (sb + sc)
    assert sa * (sb + sc) == sa * sb + sa * sc
    assert sa + sb == sb + sa
    if sb:
        assert (sa / sb) * sb == sa


@given(residues5, residues5, residues5)
def test_field_axioms_prime(a, b, c):
    sa, sb, sc = F5.scalar(a), F5.scalar(b), F5.scalar(c)
    assert (sa * sb) * sc == sa * (sb * sc)
    assert sa * (sb + sc) == sa * sb + sa * sc
    if sb:
        assert (sa / sb) * sb == sa


@given(st.integers(min_value=-10**9, max_value=10**9),
       st.integers(min_value=-10**9, max_value=10**9))
def test_int_image_is_ring_homomorphism(a, b):
    for field in (QQ, F5, F7):
        assert int_image(a + b, field) == int_image(a, field) + int_image(b, field)
        assert int_image(a * b, field) == int_image(a, field) * int_image(b, field)


def test_characteristic():
    assert QQ.characteristic == 0
    assert F5.characteristic == 5
    assert Field.rationals() == QQ
