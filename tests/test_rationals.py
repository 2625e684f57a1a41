from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matroid_interdiction.rationals import (
    NEG_INF,
    POS_INF,
    ExtendedRational,
    ParamInterval,
    extended,
    interior_point,
    rational,
)


def test_rational_parsing_accepts_int_and_pq():
    assert rational(3) == Fraction(3)
    assert rational("3/2") == Fraction(3, 2)
    assert rational("-1") == Fraction(-1)
    assert rational(" 7/14 ") == Fraction(1, 2)


@pytest.mark.parametrize("bad", ["1.5", "inf", "three", "1/2/3", "", "1/0", "-3/00"])
def test_rational_parsing_rejects_non_exact(bad):
    with pytest.raises(ValueError):
        rational(bad)


@st.composite
def rational_literals(draw) -> str:
    """``p`` or ``p/q`` with a sign or none, leading zeros, big ints, ``-0``
    and surrounding whitespace."""
    digits = st.one_of(st.integers(0, 99), st.integers(0, 10**60))

    def spelled(value: int) -> str:
        return "0" * draw(st.integers(0, 3)) + str(value)

    text = draw(st.sampled_from(["", "+", "-"])) + spelled(draw(digits))
    if draw(st.booleans()):
        text += "/" + spelled(draw(digits.filter(bool)))
    space = st.sampled_from(["", " ", "  ", "\t", "\n", " \t"])
    return draw(space) + text + draw(space)


@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(rational_literals())
def test_rational_literal_is_the_fraction_of_its_text(text):
    value = rational(text)
    assert type(value) is Fraction
    assert value == Fraction(text)
    assert value.as_integer_ratio() == Fraction(text).as_integer_ratio()


@pytest.mark.parametrize("text", ["-0", "+0/7", "007/0014", "-00/1", " +12/8\n"])
def test_rational_literal_edge_spellings(text):
    assert rational(text) == Fraction(text)


@pytest.mark.parametrize("bad, message", [
    ("1/0", "zero denominator: '1/0'"),
    ("1.5", "not an exact rational literal: '1.5'"),
    ("1e3", "not an exact rational literal: '1e3'"),
    ("1 / 2", "not an exact rational literal: '1 / 2'"),
])
def test_rational_refusals_keep_their_messages(bad, message):
    with pytest.raises(ValueError) as err:
        rational(bad)
    assert str(err.value) == message


def test_rational_parsing_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        rational(1.5)
    with pytest.raises(TypeError):
        rational(True)
    with pytest.raises(TypeError):
        rational(False)


def test_rational_accepts_subclasses_past_the_exact_type_checks():
    class Count(int):
        pass

    class Ratio(Fraction):
        pass

    assert rational(Count(3)) == Fraction(3) and type(rational(Count(3))) is Fraction
    half = Ratio(1, 2)
    assert rational(half) is half


def test_extended_total_order():
    vals = [NEG_INF, ExtendedRational.finite(-100), ExtendedRational.finite(0),
            ExtendedRational.finite("5/2"), POS_INF]
    for i, a in enumerate(vals):
        for j, b in enumerate(vals):
            assert (a < b) == (i < j)
            assert (a == b) == (i == j)


def test_equal_finite_ends_hash_equal():
    half, other = extended("1/2"), ExtendedRational.finite("2/4")
    assert half == other and hash(half) == hash(other)
    assert len({half, other}) == 1


def test_infinities_are_equal_hashable_and_reflexive():
    assert len({NEG_INF, extended("-inf")}) == 1
    for inf in (NEG_INF, POS_INF):
        assert inf <= inf and inf >= inf
        assert not (inf < inf or inf > inf)


def test_extended_is_immutable():
    end = extended(1)
    with pytest.raises(AttributeError):
        end._value = Fraction(2)
    assert end == extended(1)


@pytest.mark.parametrize("sign, value", [(2, None), (0, None), (1, Fraction(1))])
def test_extended_rejects_inconsistent_fields(sign, value):
    with pytest.raises(ValueError):
        ExtendedRational(sign, value)


def test_extended_parse_and_str():
    assert extended("inf") is POS_INF or extended("inf") == POS_INF
    assert str(extended("-inf")) == "-inf"
    assert str(extended("3/2")) == "3/2"
    with pytest.raises(ValueError):
        NEG_INF.value


def test_interval_membership_and_properness():
    iv = ParamInterval.closed(0, 2)
    assert iv.contains(Fraction(0)) and iv.contains(Fraction(2))
    assert not iv.strictly_inside(Fraction(2))
    assert iv.strictly_inside(Fraction(1))
    assert iv.is_bounded and iv.is_proper
    with pytest.raises(ValueError):
        ParamInterval.closed(2, 0)
    point = ParamInterval.closed(1, 1)
    assert not point.is_proper


def test_interior_point_rules():
    assert interior_point(extended(0), extended(2)) == Fraction(1)
    assert interior_point(NEG_INF, extended(5)) == Fraction(4)
    assert interior_point(extended(5), POS_INF) == Fraction(6)
    assert interior_point(NEG_INF, POS_INF) == Fraction(0)
    with pytest.raises(ValueError):
        interior_point(extended(1), extended(1))


def test_unbounded_interval_str():
    iv = ParamInterval.closed("-inf", 2)
    assert str(iv) == "(-inf, 2]"
    assert not iv.is_bounded
    assert iv.contains(Fraction(-10**9))
